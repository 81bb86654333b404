"""Computations made apart from the program, for the correctness checks.

Nothing here imports fastocr. The toy decoder is rebuilt from the
specification in the project README and the model module docstring:
SplitMix64 weights in the documented fill order, sinusoidal positions, and
an attention-only residual stack. It is evaluated densely, every position of
a layer at once under a per-row attention mask, where the program pushes one
token at a time; the two agree to rounding. The fixation method is
re-implemented from its description for the replay check.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_PATCH_SALT = 0xC2B2AE3D27D4EB4F
PATCH_DIM = 16


def splitmix_doubles(seed: int, n: int) -> np.ndarray:
    """The first n doubles of SplitMix64(seed); draw k mixes seed + k * gamma."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + k * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


class ToyModel:
    def __init__(self, seed: int, layers: int, hidden: int, heads: int, vocab: int):
        h, v = hidden, vocab
        self.seed, self.layers, self.hidden, self.heads = seed, layers, hidden, heads
        sizes = [v * h, h * v, PATCH_DIM * h, 4 * layers * h * h]
        w = (2.0 * splitmix_doubles(seed, sum(sizes)) - 1.0) * (1.0 / math.sqrt(h))
        parts = np.split(w, np.cumsum(sizes)[:-1])
        self.embedding = parts[0].reshape(v, h)
        self.unembedding = parts[1].reshape(h, v)
        self.patch = parts[2].reshape(PATCH_DIM, h)
        # per layer: W_q, W_k, W_v, W_o
        self.w = parts[3].reshape(layers, 4, h, h)

    def inputs(self, n_img: int, prompt, tokens) -> np.ndarray:
        """Residual-stream inputs of every position: image, prompt, generated."""
        desc = 2.0 * splitmix_doubles(self.seed ^ _PATCH_SALT, n_img * PATCH_DIM) - 1.0
        x_img = desc.reshape(n_img, PATCH_DIM) @ self.patch
        x_txt = self.embedding[np.concatenate([np.asarray(prompt, dtype=np.int64),
                                               np.asarray(tokens, dtype=np.int64)])]
        x = np.concatenate([x_img, x_txt])
        return x + sinusoidal(len(x), self.hidden)

    def run(self, x: np.ndarray, masks, rows: np.ndarray):
        """Final residual stream, and each layer's head-averaged weights on `rows`.

        masks[l][i, j] is True when position i attends position j at layer l.
        """
        n, h = x.shape
        d = h // self.heads
        avgs = []
        for layer in range(self.layers):
            wq, wk, wv, wo = self.w[layer]
            q, k, v = ((x @ m).reshape(n, self.heads, d).transpose(1, 0, 2)
                       for m in (wq, wk, wv))
            scores = (q @ k.transpose(0, 2, 1)) / math.sqrt(d)
            scores[:, ~masks[layer]] = -np.inf
            scores -= scores.max(axis=2, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=2, keepdims=True)
            out = (scores @ v).transpose(1, 0, 2).reshape(n, h)
            x = x + out @ wo
            avgs.append(scores[:, rows, :].mean(axis=0))
        return x, np.stack(avgs, axis=1)  # (len(rows), layers, n)


def sinusoidal(n: int, hidden: int) -> np.ndarray:
    inv = 10000.0 ** (-np.arange(0, hidden, 2, dtype=np.float64) / hidden)
    angle = np.arange(n, dtype=np.float64)[:, None] * inv[None, :]
    pe = np.empty((n, hidden))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def kept_count(kappa: str, n_img: int) -> int:
    """ceil(kappa * N_img) in exact decimal arithmetic."""
    from fractions import Fraction

    return min(math.ceil(Fraction(kappa) * n_img), n_img)


def top_k(weights: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """The k candidates of highest weight, ties to the lower position; ascending."""
    order = sorted(candidates.tolist(), key=lambda p: (-weights[p], p))
    return np.array(sorted(order[:k]), dtype=np.int64)


def is_extreme_k(chosen, weights: np.ndarray, k: int, *, lowest: bool = False,
                 tol: float = 1e-12) -> bool:
    """True when `chosen` is k distinct positions of weights[0..n) and no other
    position beats one of them by more than tol (highest weights, or lowest
    with lowest=True)."""
    chosen = np.asarray(chosen, dtype=np.int64)
    n = weights.size
    if chosen.size != k or (k and (chosen.min() < 0 or chosen.max() >= n)):
        return False
    inside = np.zeros(n, dtype=bool)
    inside[chosen] = True
    if np.count_nonzero(inside) != k:
        return False
    if k in (0, n):
        return True
    w_in, w_out = weights[inside], weights[~inside]
    if lowest:
        return bool(w_in.max() <= w_out.min() + tol)
    return bool(w_in.min() >= w_out.max() - tol)


def greedy_focal_layers(mean_ratios, budget: int, gap: int) -> tuple:
    """Layers by descending mean ratio, ties to the lower index, skipping any
    within `gap` of a chosen one, until the budget is met."""
    chosen: list = []
    for layer in sorted(range(len(mean_ratios)), key=lambda l: (-mean_ratios[l], l)):
        if len(chosen) == budget:
            break
        if all(abs(layer - c) > gap for c in chosen):
            chosen.append(layer)
    return tuple(sorted(chosen))


def fixation_replay_recall(weights: np.ndarray, n_img: int, focal_layers, kappa: str,
                           warmup: int) -> float:
    """Mean kept-image-mass recall of the fixation method over a trace.

    weights: (steps, layers, positions) head-averaged rows. Warmup steps and
    full-attention layers recall all image mass. At a steady step, layer 0
    reuses the deepest focal layer's selection of the step before (a full
    fallback pass at the first steady step), each focal layer selects the
    top-k image positions of its own row, and every other layer keeps the
    latest selection; its recall is the kept share of the row's image mass.
    """
    steps, layers, _ = weights.shape
    k = kept_count(kappa, n_img)
    img = np.arange(n_img)
    deepest = max(focal_layers)
    recalls = [1.0] * (min(warmup, steps) * layers)
    carried = None
    for s in range(warmup, steps):
        kept = carried
        for layer in range(layers):
            row = weights[s, layer]
            if layer in focal_layers or (layer == 0 and carried is None):
                kept = top_k(row, img, k)
                if layer == deepest:
                    deepest_selection = kept
                recalls.append(1.0)
            else:
                recalls.append(float(row[kept].sum() / row[:n_img].sum()))
        carried = deepest_selection
    return float(np.mean(recalls))
