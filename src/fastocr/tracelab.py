"""Planted-fixation trace generator, trace file I/O, and policy replay.

Planted traces carry a drifting Gaussian window of attention mass over image
positions with a known per-layer image/text mass split, giving ground truth
for focal-layer recovery and kept-set recall. Trace files are line-oriented
plain text so they are human-inspectable, diff-able, and language-neutral:

    #trace v1 L=<int> Nimg=<int> Ntext=<int> source=<planted|toy-model|external>
    t=<int> l=<int> w=<d0>,<d1>,...

Weights are finite, non-negative decimals with 17 significant digits (exact
float64 round trip).
Steps are 1-based. Expected weight-vector length at step t: Nimg+Ntext for
planted traces, Nimg+Ntext+t for toy-model traces (one generated text token
per step, appended before the step's attention), and constant-per-step,
non-decreasing for external traces.

Replay drives a policy over ``LogicalCache``, which is ``kvstore``'s
``TokenRegistry`` without keys/values, so a replayed trace and a live session
answer every question about positions (types, liveness, eviction) with the
same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kvstore import TokenRegistry, TokenType
from .rng import SplitMix64

# mass defaults: focal-like layers put ~3x the image mass of the others
DEFAULT_FOCAL_IMAGE_MASS = 0.422
DEFAULT_NONFOCAL_IMAGE_MASS = 0.143


@dataclass(frozen=True)
class PlantedConfig:
    num_layers: int
    num_image_tokens: int
    num_text_tokens: int
    focal_like_layers: tuple
    num_steps: int
    seed: int = 0
    image_mass_focal: float = DEFAULT_FOCAL_IMAGE_MASS
    image_mass_nonfocal: float = DEFAULT_NONFOCAL_IMAGE_MASS
    window_center: float = 0.0
    window_sigma: float = 3.0
    drift: float = 0.0
    noise: float = 0.0

    def __post_init__(self):
        if self.num_layers < 1 or self.num_image_tokens < 1 or self.num_text_tokens < 1:
            raise ValueError("layer and token counts must be >= 1")
        if not 0.0 < self.image_mass_focal < 1.0 or not 0.0 < self.image_mass_nonfocal < 1.0:
            raise ValueError("image masses must be in (0, 1)")
        if any(not 0 <= l < self.num_layers for l in self.focal_like_layers):
            raise ValueError("focal_like_layers out of range")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")


@dataclass
class PlantedTrace:
    config: PlantedConfig
    weights: np.ndarray  # (num_steps, num_layers, Nimg + Ntext)
    centers: np.ndarray  # (num_steps,) ground-truth window centers


def generate_trace(config: PlantedConfig) -> PlantedTrace:
    """Head-averaged weights with a drifting window and exact mass split.

    At step t (1-based) the window center is c_t = clamp(c_0 + (t-1)*drift).
    Image weights follow exp(-(p - c_t)^2 / (2 sigma^2)) mixed with
    noise * uniform per-position draws, renormalized inside the image block
    and scaled to the layer class mass, so the image/text split stays exact
    under noise. Noise draws come from SplitMix64(seed) in (step, layer,
    position) order. sigma=0 degenerates to a point mass at round(c_t).
    """
    cfg = config
    n, n_txt, L = cfg.num_image_tokens, cfg.num_text_tokens, cfg.num_layers
    stream = SplitMix64(cfg.seed)
    weights = np.empty((cfg.num_steps, L, n + n_txt))
    centers = np.empty(cfg.num_steps)
    positions = np.arange(n, dtype=np.float64)
    focal_like = set(cfg.focal_like_layers)
    for s in range(cfg.num_steps):
        c = min(max(cfg.window_center + s * cfg.drift, 0.0), float(n - 1))
        centers[s] = c
        if cfg.window_sigma == 0.0:
            base = (positions == np.round(c)).astype(np.float64)
        else:
            base = np.exp(-((positions - c) ** 2) / (2.0 * cfg.window_sigma ** 2))
        base = base / base.sum()
        for layer in range(L):
            if cfg.noise > 0.0:
                raw = base + cfg.noise * stream.uniform((n,))
                dist = raw / raw.sum()
            else:
                dist = base
            mass = cfg.image_mass_focal if layer in focal_like else cfg.image_mass_nonfocal
            weights[s, layer, :n] = mass * dist
            weights[s, layer, n:] = (1.0 - mass) / n_txt
    return PlantedTrace(config=cfg, weights=weights, centers=centers)


# -- trace files -----------------------------------------------------------------


_SOURCES = ("planted", "toy-model", "external")


@dataclass
class TraceFile:
    num_layers: int
    num_image_tokens: int
    num_text_tokens: int
    source: str
    records: dict = field(default_factory=dict)  # (step, layer) -> weight vector
    steps: list = field(default_factory=list)  # ascending step indices

    def weights_at(self, step: int, layer: int) -> np.ndarray:
        return self.records[(step, layer)]


def planted_trace_file(trace: PlantedTrace) -> TraceFile:
    cfg = trace.config
    tf = TraceFile(num_layers=cfg.num_layers, num_image_tokens=cfg.num_image_tokens,
                   num_text_tokens=cfg.num_text_tokens, source="planted")
    for s in range(cfg.num_steps):
        t = s + 1
        tf.steps.append(t)
        for layer in range(cfg.num_layers):
            tf.records[(t, layer)] = trace.weights[s, layer]
    return tf


def toy_trace_file(session) -> TraceFile:
    """Trace file from a DecodeSession run with record_trace=True."""
    if not session.trace_rows:
        raise ValueError("session recorded no trace rows")
    cache = session.cache
    n_img = cache.n_img
    prompt_text = len(cache) - n_img - session.t
    tf = TraceFile(num_layers=session.config.num_layers, num_image_tokens=n_img,
                   num_text_tokens=prompt_text, source="toy-model")
    seen = set()
    for step, layer, head_avg in session.trace_rows:
        tf.records[(step, layer)] = head_avg
        if step not in seen:
            seen.add(step)
            tf.steps.append(step)
    return tf


def _expected_len(tf: TraceFile, step: int) -> int | None:
    base = tf.num_image_tokens + tf.num_text_tokens
    if tf.source == "planted":
        return base
    if tf.source == "toy-model":
        return base + step
    return None  # external: per-step consistency checked separately


def write_trace(trace_file: TraceFile, path: str):
    """Serialize to the line-oriented format; read(write(x)) is exact."""
    from .metrics import atomic_write_text

    tf = trace_file
    lines = [f"#trace v1 L={tf.num_layers} Nimg={tf.num_image_tokens} "
             f"Ntext={tf.num_text_tokens} source={tf.source}"]
    for t in tf.steps:
        for layer in range(tf.num_layers):
            w = tf.records[(t, layer)]
            body = ",".join(f"{x:.17g}" for x in w)
            lines.append(f"t={t} l={layer} w={body}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class TraceParseError(ValueError):
    pass


def read_trace(path: str) -> TraceFile:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#trace v1 "):
        raise TraceParseError("malformed header: expected '#trace v1 ...'")
    fields = {}
    for part in lines[0].split()[2:]:
        if "=" not in part:
            raise TraceParseError(f"malformed header field: {part!r}")
        k, v = part.split("=", 1)
        fields[k] = v
    try:
        tf = TraceFile(num_layers=int(fields["L"]), num_image_tokens=int(fields["Nimg"]),
                       num_text_tokens=int(fields["Ntext"]), source=fields["source"])
    except (KeyError, ValueError) as exc:
        raise TraceParseError(f"malformed header: {exc}") from exc
    if tf.source not in _SOURCES:
        raise TraceParseError(f"unknown trace source: {tf.source!r}")
    step_lens: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            t_part, l_part, w_part = line.split(" ", 2)
            t = int(t_part.removeprefix("t="))
            layer = int(l_part.removeprefix("l="))
            w = np.array([float(x) for x in w_part.removeprefix("w=").split(",")])
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: malformed record: {exc}") from exc
        if not 0 <= layer < tf.num_layers:
            raise TraceParseError(f"line {lineno}: layer {layer} out of range")
        if (t, layer) in tf.records:
            raise TraceParseError(f"line {lineno}: duplicate record for step {t} layer {layer}")
        expected = _expected_len(tf, t)
        if expected is not None and w.size != expected:
            raise TraceParseError(
                f"line {lineno}: step {t} layer {layer}: expected {expected} weights, "
                f"got {w.size}")
        if not (np.isfinite(w) & (w >= 0.0)).all():
            raise TraceParseError(f"line {lineno}: step {t} layer {layer}: weights must be "
                                  "finite and non-negative")
        if t in step_lens and step_lens[t] != w.size:
            raise TraceParseError(f"line {lineno}: step {t} has inconsistent weight lengths")
        step_lens[t] = w.size
        tf.records[(t, layer)] = w
    if not tf.records:
        raise TraceParseError("trace has no records")
    tf.steps = sorted(step_lens)
    for t in tf.steps:
        for layer in range(tf.num_layers):
            if (t, layer) not in tf.records:
                raise TraceParseError(f"grid gap: step {t} layer {layer} missing")
    lens = [step_lens[t] for t in tf.steps]
    if any(b < a for a, b in zip(lens, lens[1:])):
        raise TraceParseError("weight lengths decrease across steps")
    return tf


# -- replay ------------------------------------------------------------------------


class LogicalCache(TokenRegistry):
    """The position registry without keys/values, for trace replay.

    Construction registers a trace's image tokens, then its prompt text tokens.
    """

    def __init__(self, num_layers: int, num_image: int, num_text: int,
                 eviction_allowed: bool = False):
        super().__init__(num_layers, eviction_allowed)
        for token_type, count in ((TokenType.IMAGE, num_image), (TokenType.TEXT, num_text)):
            for _ in range(count):
                self.register_token(token_type)


def replay(trace_file: TraceFile, policy, collect_oracle: bool = False):
    """Drive a policy with recorded head-averaged weights instead of live queries.

    Produces the same StepRecords as a live run; there are no attention
    outputs because a trace carries no values. Gathered or evicted contexts
    use the recorded scores restricted to the kept set and renormalized.
    When ``collect_oracle`` is set, each record carries per-layer recall of
    its kept image set against the full recorded weights.
    """
    tf = trace_file
    steps = tf.steps
    if steps != list(range(1, len(steps) + 1)):
        raise ValueError("replay requires contiguous steps starting at 1")
    warmup = getattr(getattr(policy, "config", None), "warmup_steps", 0)
    if policy.name == "fastocr" and len(steps) < warmup:
        raise ValueError("insufficient warmup data")
    cache = LogicalCache(tf.num_layers, tf.num_image_tokens, tf.num_text_tokens,
                         eviction_allowed=policy.requires_eviction)
    records = []
    for t in steps:
        if tf.source == "toy-model":
            cache.register_token(TokenType.TEXT)

        def attend_layer(layer, kept, _t=t):
            w = tf.records[(_t, layer)]
            covered = cache.live_positions(layer) if kept is None else np.asarray(
                kept, dtype=np.int64)
            sub = w[covered]
            total = sub.sum()
            if total <= 0.0:
                raise ValueError(f"step {_t} layer {layer}: kept set carries no mass")
            return sub / total, covered

        record = policy.run_step(cache, attend_layer)
        if collect_oracle:
            from .metrics import covered_image_recall

            record.oracle_recall = [
                covered_image_recall(tf.records[(t, layer)], covered, cache, layer)
                for layer, covered in enumerate(record.kept)]
        records.append(record)
    return records
