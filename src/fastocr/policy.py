"""Dynamic visual fixation policy: warmup profiling, focal-layer selection,
cross-layer propagation of focal tokens, and cross-step fixation reuse.

The policy is driven one layer at a time through an ``attend_layer`` callback
so the same state machine serves both live toy-model decoding and trace
replay. The callback contract:

    attend_layer(layer, kept) -> (head_avg, covered_positions)

where ``kept is None`` requests full attention over the live context and an
ascending position array requests gathered attention over exactly that set.
``head_avg[i]`` is the weight on absolute position ``covered_positions[i]``.
The callback may mutate driver state (append KV, advance the residual
stream), so the policy invokes it exactly once per layer per step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import StepRecord

log = logging.getLogger("fastocr")

# floor/ceil guards: products like 0.1*36 carry one-ulp noise that must not
# move a budget across an integer boundary
_EPS = 1e-9


class InvariantViolation(RuntimeError):
    """An internal run invariant failed; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class FixationConfig:
    """(rho, g, kappa, W) hyperparameters of one decode session.

    force_focal_layers is a diagnostic override: when set, layer selection is
    skipped and the given set is frozen as-is (budget and gap checks do not
    apply). Used for identity configurations in equivalence tests.
    """

    focal_layer_ratio: float = 0.1
    focal_gap: int = 1
    kept_token_ratio: float = 0.05
    warmup_steps: int = 10
    force_focal_layers: tuple | None = None

    def __post_init__(self):
        if not 0.0 <= self.focal_layer_ratio <= 1.0:
            raise ValueError("focal_layer_ratio must be in [0, 1]")
        if not 0.0 <= self.kept_token_ratio <= 1.0:
            raise ValueError("kept_token_ratio must be in [0, 1]")
        if self.focal_gap < 0:
            raise ValueError("focal_gap must be >= 0")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class WarmupStats:
    """Per-layer image-attention ratios recorded during the warmup steps."""

    ratios: list  # ratios[layer] -> list of per-step values

    @classmethod
    def empty(cls, num_layers: int) -> "WarmupStats":
        return cls(ratios=[[] for _ in range(num_layers)])

    def mean_ratios(self) -> np.ndarray:
        return np.array([float(np.mean(r)) if r else 0.0 for r in self.ratios])


@dataclass
class FocalSet:
    layers: tuple
    frozen: bool = True

    def __contains__(self, layer: int) -> bool:
        return layer in self.layers


@dataclass
class FocalTokens:
    positions: np.ndarray  # ascending image-token cache positions
    source_layer: int
    step: int


class Phase(Enum):
    WARMUP = "warmup"
    STEADY = "steady"


@dataclass
class PolicyState:
    config: FixationConfig
    num_layers: int
    warmup: WarmupStats
    focal_set: FocalSet | None = None
    f_last: FocalTokens | None = None
    step: int = 0  # last completed decode step (1-based)

    @property
    def phase(self) -> Phase:
        # the step currently being executed is self.step + 1
        return Phase.WARMUP if self.step < self.config.warmup_steps else Phase.STEADY


# -- pure operations -----------------------------------------------------------


def ratio_over_covered(head_avg, covered, image_positions) -> float:
    """Fraction of attention mass on image tokens among image + text mass.

    head_avg[i] weights absolute position covered[i]; every covered position
    that is not an image position counts as text.
    """
    covered = np.asarray(covered, dtype=np.int64)
    img_mask = np.isin(covered, image_positions, assume_unique=True)
    w = np.asarray(head_avg, dtype=np.float64)
    img_mass, txt_mass = w[img_mask].sum(), w[~img_mask].sum()
    denom = img_mass + txt_mass
    if denom == 0.0:
        raise ValueError("degenerate attention: zero mass on image and text positions")
    return float(img_mass / denom)


def record_warmup(state: PolicyState, layer: int, ratio: float):
    if state.phase is not Phase.WARMUP:
        raise RuntimeError("record_warmup called outside the warmup phase")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio outside [0, 1]: {ratio}")
    state.warmup.ratios[layer].append(float(ratio))


def focal_budget(rho: float, num_layers: int) -> int:
    budget = math.floor(rho * num_layers + _EPS)
    if budget == 0 and rho > 0.0:
        raise ValueError("focal budget rounds to zero")
    return budget


def select_focal_layers(mean_ratios, rho: float, gap: int, num_layers: int) -> FocalSet:
    """Greedy selection in descending mean-ratio order under the gap constraint.

    Ties break toward the lower layer index. A candidate is skipped when it
    lies within ``gap`` layers of an already selected one (distance strictly
    greater than ``gap`` is required); the check over an empty selection
    passes. rho=0 is the explicit no-focal-layers configuration.
    """
    mean_ratios = np.asarray(mean_ratios, dtype=np.float64)
    if mean_ratios.shape != (num_layers,):
        raise ValueError("mean_ratios length must equal num_layers")
    if rho == 0.0:
        return FocalSet(layers=())
    budget = focal_budget(rho, num_layers)
    order = sorted(range(num_layers), key=lambda i: (-mean_ratios[i], i))
    chosen: list = []
    for i in order:
        if len(chosen) >= budget:
            break
        if all(abs(i - j) > gap for j in chosen):
            chosen.append(i)
    return FocalSet(layers=tuple(sorted(chosen)))


def kept_token_count(kappa: float, n_img: int) -> int:
    """ceil(kappa * N_img), capped at N_img."""
    return min(math.ceil(kappa * n_img - _EPS), n_img) if n_img > 0 else 0


def select_focal_tokens(head_avg, image_positions, kappa: float, *, source_layer: int,
                        step: int) -> FocalTokens:
    """Top ceil(kappa*N) image positions by head-averaged weight.

    Ties break toward the lower position index. head_avg must cover all live
    positions by absolute index (i.e. come from a full-attention pass with no
    evictions, which holds for every fixation-policy cache).
    """
    w = np.asarray(head_avg, dtype=np.float64)
    img = np.asarray(list(image_positions), dtype=np.int64)
    k = kept_token_count(kappa, img.size)
    if k == 0:
        return FocalTokens(positions=np.empty(0, dtype=np.int64), source_layer=source_layer,
                           step=step)
    # lexsort: primary descending weight, secondary ascending position
    order = np.lexsort((img, -w[img]))
    top = img[order[:k]]
    top.sort()
    return FocalTokens(positions=top, source_layer=source_layer, step=step)


@dataclass
class Layer0Init:
    """Outcome of the cross-step-reuse decision for layer 0."""

    kept: np.ndarray | None  # None when layer 0 is focal
    fallback: FocalTokens | None  # set when the full-pass fallback ran
    head_avg: np.ndarray | None = None  # fallback full-attention weights
    covered: np.ndarray | None = None


def init_step_kept_set(state: PolicyState, cache, layer0_attend) -> Layer0Init:
    """Layer-0 kept set at the start of a steady step.

    Reuses the previous step's carried fixation when available; otherwise
    falls back to one full layer-0 attention pass via ``layer0_attend()``
    (the only situation in which the callback is invoked). When layer 0 is
    itself focal there is nothing to initialize.
    """
    if state.focal_set is not None and 0 in state.focal_set:
        return Layer0Init(kept=None, fallback=None)
    text_pos = cache.text_positions(0)
    if state.f_last is not None:
        kept = np.union1d(text_pos, state.f_last.positions).astype(np.int64)
        return Layer0Init(kept=kept, fallback=None)
    head_avg, covered = layer0_attend()
    tokens = select_focal_tokens(head_avg, cache.image_positions(0),
                                 state.config.kept_token_ratio,
                                 source_layer=0, step=state.step + 1)
    kept = np.union1d(text_pos, tokens.positions).astype(np.int64)
    return Layer0Init(kept=kept, fallback=tokens, head_avg=head_avg, covered=covered)


# -- policy drivers --------------------------------------------------------------


def full_attention_step(step: int, cache, attend_layer, num_layers: int,
                        after_layer=None) -> StepRecord:
    """One decode step with full attention at every layer.

    ``after_layer(layer, head_avg, covered, ratio)``, when given, runs after
    each layer's attention and ratio, before the next layer attends; the
    policies that share this loop differ only in that hook.
    """
    kept, ratios = [], []
    for layer in range(num_layers):
        head_avg, covered = attend_layer(layer, None)
        r = ratio_over_covered(head_avg, covered, cache.image_positions(layer))
        if after_layer is not None:
            after_layer(layer, head_avg, covered, r)
        kept.append(covered)
        ratios.append(r)
    return StepRecord(step=step, modes=["full"] * num_layers, kept=kept, ratios=ratios)


class VanillaPolicy:
    """Unpruned reference: full attention at every layer, append-only cache."""

    name = "vanilla"
    requires_eviction = False

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.step = 0

    def run_step(self, cache, attend_layer) -> StepRecord:
        self.step += 1
        return full_attention_step(self.step, cache, attend_layer, self.num_layers)


class FixationPolicy:
    """Per-session state machine for the fixation policy.

    Steps 1..W run full attention everywhere and record per-layer image
    ratios. The focal set is frozen from the warmup means at the entry of the
    first post-warmup step (step W itself never prunes). Steady steps follow
    the focal/non-focal branch structure with cross-step fixation reuse at
    layer 0.
    """

    name = "fastocr"
    requires_eviction = False

    def __init__(self, config: FixationConfig, num_layers: int):
        self.config = config
        self.num_layers = num_layers
        self.state = PolicyState(config=config, num_layers=num_layers,
                                 warmup=WarmupStats.empty(num_layers))
        if config.force_focal_layers is not None:
            forced = tuple(sorted(int(l) for l in config.force_focal_layers))
            if any(not 0 <= l < num_layers for l in forced):
                raise ValueError("forced focal layer out of range")
            self.state.focal_set = FocalSet(layers=forced)

    @property
    def focal_set(self) -> FocalSet | None:
        return self.state.focal_set

    def _finalize_focal_set(self):
        if self.state.focal_set is not None:
            return
        cfg = self.config
        if cfg.warmup_steps == 0:
            log.warning("warmup_steps=0: focal layers selected without decode statistics")
        mean = self.state.warmup.mean_ratios()
        self.state.focal_set = select_focal_layers(mean, cfg.focal_layer_ratio,
                                                   cfg.focal_gap, self.num_layers)

    def run_step(self, cache, attend_layer) -> StepRecord:
        state = self.state
        t = state.step + 1
        if state.phase is Phase.WARMUP:
            record = full_attention_step(
                t, cache, attend_layer, self.num_layers,
                lambda layer, _head_avg, _covered, r: record_warmup(state, layer, r))
        else:
            self._finalize_focal_set()
            record = self._run_steady_step(cache, attend_layer, t)
        state.step = t
        return record

    def _run_steady_step(self, cache, attend_layer, t: int) -> StepRecord:
        state = self.state
        cfg = self.config
        focal = state.focal_set
        kappa = cfg.kept_token_ratio
        text_pos = cache.text_positions(0)
        image_pos = cache.image_positions(0)

        modes, kept_sets, ratios = [], [], []
        focal_tokens: dict = {}
        current_focal: FocalTokens | None = None
        deepest_focal = max(focal.layers) if focal.layers else None

        kept = None
        start_layer = 0
        if 0 not in focal:
            init = init_step_kept_set(state, cache, lambda: attend_layer(0, None))
            kept = init.kept
            if init.fallback is not None:
                # fallback ran layer 0 in full; record it and move on
                modes.append("full")
                kept_sets.append(init.covered)
                ratios.append(ratio_over_covered(init.head_avg, init.covered, image_pos))
                if not focal.layers:
                    # no focal layer will ever refresh the fixation; freeze it
                    state.f_last = init.fallback
            else:
                head_avg, covered = attend_layer(0, kept)
                modes.append("gathered")
                kept_sets.append(covered)
                ratios.append(ratio_over_covered(head_avg, covered, image_pos))
            start_layer = 1

        for layer in range(start_layer, self.num_layers):
            if layer in focal:
                head_avg, covered = attend_layer(layer, None)
                tokens = select_focal_tokens(head_avg, image_pos, kappa,
                                             source_layer=layer, step=t)
                focal_tokens[layer] = tokens.positions
                kept = np.union1d(text_pos, tokens.positions).astype(np.int64)
                if layer == deepest_focal:
                    current_focal = tokens
                modes.append("full")
                kept_sets.append(covered)
                ratios.append(ratio_over_covered(head_avg, covered, image_pos))
            else:
                if kept is None:
                    raise InvariantViolation("kept set missing at a non-focal layer")
                head_avg, covered = attend_layer(layer, kept)
                modes.append("gathered")
                kept_sets.append(covered)
                ratios.append(ratio_over_covered(head_avg, covered, image_pos))

        if current_focal is not None:
            state.f_last = current_focal

        self._check_step_invariants(modes, kept_sets, text_pos, kappa, cache.n_img)
        return StepRecord(step=t, modes=modes, kept=kept_sets, ratios=ratios,
                          focal_tokens=focal_tokens,
                          f_last=None if state.f_last is None else state.f_last.positions.copy())

    def _check_step_invariants(self, modes, kept_sets, text_pos, kappa, n_img):
        expect = kept_token_count(kappa, n_img)
        saw_focal = False
        for mode, covered in zip(modes, kept_sets):
            if mode == "full":
                saw_focal = True
                continue
            if not saw_focal:
                continue  # layer-0 inherited set predates this step's refresh
            if not np.isin(text_pos, covered).all():
                raise InvariantViolation("kept set dropped a text token")
            if covered.size - text_pos.size != expect:
                raise InvariantViolation("kept set image count != ceil(kappa * N_img)")
