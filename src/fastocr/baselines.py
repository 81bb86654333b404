"""Physical-eviction comparison policies at matched budgets.

FastV here is a decode-time adaptation: the original prunes during prefill,
but this engine is decode-centric, so eviction fires once at the first decode
step using that step's layer-K attention and applies to layers >= K. H2O
retention runs after every decode step and is modality-agnostic (text tokens
can be evicted). Both adaptations are flagged in run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import StepRecord
from .policy import _EPS, full_attention_step


@dataclass(frozen=True)
class FastVConfig:
    prune_layer: int  # K
    prune_ratio: float  # R

    def __post_init__(self):
        if self.prune_layer < 0:
            raise ValueError("prune_layer must be >= 0")
        if not 0.0 <= self.prune_ratio <= 1.0:
            raise ValueError("prune_ratio must be in [0, 1]")


@dataclass(frozen=True)
class H2OConfig:
    retain_ratio: float  # R

    def __post_init__(self):
        if not 0.0 <= self.retain_ratio <= 1.0:
            raise ValueError("retain_ratio must be in [0, 1]")


class HeavyHitterState:
    """Accumulated head-averaged attention per live position.

    ``live`` mirrors the cache's live positions and must be refreshed by the
    owning policy before each update; dead positions lose their entries and
    never accumulate again.
    """

    def __init__(self):
        self._scores: dict = {}
        self.live: np.ndarray | None = None

    def set_live(self, positions):
        self.live = np.asarray(list(positions), dtype=np.int64)

    def accumulated(self, pos: int) -> float:
        return self._scores.get(int(pos), 0.0)

    def drop(self, positions):
        for p in positions:
            self._scores.pop(int(p), None)


def h2o_update(state: HeavyHitterState, head_avg):
    """Accumulate one head-averaged attention row onto the live positions."""
    head_avg = np.asarray(head_avg, dtype=np.float64)
    if state.live is None or head_avg.shape != state.live.shape:
        raise ValueError("length mismatch with live positions")
    for p, w in zip(state.live, head_avg):
        key = int(p)
        state._scores[key] = state._scores.get(key, 0.0) + float(w)


def h2o_retain(state: HeavyHitterState, retain_ratio: float, live_positions) -> np.ndarray:
    """Kept positions: top ceil(R*n) by accumulated score, union ceil(R*n) most recent.

    Ties in accumulated score break toward the lower position index.
    """
    live = np.asarray(list(live_positions), dtype=np.int64)
    n = live.size
    k = min(math.ceil(retain_ratio * n - _EPS), n) if n else 0
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    scores = np.array([state.accumulated(p) for p in live])
    order = np.lexsort((live, -scores))
    heavy = live[order[:k]]
    recent = live[-k:]
    return np.union1d(heavy, recent).astype(np.int64)


def fastv_evict(layer_k_head_avg, image_positions, prune_ratio: float) -> np.ndarray:
    """Image positions to evict: the floor(R*N_img) lowest by head-averaged weight.

    Ties evict the higher position index first. head_avg is indexed by
    absolute position, which holds at the first decode step (nothing has been
    evicted yet).
    """
    w = np.asarray(layer_k_head_avg, dtype=np.float64)
    img = np.asarray(list(image_positions), dtype=np.int64)
    k = math.floor(prune_ratio * img.size + _EPS)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    # ascending weight; ties broken by higher index first
    order = np.lexsort((-img, w[img]))
    out = img[order[:k]].copy()
    out.sort()
    return out


class FastVPolicy:
    """One-shot attention-guided eviction at layer K, applied to layers >= K."""

    name = "fastv"
    requires_eviction = True

    def __init__(self, config: FastVConfig, num_layers: int):
        if config.prune_layer >= num_layers:
            raise ValueError("prune_layer must be < num_layers")
        self.config = config
        self.num_layers = num_layers
        self.step = 0
        self.evicted = False

    def run_step(self, cache, attend_layer) -> StepRecord:
        self.step += 1
        k = self.config.prune_layer

        def evict_at_k(layer, head_avg, covered, ratio):
            if layer == k:
                doomed = fastv_evict(head_avg, cache.image_positions(layer),
                                     self.config.prune_ratio)
                if doomed.size:
                    cache.evict(doomed, layers=range(k, self.num_layers))
                self.evicted = True

        return full_attention_step(self.step, cache, attend_layer, self.num_layers,
                                   None if self.evicted else evict_at_k)


class H2OPolicy:
    """Heavy-hitter plus recency retention after every decode step."""

    name = "h2o"
    requires_eviction = True

    def __init__(self, config: H2OConfig, num_layers: int):
        self.config = config
        self.num_layers = num_layers
        self.state = HeavyHitterState()
        self.step = 0

    def _accumulate(self, layer, head_avg, covered, ratio):
        self.state.set_live(covered)
        h2o_update(self.state, head_avg)

    def run_step(self, cache, attend_layer) -> StepRecord:
        self.step += 1
        record = full_attention_step(self.step, cache, attend_layer, self.num_layers,
                                     self._accumulate)
        live = cache.live_positions(0)
        keep = h2o_retain(self.state, self.config.retain_ratio, live)
        doomed = np.setdiff1d(live, keep, assume_unique=True)
        if doomed.size:
            cache.evict(doomed)
            self.state.drop(doomed)
        return record
