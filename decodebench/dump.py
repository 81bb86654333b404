"""The worker's output format: per-step records and spans in one ``.npz``.

A command's output file holds a JSON metadata string under ``meta`` and, per
captured session ``i``, arrays under ``s<i>.<name>``. Positions a layer
attended over are stored as a length when they are the contiguous range
``0..n-1`` and explicitly otherwise, which keeps full-attention layers
small. Spans are stored as parallel arrays (name id, parent index, start,
end, count); ``meta["span_names"]`` maps ids to names.
"""

from __future__ import annotations

import json

import numpy as np


def encode_records(records, prefix: str) -> dict:
    """Arrays for a list of fastocr StepRecords (one session)."""
    steps, layers = len(records), len(records[0].modes)
    modes = np.zeros((steps, layers), dtype=np.int8)  # 1 = gathered
    ctx = np.zeros((steps, layers), dtype=np.int64)
    exp_start = np.full((steps, layers), -1, dtype=np.int64)
    focal_start = np.full((steps, layers), -1, dtype=np.int64)
    focal_len = np.zeros((steps, layers), dtype=np.int64)
    ratios = np.array([r.ratios for r in records], dtype=np.float64)
    flat, fflat = [], []
    n_flat = n_fflat = 0
    for s, rec in enumerate(records):
        for layer, (mode, covered) in enumerate(zip(rec.modes, rec.kept)):
            covered = np.asarray(covered, dtype=np.int64)
            modes[s, layer] = mode == "gathered"
            ctx[s, layer] = covered.size
            if not np.array_equal(covered, np.arange(covered.size)):
                exp_start[s, layer] = n_flat
                flat.append(covered)
                n_flat += covered.size
        for layer, sel in rec.focal_tokens.items():
            sel = np.asarray(sel, dtype=np.int64)
            focal_start[s, layer] = n_fflat
            focal_len[s, layer] = sel.size
            fflat.append(sel)
            n_fflat += sel.size
    empty = np.empty(0, dtype=np.int64)
    return {
        f"{prefix}.modes": modes, f"{prefix}.ctx": ctx, f"{prefix}.ratios": ratios,
        f"{prefix}.exp_start": exp_start,
        f"{prefix}.exp_flat": np.concatenate(flat) if flat else empty,
        f"{prefix}.focal_start": focal_start, f"{prefix}.focal_len": focal_len,
        f"{prefix}.focal_flat": np.concatenate(fflat) if fflat else empty,
    }


class StepTable:
    """Decoded records of one session; steps are 1-based as in fastocr."""

    def __init__(self, arrays: dict, prefix: str):
        get = lambda k: arrays[f"{prefix}.{k}"]
        self.modes = get("modes")
        self.ctx = get("ctx")
        self.ratios = get("ratios")
        self._exp_start = get("exp_start")
        self._exp_flat = get("exp_flat")
        self._focal_start = get("focal_start")
        self._focal_len = get("focal_len")
        self._focal_flat = get("focal_flat")

    @property
    def steps(self) -> int:
        return self.modes.shape[0]

    @property
    def layers(self) -> int:
        return self.modes.shape[1]

    def gathered(self, t: int, layer: int) -> bool:
        return bool(self.modes[t - 1, layer])

    def covered(self, t: int, layer: int) -> np.ndarray:
        """Ascending positions the layer attended over at step t."""
        n = int(self.ctx[t - 1, layer])
        start = int(self._exp_start[t - 1, layer])
        if start < 0:
            return np.arange(n, dtype=np.int64)
        return self._exp_flat[start:start + n]

    def focal(self, t: int, layer: int):
        """Image positions a focal layer selected at step t, or None."""
        start = int(self._focal_start[t - 1, layer])
        if start < 0:
            return None
        return self._focal_flat[start:start + int(self._focal_len[t - 1, layer])]


def save(path: str, meta: dict, arrays: dict):
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load(path: str):
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(str(arrays.pop("meta"))), arrays
