"""Policy-quality and agreement metrics over generated sequences and step records.

Sequence-agreement numbers are desk-scale proxies: they measure how closely a
pruned policy tracks the unpruned decoder on the toy model, not any benchmark
accuracy. Reports label them as such.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

SCOPE_NOTE = (
    "Desk-scale simulation. OCR benchmark accuracy, GPU latency, and "
    "real-model focal-layer distributions are not reproducible here; "
    "sequence/attention metrics are proxies measured on a seeded toy decoder "
    "and planted traces."
)


@dataclass
class StepRecord:
    """Observability snapshot of one decode step across all layers."""

    step: int
    modes: list  # per layer: "full" | "gathered"
    kept: list  # per layer: ascending positions the layer attended over
    ratios: list  # per layer: image-attention ratio of the step's query
    focal_tokens: dict = field(default_factory=dict)  # layer -> selected image positions
    f_last: np.ndarray | None = None  # carried fixation after this step
    oracle_recall: list | None = None  # per layer, instrumented runs only


# -- sequence metrics ---------------------------------------------------------


def prefix_agreement(seq_a, seq_b) -> float:
    """Longest common prefix length over max length; two empties agree fully."""
    la, lb = len(seq_a), len(seq_b)
    if la == 0 and lb == 0:
        return 1.0
    n = 0
    for a, b in zip(seq_a, seq_b):
        if a != b:
            break
        n += 1
    return n / max(la, lb)


def token_match_rate(seq_a, seq_b) -> float:
    """Positionwise equality count over min length, divided by max length."""
    la, lb = len(seq_a), len(seq_b)
    if la == 0 and lb == 0:
        return 1.0
    matches = sum(1 for a, b in zip(seq_a, seq_b) if a == b)
    return matches / max(la, lb)


# -- attention metrics ----------------------------------------------------------


def attention_mass_recall(full_head_avg, kept_image_positions, image_positions) -> float:
    """Fraction of full-attention image mass captured by the kept image set."""
    w = np.asarray(full_head_avg, dtype=np.float64)
    img = np.asarray(list(image_positions), dtype=np.int64)
    kept = np.asarray(list(kept_image_positions), dtype=np.int64)
    total = w[img].sum() if img.size else 0.0
    if total == 0.0:
        return 1.0
    return float(w[kept].sum() / total) if kept.size else 0.0


def covered_image_recall(full_head_avg, covered, cache, layer: int) -> float:
    """Recall of the image positions in a step's covered set at one layer.

    The denominator is the cache's image positions at that layer, so a
    position evicted there counts in neither set.
    """
    img = cache.image_positions(layer)
    kept_img = covered[np.isin(covered, img, assume_unique=True)]
    return attention_mass_recall(full_head_avg, kept_img, img)


def kept_set_jaccard(set_a, set_b) -> float:
    a, b = set(int(x) for x in set_a), set(int(x) for x in set_b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def focal_layer_frequency(focal_sets, num_layers: int):
    """Per-layer selection frequency over runs, selection counts, and mean |C|.

    focal_sets: iterable of iterables of selected layer indices, one per run.
    """
    sets = [set(int(l) for l in s) for s in focal_sets]
    if not sets:
        raise ValueError("focal_layer_frequency requires at least one run")
    counts = [0] * num_layers
    for s in sets:
        for l in s:
            counts[l] += 1
    n = len(sets)
    freq = [c / n for c in counts]
    mean_size = sum(len(s) for s in sets) / n
    return freq, counts, mean_size


# -- report emission -----------------------------------------------------------


def ratio_rows(records) -> list:
    """(step, layer, ratio) rows for the per-layer heatmap CSV."""
    rows = []
    for rec in records:
        for layer, r in enumerate(rec.ratios):
            rows.append((rec.step, layer, r))
    return rows


def atomic_write_text(path: str, text: str):
    """Write-temp-then-rename so partially written outputs never appear."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".fastocr-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_json(report: dict) -> str:
    """Deterministic JSON serialization (fixed field order, no timestamps)."""
    return json.dumps(report, indent=2, sort_keys=False, allow_nan=False) + "\n"


def emit_report(report: dict, fmt: str, path: str):
    if fmt == "json":
        validate_report(report)
        atomic_write_text(path, report_json(report))
    elif fmt == "csv":
        rows = report.get("ratio_rows")
        if rows is None:
            raise ValueError("csv emission requires ratio_rows")
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "layer", "ratio"])
        for step, layer, r in rows:
            writer.writerow([step, layer, f"{r:.17g}"])
        atomic_write_text(path, buf.getvalue())
    else:
        raise ValueError(f"unknown report format: {fmt}")


_REPORT_SECTIONS = ("meta", "sequence_metrics", "attention_metrics", "flops", "focal_layers")


def validate_report(report: dict):
    """Schema check for report JSON; raises ValueError with the offending field."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    for key in _REPORT_SECTIONS:
        if key not in report:
            raise ValueError(f"report missing section: {key}")
        if not isinstance(report[key], dict):
            raise ValueError(f"report section is not an object: {key}")
    meta = report["meta"]
    for key in ("policy", "seeds", "instrumented", "scope_note"):
        if key not in meta:
            raise ValueError(f"report meta missing field: {key}")
    if not isinstance(meta["seeds"], list) or not meta["seeds"]:
        raise ValueError("report meta.seeds must be a non-empty list")
    if not isinstance(meta["instrumented"], bool):
        raise ValueError("report meta.instrumented must be a boolean")
    _check_finite(report, "report")


def _check_finite(value, path: str):
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{path} is not a finite number: {value}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
