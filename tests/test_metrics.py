import itertools
import json

import numpy as np
import pytest

from fastocr.metrics import (SCOPE_NOTE, attention_mass_recall, emit_report,
                             focal_layer_frequency, kept_set_jaccard, prefix_agreement,
                             ratio_rows, report_json, token_match_rate, validate_report)
from fastocr.policy import select_focal_tokens


def test_prefix_agreement_cases():
    assert prefix_agreement([1, 2, 3], [1, 2, 3]) == 1.0
    assert prefix_agreement([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
    assert prefix_agreement([9, 2], [1, 2]) == 0.0
    assert prefix_agreement([], []) == 1.0
    assert prefix_agreement([1, 2], [1, 2, 3, 4]) == 0.5


def test_token_match_rate_cases():
    assert token_match_rate([1] * 10, [1] * 10) == 1.0
    a = list(range(10))
    b = list(range(10))
    b[4] = 99
    assert token_match_rate(a, b) == pytest.approx(0.9)
    # shifted-by-one sequences barely match positionwise
    assert token_match_rate([1, 2, 3, 4], [0, 1, 2, 3]) == 0.0
    assert token_match_rate([], []) == 1.0


def test_prefix_not_bounded_by_match_rate():
    # the two metrics are not ordered: common prefix can beat positionwise count
    a, b = [1, 2, 9, 9], [1, 2, 0, 0]
    assert prefix_agreement(a, b) == 0.5
    assert token_match_rate(a, b) == 0.5
    c, d = [1, 0, 3, 4], [2, 0, 3, 4]
    assert prefix_agreement(c, d) == 0.0
    assert token_match_rate(c, d) == 0.75


def test_attention_mass_recall_cases():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    img = [0, 1, 2, 3]
    assert attention_mass_recall(w, img, img) == 1.0
    assert attention_mass_recall(w, [0, 1], img) == pytest.approx(0.7)
    assert attention_mass_recall(w, [], img) == 0.0
    assert attention_mass_recall(np.zeros(4), [1], img) == 1.0  # zero image mass


def test_top_k_selection_is_recall_optimal_small():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = rng.random(n + 2)
        img = np.arange(n)
        kappa = float(rng.choice([0.2, 0.5, 0.8]))
        ft = select_focal_tokens(w, img, kappa, source_layer=0, step=1)
        k = ft.positions.size
        got = attention_mass_recall(w, ft.positions, img)
        best = max(attention_mass_recall(w, list(c), img)
                   for c in itertools.combinations(img.tolist(), k))
        assert got == best


def test_kept_set_jaccard_cases():
    assert kept_set_jaccard({1, 2, 3}, {1, 2, 3}) == 1.0
    assert kept_set_jaccard({1, 2, 3}, {2, 3, 4}) == 0.5
    assert kept_set_jaccard({1}, {2}) == 0.0
    assert kept_set_jaccard(set(), set()) == 1.0


def test_focal_layer_frequency():
    freq, counts, mean_size = focal_layer_frequency([[5], [5], [5]], 8)
    assert freq[5] == 1.0 and counts[5] == 3
    assert mean_size == 1.0
    freq, counts, mean_size = focal_layer_frequency([[1, 3]], 4)
    assert freq == [0.0, 1.0, 0.0, 1.0]
    freq, counts, mean_size = focal_layer_frequency([[0, 2], [0]], 3)
    assert counts == [2, 0, 1]
    assert mean_size == 1.5
    with pytest.raises(ValueError):
        focal_layer_frequency([], 4)


def valid_report():
    return {
        "meta": {"policy": "vanilla", "seeds": [1], "instrumented": False,
                 "scope_note": SCOPE_NOTE},
        "sequence_metrics": {},
        "attention_metrics": {},
        "flops": {},
        "focal_layers": {},
    }


def test_report_round_trip(tmp_path):
    report = valid_report()
    path = tmp_path / "report.json"
    emit_report(report, "json", str(path))
    back = json.loads(path.read_text())
    assert back == report


def test_report_deterministic_bytes(tmp_path):
    report = valid_report()
    a = report_json(report)
    b = report_json(json.loads(a))
    assert a == b


def test_validator_rejects_fuzzed_reports():
    rng = np.random.default_rng(16)
    base = valid_report()
    validate_report(base)
    for _ in range(50):
        broken = json.loads(json.dumps(base))
        mutation = rng.integers(0, 4)
        if mutation == 0:
            broken.pop(rng.choice(list(broken)))
        elif mutation == 1:
            broken[str(rng.integers(100))] = "noise"
            broken.pop("meta")
        elif mutation == 2:
            broken["meta"].pop(rng.choice(list(broken["meta"])))
        else:
            broken["flops"] = "not an object"
        with pytest.raises(ValueError):
            validate_report(broken)


def test_validate_report_rejects_non_finite_numbers():
    base = {"meta": {"policy": "fastocr", "seeds": [0], "instrumented": True,
                     "scope_note": "x"},
            "sequence_metrics": {}, "attention_metrics": {"mean_recall": 0.5,
                                                          "mean_ratio_per_layer": [0.1, 0.2]},
            "flops": {}, "focal_layers": {}}
    validate_report(base)
    for path, bad in ((("attention_metrics", "mean_recall"), float("nan")),
                      (("attention_metrics", "mean_ratio_per_layer", 1), np.float64("inf")),
                      (("flops", "mean_per_step"), -np.inf)):
        broken = json.loads(json.dumps(base))
        *parents, leaf = path
        node = broken
        for key in parents:
            node = node[key]
        node[leaf] = bad
        with pytest.raises(ValueError, match="not a finite number"):
            validate_report(broken)
        with pytest.raises(ValueError):
            report_json(broken)


def test_csv_rows_cover_grid(tmp_path):
    from fastocr.metrics import StepRecord

    records = [StepRecord(step=t, modes=["full"] * 3, kept=[np.arange(4)] * 3,
                          ratios=[0.1 * t, 0.2, 0.3]) for t in (1, 2)]
    rows = ratio_rows(records)
    assert len(rows) == 6
    path = tmp_path / "ratios.csv"
    emit_report({"ratio_rows": rows}, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,layer,ratio"
    assert len(lines) == 7


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(valid_report(), "xml", "/tmp/x")
