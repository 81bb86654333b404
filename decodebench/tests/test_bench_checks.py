"""Each correctness check accepts the program's real outputs and rejects a
perturbed copy of them.

Run from the repository root: ``python -m pytest decodebench/tests``.
The outputs come from worker.py running small versions of the workloads.
"""

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import dump
from workloads import STEADY_FROM, WORKLOADS, planted_trace, write_trace_file

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def run_worker(w, argv, tmp, kind):
    out = tmp / "command.npz"
    job = {"argv": argv, "kind": kind, "trace": False, "hidden": w.hidden, "out": str(out)}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta, arrays = dump.load(str(out))
    return meta["sessions"][0], arrays


def run_live(w, tmp):
    seeds, prompt = w.command_inputs(7, 0)
    config = tmp / "run.cfg"
    config.write_text(w.config_text(seeds, prompt, str(tmp / "report.json")))
    meta, arrays = run_worker(w, ["run", str(config)], tmp, "live")
    return SimpleNamespace(w=w, meta=meta, arrays=arrays, seed=seeds[0], prompt=prompt)


@pytest.fixture(scope="module")
def fixation(tmp_path_factory):
    w = dataclasses.replace(WORKLOADS["page_fixation"], layers=8, hidden=64, image_tokens=64,
                            text_tokens=8, steps=30)
    return run_live(w, tmp_path_factory.mktemp("fixation"))


@pytest.fixture(scope="module")
def fastv(tmp_path_factory):
    w = dataclasses.replace(WORKLOADS["page_fastv"], layers=6, hidden=64, image_tokens=64,
                            text_tokens=8, steps=20)
    return run_live(w, tmp_path_factory.mktemp("fastv"))


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    w = dataclasses.replace(WORKLOADS["trace_replay"], layers=12, image_tokens=64,
                            text_tokens=8, steps=16, rho=0.25)
    trace = planted_trace(w, 3)
    write_trace_file(w, trace, str(tmp / "trace.txt"))
    report = tmp / "report.json"
    meta, arrays = run_worker(w, w.replay_args(str(tmp / "trace.txt"), str(report)), tmp,
                              "replay")
    return SimpleNamespace(w=w, trace=trace, meta=meta, arrays=arrays,
                           report=json.loads(report.read_text()))


def live_errors(run, meta=None, arrays=None):
    meta = run.meta if meta is None else meta
    arrays = run.arrays if arrays is None else arrays
    return checks.check_live(run.w, meta, dump.StepTable(arrays, "s0"), arrays["s0.tokens"],
                             arrays["s0.logits"], run.seed, run.prompt)


def replay_errors(run, meta=None, arrays=None, report=None):
    return checks.check_replay(run.w, run.trace, run.meta if meta is None else meta,
                               dump.StepTable(run.arrays if arrays is None else arrays, "s0"),
                               run.report if report is None else report)


def edit_records(arrays, edit):
    """Arrays re-encoded after edit(records) changed the decoded records."""
    table = dump.StepTable(arrays, "s0")
    records = []
    for t in range(1, table.steps + 1):
        layers = range(table.layers)
        records.append(SimpleNamespace(
            modes=["gathered" if table.gathered(t, l) else "full" for l in layers],
            kept=[table.covered(t, l).copy() for l in layers],
            ratios=list(table.ratios[t - 1]),
            focal_tokens={l: table.focal(t, l).copy() for l in layers
                          if table.focal(t, l) is not None}))
    edit(records)
    return {**arrays, **dump.encode_records(records, "s0")}


def test_real_outputs_pass(fixation, fastv, replay):
    assert live_errors(fixation) == []
    assert live_errors(fastv) == []
    assert replay_errors(replay) == []


def test_logit_off_by_1e_minus_6_fails(fixation):
    logits = fixation.arrays["s0.logits"].copy()
    logits[STEADY_FROM + 5, 3] += 1e-6
    errors = live_errors(fixation, arrays={**fixation.arrays, "s0.logits": logits})
    assert any("logits differ" in e for e in errors), errors


def _first_gathered_layer(records, t):
    return next(l for l, m in enumerate(records[t - 1].modes) if m == "gathered")


def test_kept_set_missing_one_position_fails(fixation):
    t = STEADY_FROM + 3

    def drop(records):
        layer = _first_gathered_layer(records, t)
        kept = records[t - 1].kept[layer]
        records[t - 1].kept[layer] = kept[kept != kept[0]]

    errors = live_errors(fixation, arrays=edit_records(fixation.arrays, drop))
    assert any("kept set" in e for e in errors), errors


def test_focal_selection_missing_one_position_fails(fixation):
    t = STEADY_FROM + 3
    layer = fixation.meta["focal_layers"][0]

    def drop(records):
        records[t - 1].focal_tokens[layer] = records[t - 1].focal_tokens[layer][1:]

    errors = live_errors(fixation, arrays=edit_records(fixation.arrays, drop))
    assert any("selection" in e for e in errors), errors


def test_wrong_focal_layer_fails(fixation, replay):
    focal = fixation.meta["focal_layers"]
    moved = [focal[0] + 1 if focal[0] + 1 not in focal else focal[0] - 1] + focal[1:]
    assert live_errors(fixation, meta={**fixation.meta, "focal_layers": sorted(moved)})

    report = json.loads(json.dumps(replay.report))
    planted = report["focal_layers"]["per_seed"]["trace"]
    report["focal_layers"]["per_seed"]["trace"] = [planted[0] + 1] + planted[1:]
    errors = replay_errors(replay, report=report)
    assert any("focal layers" in e for e in errors), errors


def test_shrunk_cache_fails(fixation):
    meta = {**fixation.meta, "cache_len": fixation.meta["cache_len"] - 1}
    assert any("cache length" in e for e in live_errors(fixation, meta=meta))

    def shrink(records):
        focal = fixation.meta["focal_layers"][0]
        records[-1].kept[focal] = records[-1].kept[focal][:-1]

    errors = live_errors(fixation, arrays=edit_records(fixation.arrays, shrink))
    assert any("full attention over" in e for e in errors), errors


def test_unreachable_position_fails(fixation):
    meta = {**fixation.meta, "unreachable": [1] + fixation.meta["unreachable"][1:]}
    assert any("unreachable" in e for e in live_errors(fixation, meta=meta))


def test_wrong_eviction_fails(fastv):
    evicted = fastv.meta["evicted"]
    spared = sorted(set(range(fastv.w.image_tokens)) - set(evicted))
    meta = {**fastv.meta, "evicted": sorted(evicted[1:] + spared[-1:])}
    errors = live_errors(fastv, meta=meta)
    assert errors, "a swapped eviction passed"


def test_replay_ratio_and_recall_perturbations_fail(replay):
    ratios = replay.arrays["s0.ratios"].copy()
    ratios[2, 1] += 1e-9
    errors = replay_errors(replay, arrays={**replay.arrays, "s0.ratios": ratios})
    assert any("image-mass ratio" in e for e in errors), errors

    report = json.loads(json.dumps(replay.report))
    report["attention_metrics"]["mean_recall"] += 1e-9
    errors = replay_errors(replay, report=report)
    assert any("mean recall" in e for e in errors), errors


def test_fixation_replay_recall_matches_planted_window():
    # a trace whose focal layers put all image mass on one position: the
    # method keeps that position, so every layer recalls all image mass
    from reference import fixation_replay_recall

    weights = np.zeros((14, 4, 10))
    weights[:, :, 3] = 0.5
    weights[:, :, 8:] = 0.25
    assert fixation_replay_recall(weights, 8, (1, 3), "0.125", 10) == 1.0
