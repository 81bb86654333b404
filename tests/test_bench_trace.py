"""The benchmark's traced run (``decodebench/worker.py`` with ``"trace": true``).

The recorder wraps fastocr's functions by name, so a renamed or inlined
function breaks only the traced run. Each case runs the worker as a
subprocess on a tiny command and checks that it succeeds and that spans of
the wrapped module functions were recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fastocr.tracelab import PlantedConfig, generate_trace, planted_trace_file, write_trace

ROOT = Path(__file__).resolve().parents[1]


def run_traced_worker(tmp_path, argv, kind, hidden):
    out = tmp_path / "command.npz"
    job = {"argv": argv, "kind": kind, "trace": True, "hidden": hidden, "out": str(out)}
    proc = subprocess.run([sys.executable, str(ROOT / "decodebench" / "worker.py"),
                           json.dumps(job)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with np.load(out, allow_pickle=False) as z:
        return json.loads(str(z["meta"]))


def test_traced_live_fastv_run(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"""
model.layers = 6
model.hidden = 32
model.heads = 4
model.vocab = 64
workload.kind = toy
workload.image_tokens = 32
workload.text_tokens = 4
policy.name = fastv
policy.fastv_layer = 2
policy.fastv_ratio = 0.5
run.steps = 14
run.seeds = 1
output.report = {tmp_path / 'report.json'}
""")
    meta = run_traced_worker(tmp_path, ["run", str(config)], "live", 32)
    assert meta["rc"] == 0
    for name in ("policy.run_step", "policy.ratio", "baselines.fastv_evict",
                 "model.init_model", "kvstore.evict", "cli.report"):
        assert name in meta["span_names"], name


def test_traced_fastocr_replay(tmp_path):
    trace = tmp_path / "trace.txt"
    write_trace(planted_trace_file(generate_trace(PlantedConfig(
        num_layers=12, num_image_tokens=48, num_text_tokens=4, focal_like_layers=(1, 4, 8),
        num_steps=14, seed=2, drift=1.0))), str(trace))
    argv = ["replay", "--trace", str(trace), "--policy", "fastocr", "--rho", "0.25",
            "--kappa", "0.1", "--report", str(tmp_path / "report.json")]
    meta = run_traced_worker(tmp_path, argv, "replay", 2048)
    assert meta["rc"] == 0
    assert meta["sessions"][0]["focal_layers"] == [1, 4, 8]
    for name in ("tracelab.read_trace", "tracelab.replay", "policy.run_step",
                 "policy.ratio", "policy.select", "cli.report"):
        assert name in meta["span_names"], name
