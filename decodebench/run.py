#!/usr/bin/env python3
"""Decode benchmark: runs one workload and prints its metrics as JSON.

    python3 decodebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing but ``src/`` and numpy.
It makes the workload's inputs from the seed, then runs rounds, one fresh
``fastocr`` command process each (worker.py), while a round of typical
length still ends within S seconds, and until enough steady steps were
measured. It checks every output against the
independent computations of checks.py, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics,
from a run in which every module's public functions are wrapped in spans.
Attempted counts sessions (documents decoded or traces replayed). The exit
code is 0 only when every check passed and no command failed.

Outputs go to ``decodebench/out/<workload>/``: the generated configs and
trace, each command's report and ``.npz`` (records and spans, see dump.py),
and ``result-trace<0|1>.json`` with every metric computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import dump
from recorder import Spans
from workloads import STEADY_FROM, WARMUP, WORKLOADS, planted_trace, write_trace_file

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 120
MIN_STEADY_SAMPLES = 100  # so that ten lie beyond the 90th percentile
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Command:
    """One round: a fastocr command in its own process, and what it left."""

    def __init__(self, index, t_launch, returncode, out_path, report_path, inputs):
        self.index = index
        self.t_launch = t_launch
        self.report_path = report_path
        self.inputs = inputs
        self.meta, self.arrays, self.spans = None, None, None
        if returncode == 0 and os.path.exists(out_path):
            self.meta, self.arrays = dump.load(out_path)
            self.spans = Spans(self.meta["span_names"], self.arrays)

    @property
    def ok(self) -> bool:
        return self.meta is not None


def run_commands(w, args, out_dir, env):
    trace = None
    if w.kind == "replay":
        trace = planted_trace(w, args.seed)
        write_trace_file(w, trace, os.path.join(out_dir, "trace.txt"))
    steady_per_command = (w.steps - STEADY_FROM + 1) * w.sessions_per_command
    min_commands = math.ceil(MIN_STEADY_SAMPLES / steady_per_command)
    commands, durations = [], []
    t_begin = time.perf_counter()
    while len(commands) < min_commands or (
            time.perf_counter() - t_begin + statistics.median(durations) <= args.seconds):
        r = len(commands)
        report = os.path.join(out_dir, f"report-{r}.json")
        if w.kind == "replay":
            argv, inputs = w.replay_args(os.path.join(out_dir, "trace.txt"), report), None
        else:
            seeds, prompt = w.command_inputs(args.seed, r)
            config = os.path.join(out_dir, f"config-{r}.cfg")
            with open(config, "w") as f:
                f.write(w.config_text(seeds, prompt, report))
            argv, inputs = ["run", config], (seeds, prompt)
        out = os.path.join(out_dir, f"command-{r}.npz")
        job = {"argv": argv, "kind": w.kind, "trace": bool(args.trace), "hidden": w.hidden,
               "out": out}
        t_launch = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            returncode, stderr = None, f"timed out after {COMMAND_TIMEOUT_S} s"
        durations.append(time.perf_counter() - t_launch)
        cmd = Command(r, t_launch, returncode, out, report, inputs)
        if not cmd.ok:
            print(f"command {r} failed (exit {returncode}):\n{stderr[-2000:]}", file=sys.stderr)
        commands.append(cmd)
    return commands, trace


def verify(w, commands, trace) -> list:
    errors = []
    for cmd in commands:
        if not cmd.ok:
            continue
        sessions = cmd.meta["sessions"]
        if len(sessions) != w.sessions_per_command:
            errors.append(f"command {cmd.index}: {len(sessions)} sessions, "
                          f"expected {w.sessions_per_command}")
            continue
        for i, meta in enumerate(sessions):
            table = dump.StepTable(cmd.arrays, f"s{i}")
            if w.kind == "replay":
                with open(cmd.report_path) as f:
                    report = json.load(f)
                errs = checks.check_replay(w, trace, meta, table, report)
            else:
                seeds, prompt = cmd.inputs
                errs = checks.check_live(w, meta, table, cmd.arrays[f"s{i}.tokens"],
                                         cmd.arrays[f"s{i}.logits"], seeds[i], prompt)
            errors += [f"command {cmd.index} session {i}: {e}" for e in errs]
    return errors


def step_durations(w, sp: Spans):
    """Per session, the wall time of each decode step (index 0 is step 1)."""
    if w.kind == "live":
        steps = np.nonzero(sp.mask("model.decode_step"))[0]
        prefills = np.sort(sp.start[sp.mask("model.prefill")])
        session = np.searchsorted(prefills, sp.start[steps]) - 1
        return [sp.dur[steps[session == s]] for s in range(prefills.size)]
    # a replay step runs from its policy step to the next one; the replay
    # loop's oracle pass after each policy step belongs to that step
    out = []
    run_steps = sp.start[sp.mask("policy.run_step")]
    for i in np.nonzero(sp.mask("tracelab.replay"))[0]:
        starts = np.sort(run_steps[(run_steps >= sp.start[i]) & (run_steps <= sp.end[i])])
        out.append(np.diff(np.append(starts, sp.end[i])))
    return out


def end_to_end(w, commands) -> dict:
    ingest_name = "model.prefill" if w.kind == "live" else "tracelab.read_trace"
    setup, wall, rss, ingest = [], [], [], []
    warm, steady, every = [], [], []
    for cmd in commands:
        sp = cmd.spans
        ing = sp.mask(ingest_name)
        setup.append(sp.start[ing].min() - cmd.t_launch)
        wall.append(cmd.meta["t_end"] - cmd.t_launch)
        rss.append(cmd.meta["peak_rss_kb"] / 1024.0)
        ingest += sp.dur[ing].tolist()
        for d in step_durations(w, sp):
            warm += d[:WARMUP].tolist()
            steady += d[STEADY_FROM - 1:].tolist()
            every += d.tolist()
    if len(steady) < MIN_STEADY_SAMPLES:
        raise RuntimeError(f"only {len(steady)} steady samples")
    return {
        "setup_s": statistics.median(setup),
        "ingest_s": statistics.median(ingest),
        "warmup_step_ms": 1e3 * statistics.median(warm),
        "steady_step_ms": 1e3 * statistics.median(steady),
        "steady_step_ms_p90": 1e3 * float(np.percentile(steady, 90)),
        "decode_steps_per_s": len(every) / sum(every),
        "wall_s": statistics.median(wall),
        "peak_rss_mb": statistics.median(rss),
        "steady_samples": len(steady),
    }


def per_layer(w, commands) -> dict:
    """Per-layer metrics from the spans of a traced run (see README.md)."""
    step_root = "model.decode_step" if w.kind == "live" else "tracelab.replay"
    step_span = "model.decode_step" if w.kind == "live" else "policy.run_step"
    tot: dict = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + float(value)

    attended, shares = [], []
    for cmd in commands:
        sp = cmd.spans
        inside = sp.under(step_root)
        add("steps", np.count_nonzero(sp.mask(step_span)))
        add("sessions", len(cmd.meta["sessions"]))
        add("commands", 1)

        def self_in_step(*names):
            return sp.self_time[sp.mask(*names) & inside].sum()

        def dur(*names, where=None):
            m = sp.mask(*names)
            return sp.dur[m if where is None else m & where].sum()

        add("init", dur("model.init_model"))
        add("init_calls", np.count_nonzero(sp.mask("model.init_model")))
        add("prefill", dur("model.prefill"))
        add("model_self", self_in_step("model.decode_step", "model.attend_layer"))
        add("full_self", self_in_step("attention.attend_full"))
        add("gather_self", self_in_step("attention.attend_gathered"))
        add("gathered_rows", sp.count[sp.mask("attention.attend_gathered") & inside].sum())
        mha = sp.mask("kernels.mha_attend") & inside
        add("mha", sp.dur[mha].sum())
        add("mha_calls", np.count_nonzero(mha))
        add("positions", sp.count[mha].sum())
        for key in ("append", "view", "positions", "evict"):
            add(f"kv_{key}", self_in_step(f"kvstore.{key}"))
        add("bookkeeping", dur("policy.run_step", where=inside)
            - dur("model.attend_layer", "tracelab.attend_layer", where=inside))
        add("ratio", dur("policy.ratio", where=inside))
        add("select", dur("policy.select", where=inside))
        add("fallback", sp.count[sp.mask("policy.init_step")].sum())
        add("fastv_evict", dur("baselines.fastv_evict"))
        add("evicted", sp.count[sp.mask("baselines.fastv_evict")].sum())
        add("read", dur("tracelab.read_trace"))
        add("reads", np.count_nonzero(sp.mask("tracelab.read_trace")))
        add("registry", self_in_step("tracelab.registry"))
        add("oracle", dur("tracelab.replay")
            - dur("policy.run_step", where=sp.under("tracelab.replay")))
        add("report", sp.self_time[sp.mask("cli.report")].sum())
        for i, meta in enumerate(cmd.meta["sessions"]):
            add("predicted", meta["predicted_step_ratio"])
            table = dump.StepTable(cmd.arrays, f"s{i}")
            for t in range(STEADY_FROM, table.steps + 1):
                sizes = [table.covered(t, l) for l in range(table.layers)]
                attended.append(sum(c.size for c in sizes))
                for c in sizes:
                    n = np.count_nonzero(c < w.image_tokens)
                    if n < w.image_tokens:
                        shares.append(n / w.image_tokens)

    steps, sessions = tot["steps"], tot["sessions"]
    us = lambda key: 1e6 * tot[key] / steps
    h = getattr(w, "heads", 0)
    bytes_per_step = 8.0 * (2 * w.hidden * tot["mha_calls"]
                            + (2 * w.hidden + h) * tot["positions"]) / steps
    return {
        "model.init_ms": 1e3 * tot["init"] / max(tot["init_calls"], 1),
        "model.prefill_ms": 1e3 * tot["prefill"] / sessions,
        "model.step_self_us": us("model_self"),
        "attention.full_self_us": us("full_self"),
        "attention.gather_self_us": us("gather_self"),
        "attention.gathered_rows": tot["gathered_rows"] / steps,
        "kernels.mha_us": us("mha"),
        "kernels.positions": tot["positions"] / steps,
        "kernels.computed_bytes": bytes_per_step,
        "kvstore.append_us": us("kv_append"),
        "kvstore.view_us": us("kv_view"),
        "kvstore.positions_us": us("kv_positions"),
        "kvstore.evict_us": us("kv_evict"),
        "policy.bookkeeping_us": us("bookkeeping"),
        "policy.ratio_us": us("ratio"),
        "policy.select_us": us("select"),
        "policy.fallback_passes": tot["fallback"] / sessions,
        "policy.attended_per_step": float(np.mean(attended)),
        "policy.image_share": float(np.mean(shares)) if shares else 1.0,
        "baselines.evict_us": 1e6 * tot["fastv_evict"] / sessions,
        "baselines.evicted": tot["evicted"] / sessions,
        "tracelab.read_ms": 1e3 * tot["read"] / max(tot["reads"], 1),
        "tracelab.registry_us": us("registry"),
        "tracelab.oracle_us": us("oracle"),
        "flops.predicted_step_ratio": tot["predicted"] / sessions,
        "cli.report_ms": 1e3 * tot["report"] / tot["commands"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fastocr", "__init__.py")):
        print("error: src/fastocr not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out", w.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=src, FASTOCR_LOG="quiet", **SINGLE_THREAD)

    phases = {"start": time.perf_counter()}
    commands, trace = run_commands(w, args, out_dir, env)
    phases["commands"] = time.perf_counter()
    if trace is not None:
        os.remove(os.path.join(out_dir, "trace.txt"))  # ~45 MB, remade from the seed
    errors = verify(w, commands, trace)
    phases["verify"] = time.perf_counter()
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    done = [c for c in commands if c.ok]
    attempted = w.sessions_per_command * len(commands)
    failed = w.sessions_per_command * (len(commands) - len(done))
    computed = end_to_end(w, done) if done else {}
    if done and args.trace:
        computed.update(per_layer(w, done))
    phases["metrics"] = time.perf_counter()
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": w.name, "seed": args.seed, "commands": len(commands),
                   "phase_s": {k: phases[k] - phases["start"] for k in phases},
                   "errors": errors, "metrics": computed}, f, indent=1)
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in section} if done else {}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
