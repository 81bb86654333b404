"""Runs one fastocr command in a fresh process and writes its outputs.

The runner starts one worker per round: ``python3 worker.py '<job json>'``,
with job keys ``argv`` (the ``fastocr.cli.main`` arguments), ``kind``
(``live`` or ``replay``), ``trace`` (wrap every module, or only the step
boundaries), ``hidden`` (width for the cost model's predicted ratio) and
``out`` (the ``.npz`` to write, see dump.py). Set-up time is measured by the
runner from just before this process starts, so the interpreter, the imports
below and the command's own set-up all count.
"""

import json
import sys
import time

import numpy as np

import dump
from recorder import Recorder, install
from workloads import STEADY_FROM, WARMUP


def peak_rss_kb() -> int:
    """High-water resident set of this process image (Linux VmHWM).

    ``ru_maxrss`` is no use here: exec keeps the parent's peak in it, so it
    would report the runner's resident set, inputs included.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def predicted_step_ratio(records, hidden: int) -> float:
    """The cost model's FLOPs of a warmup step over those of a steady step."""
    from fastocr import flops

    totals = np.array(flops.measured_breakdown(records, hidden).per_step_totals, dtype=float)
    return float(totals[:WARMUP].mean() / totals[STEADY_FROM - 1:].mean())


def session_outputs(i: int, session, hidden: int):
    cache, pol = session.cache, session.policy
    layers = cache.num_layers
    meta = {
        "n_img": cache.n_img,
        "cache_len": len(cache),
        "layer_lens": [cache.layer_len(l) for l in range(layers)],
        "unreachable": [cache.unreachable_count(l) for l in range(layers)],
        "focal_layers": list(pol.focal_set.layers) if getattr(pol, "focal_set", None) else [],
        "predicted_step_ratio": predicted_step_ratio(session.records, hidden),
    }
    if pol.name == "fastv":
        k = pol.config.prune_layer
        live = cache.live_positions(k)
        meta["evicted"] = np.setdiff1d(np.arange(cache.layer_len(k)), live).tolist()
    arrays = dump.encode_records(session.records, f"s{i}")
    arrays[f"s{i}.tokens"] = np.array(session.generated, dtype=np.int64)
    arrays[f"s{i}.logits"] = np.array(session.logits_log, dtype=np.float64)
    return meta, arrays


def main() -> int:
    job = json.loads(sys.argv[1])
    import fastocr.cli

    rec = Recorder()
    install(rec, job["kind"], job["trace"])
    rc = fastocr.cli.main(job["argv"])
    t_end = time.perf_counter()
    peak_kb = peak_rss_kb()
    # spans first: reading the outputs below calls wrapped functions again
    table, arrays = rec.arrays()
    sessions = []
    if rc == 0:
        for i, session in enumerate(rec.sessions):
            meta, extra = session_outputs(i, session, job["hidden"])
            sessions.append(meta)
            arrays.update(extra)
        for i, (pol, records) in enumerate(rec.replays):
            sessions.append({"focal_layers": list(pol.focal_set.layers),
                             "predicted_step_ratio": predicted_step_ratio(records,
                                                                          job["hidden"])})
            arrays.update(dump.encode_records(records, f"s{i}"))
    meta = {"rc": rc, "t_end": t_end, "peak_rss_kb": peak_kb, "span_names": table,
            "sessions": sessions}
    dump.save(job["out"], meta, arrays)
    return rc


if __name__ == "__main__":
    sys.exit(main())
