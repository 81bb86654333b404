"""Spans recorded from outside the program, by wrapping its public functions.

``install`` replaces functions and methods of the fastocr modules with
wrappers that record a span (name, parent, start, end, count) per call; the
program's code is not changed. An untraced run wraps only the step
boundaries its end-to-end metrics need (prefill, decode step, trace read,
replay step). A traced run wraps each module's public functions as well.
Several functions may share one span name, which is then the layer's name.
Spans stay in memory and are written out when the command ends.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# callbacks a policy receives, named by the module whose closure they are
CALLBACK_SPANS = {"fastocr.model": "model.attend_layer",
                  "fastocr.tracelab": "tracelab.attend_layer"}


class Recorder:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts: list = []
        self.stack: list = []
        self.sessions: list = []  # DecodeSessions, in prefill order
        self.replays: list = []  # (policy, records) per replay call

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records one span; count(args, result) -> int."""
        names, parents, starts, ends, counts, stack = (
            self.names, self.parents, self.starts, self.ends, self.counts, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            counts.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                counts[idx] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self):
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        return table, {
            "span.name": np.array([ids[n] for n in self.names], dtype=np.int32),
            "span.parent": np.array(self.parents, dtype=np.int64),
            "span.start": np.array(self.starts, dtype=np.float64),
            "span.end": np.array(self.ends, dtype=np.float64),
            "span.count": np.array(self.counts, dtype=np.int64),
        }


def install(rec: Recorder, kind: str, traced: bool):
    """Wrap fastocr's functions for a live or replay command."""
    from fastocr import attention, baselines, cli, kernels, kvstore, model, policy, tracelab

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, rec.span(name, getattr(owner, attr), count))

    def patch_property(cls, attr, name):
        setattr(cls, attr, property(rec.span(name, getattr(cls, attr).fget)))

    session_cls = model.DecodeSession
    prefill = session_cls.prefill

    def capture_session(self, *args, **kwargs):
        rec.sessions.append(self)
        return prefill(self, *args, **kwargs)

    session_cls.prefill = rec.span("model.prefill", capture_session)
    patch(session_cls, "decode_step", "model.decode_step")

    replay = cli.replay

    def capture_replay(trace_file, pol, **kwargs):
        records = replay(trace_file, pol, **kwargs)
        rec.replays.append((pol, records))
        return records

    cli.replay = rec.span("tracelab.replay", capture_replay)
    patch(cli, "read_trace", "tracelab.read_trace")

    if not traced:
        if kind == "replay":
            patch(policy.FixationPolicy, "run_step", "policy.run_step")
        return

    for cls in (policy.FixationPolicy, baselines.FastVPolicy):
        run_step = rec.span("policy.run_step", cls.run_step)

        def traced_run_step(self, cache, attend_layer, _run_step=run_step):
            callback = rec.span(CALLBACK_SPANS[attend_layer.__module__], attend_layer)
            return _run_step(self, cache, callback)

        cls.run_step = traced_run_step

    patch(cli, "init_model", "model.init_model")
    full = rec.span("attention.attend_full", attention.attend_full)
    model.attend_full = full
    attention.attend_full = full
    patch(model, "attend_gathered", "attention.attend_gathered",
          lambda args, result: result[1].per_head.shape[1])
    patch(kernels, "mha_attend", "kernels.mha_attend", lambda args, result: args[1].shape[0])

    cache = kvstore.SessionCache
    for attr, name in (("append", "kvstore.append"), ("register_token", "kvstore.append"),
                       ("full_view", "kvstore.view"), ("gathered_view", "kvstore.view"),
                       ("live_positions", "kvstore.positions"),
                       ("image_positions", "kvstore.positions"),
                       ("text_positions", "kvstore.positions"), ("evict", "kvstore.evict")):
        patch(cache, attr, name)
    patch_property(cache, "n_img", "kvstore.positions")

    ratio = rec.span("policy.ratio", policy.ratio_over_covered)
    policy.ratio_over_covered = ratio
    baselines.ratio_over_covered = ratio
    patch(policy, "select_focal_tokens", "policy.select")
    patch(policy, "select_focal_layers", "policy.select")
    patch(policy, "init_step_kept_set", "policy.init_step",
          lambda args, result: int(result.fallback is not None))
    patch(baselines, "fastv_evict", "baselines.fastv_evict", lambda args, result: result.size)

    logical = tracelab.LogicalCache
    for attr in ("live_positions", "image_positions", "text_positions"):
        patch(logical, attr, "tracelab.registry")
    patch_property(logical, "n_img", "tracelab.registry")

    for attr in ("_attention_section", "_flops_section", "_focal_section", "_meta",
                 "emit_report"):
        patch(cli, attr, "cli.report")


class Spans:
    """Loaded spans of one command, with durations and self times."""

    def __init__(self, table, arrays):
        self.table = list(table)
        self.name = arrays["span.name"]
        self.parent = arrays["span.parent"]
        self.start = arrays["span.start"]
        self.end = arrays["span.end"]
        self.count = arrays["span.count"]
        self.dur = self.end - self.start
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def __len__(self):
        return self.name.size

    def mask(self, *names) -> np.ndarray:
        ids = [self.table.index(n) for n in names if n in self.table]
        return np.isin(self.name, ids)

    def under(self, *roots) -> np.ndarray:
        """Spans with an ancestor among the named roots."""
        root = self.mask(*roots).tolist()
        inside = [False] * len(self)
        # a parent's index is always below its children's
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (root[p] or inside[p]):
                inside[i] = True
        return np.array(inside, dtype=bool)
