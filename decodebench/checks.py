"""Correctness checks over one command's outputs.

Each check returns a list of error strings, empty when the outputs are
correct. Live sessions are compared with the independent dense decoder of
reference.py, teacher-forced with the program's tokens and, at steady
steps, the program's recorded kept sets; and with properties the method
must have. Replay outputs are compared with the planted trace the benchmark
made and with an independent implementation of the method.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from reference import (ToyModel, fixation_replay_recall, greedy_focal_layers, is_extreme_k,
                       kept_count)
from workloads import WARMUP

LOGIT_TOL = 1e-9
RATIO_TOL = 1e-12
RECALL_TOL = 1e-12


def check_live(w, meta: dict, table, tokens: np.ndarray, logits: np.ndarray, seed: int,
               prompt) -> list:
    """All checks of one live session, run with model seed `seed` and `prompt`."""
    errors: list = []
    n_img, p0, steps = w.image_tokens, w.image_tokens + w.text_tokens, table.steps
    fastv = w.policy_name == "fastv"
    focal = tuple(meta["focal_layers"])
    evicted = np.asarray(meta.get("evicted", []), dtype=np.int64)
    if fastv:
        prune_layer = w.policy["policy.fastv_layer"]
        n_evict = math.floor(Fraction(str(w.policy["policy.fastv_ratio"])) * n_img)
    else:
        k = kept_count(str(w.policy["policy.kappa"]), n_img)
        budget = math.floor(Fraction(str(w.policy["policy.rho"])) * w.layers)

    # the cache: fixation never shrinks it; fastv tombstones layers >= K only
    if steps != w.steps or table.layers != w.layers:
        return [f"records cover {steps} steps x {table.layers} layers, "
                f"expected {w.steps} x {w.layers}"]
    if meta["n_img"] != n_img:
        errors.append(f"cache holds {meta['n_img']} image tokens, expected {n_img}")
    if meta["cache_len"] != p0 + steps or set(meta["layer_lens"]) != {p0 + steps}:
        errors.append(f"cache length {meta['cache_len']} / layer lengths "
                      f"{sorted(set(meta['layer_lens']))}, expected {p0 + steps}")
    if fastv:
        expect_dead = [0] * prune_layer + [n_evict] * (w.layers - prune_layer)
    else:
        expect_dead = [0] * w.layers
    if list(meta["unreachable"]) != expect_dead:
        errors.append(f"unreachable positions per layer {meta['unreachable']}, "
                      f"expected {expect_dead}")

    # what each layer attended over, step by step
    alive = np.setdiff1d(np.arange(p0 + steps), evicted)
    for t in range(1, steps + 1):
        text = np.arange(n_img, p0 + t)
        for layer in range(w.layers):
            covered = table.covered(t, layer)
            steady = t > WARMUP and not fastv
            expect_gathered = steady and layer not in focal and not (layer == 0 and t == WARMUP + 1)
            if table.gathered(t, layer) != expect_gathered:
                errors.append(f"step {t} layer {layer}: mode "
                              f"{'gathered' if table.gathered(t, layer) else 'full'}")
                continue
            if not expect_gathered:
                expect = np.arange(p0 + t)
                if fastv and (layer > prune_layer or (layer == prune_layer and t > 1)):
                    expect = alive[:np.searchsorted(alive, p0 + t)]
                if not np.array_equal(covered, expect):
                    errors.append(f"step {t} layer {layer}: full attention over "
                                  f"{covered.size} positions, expected {expect.size}")
                continue
            # ascending, so: k image positions, then exactly the text positions
            ascending = covered.size < 2 or bool(np.all(covered[1:] > covered[:-1]))
            if not (ascending and covered.size == k + text.size and covered[0] >= 0
                    and np.array_equal(covered[k:], text) and covered[k - 1] < n_img):
                kept_img = np.count_nonzero(covered < n_img)
                errors.append(f"step {t} layer {layer}: kept set of {covered.size} "
                              f"({kept_img} image) is not all {text.size} text + {k} image")
    if errors:
        return errors

    # the independent decoder, teacher-forced
    if tokens.shape != (steps,) or logits.shape != (steps, w.vocab):
        return [f"tokens {tokens.shape} / logits {logits.shape} do not cover {steps} steps"]
    model = ToyModel(seed, w.layers, w.hidden, w.heads, w.vocab)
    n = p0 + steps
    causal = np.tri(n, dtype=bool)
    masks = []
    for layer in range(w.layers):
        mask = causal.copy()
        for t in range(1, steps + 1):
            row = mask[p0 + t - 1]
            row[:] = False
            row[table.covered(t, layer)] = True
        masks.append(mask)
    x, avg = model.run(model.inputs(n_img, prompt, tokens), masks, np.arange(p0, n))
    ref_logits = x[p0 - 1:n - 1] @ model.unembedding
    worst = float(np.abs(ref_logits - logits).max())
    if not worst <= LOGIT_TOL:
        step = int(np.abs(ref_logits - logits).max(axis=1).argmax()) + 1
        errors.append(f"logits differ from the reference decoder by {worst:.3e} "
                      f"(step {step}), tolerance {LOGIT_TOL:g}")
    top2 = np.sort(ref_logits, axis=1)[:, -2:]
    greedy = ref_logits.argmax(axis=1)
    bad = np.nonzero((greedy != tokens) & (top2[:, 1] - top2[:, 0] > LOGIT_TOL))[0]
    if bad.size:
        errors.append(f"step {bad[0] + 1}: token {tokens[bad[0]]} is not the greedy "
                      f"choice {greedy[bad[0]]}")

    if fastv:
        row = avg[0, prune_layer]
        if not is_extreme_k(evicted, row[:n_img], n_evict, lowest=True, tol=RATIO_TOL):
            errors.append(f"evicted set ({evicted.size}) is not the {n_evict} lowest-weight "
                          f"image positions of layer {prune_layer} at step 1")
        return errors

    # focal layers: greedy over the reference's warmup image ratios
    ratios = avg[:WARMUP, :, :n_img].sum(axis=2) / avg[:WARMUP].sum(axis=2)
    expect_focal = greedy_focal_layers(ratios.mean(axis=0), budget, int(w.policy["policy.gap"]))
    if focal != expect_focal:
        errors.append(f"focal layers {focal}, reference selects {expect_focal}")
        return errors
    # each focal layer's selection is a top-k of the reference's full attention
    deepest = max(focal)
    for t in range(WARMUP + 1, steps + 1):
        for layer in focal:
            sel = table.focal(t, layer)
            if sel is None or not is_extreme_k(sel, avg[t - 1, layer, :n_img], k, tol=RATIO_TOL):
                errors.append(f"step {t} focal layer {layer}: selection is not the top-{k} "
                              "image positions of the reference attention")
        if 0 in focal:
            continue
        kept0 = table.covered(t, 0)
        kept0 = kept0[kept0 < n_img]
        if t == WARMUP + 1:
            # fallback: a full layer-0 pass selects; layer 1 uses it unless focal
            if 1 not in focal:
                kept1 = table.covered(t, 1)
                if not is_extreme_k(kept1[kept1 < n_img], avg[t - 1, 0, :n_img], k,
                                    tol=RATIO_TOL):
                    errors.append(f"step {t}: fallback selection is not the top-{k} image "
                                  "positions of the reference layer-0 attention")
        elif not np.array_equal(kept0, table.focal(t - 1, deepest)):
            errors.append(f"step {t}: layer-0 warm start is not layer {deepest}'s "
                          f"selection at step {t - 1}")
    return errors


def check_replay(w, trace, meta: dict, table, report: dict) -> list:
    """Focal layers, warmup ratios and mean recall of one replay command."""
    errors: list = []
    planted = list(trace.focal_layers)
    reported = report["focal_layers"]["per_seed"].get("trace")
    if reported != planted:
        errors.append(f"report's focal layers {reported}, planted {planted}")
    if table.steps != w.steps or table.layers != w.layers:
        return errors + [f"records cover {table.steps} x {table.layers}"]
    worst = float(np.abs(table.ratios[:WARMUP] - trace.layer_mass[None, :]).max())
    if not worst <= RATIO_TOL:
        errors.append(f"warmup image-mass ratio differs from the planted mass by {worst:.3e}")
    n_img = w.image_tokens
    weights = trace.weights
    ratios = weights[:WARMUP, :, :n_img].sum(axis=2) / weights[:WARMUP].sum(axis=2)
    budget = math.floor(Fraction(str(w.rho)) * w.layers)
    focal = greedy_focal_layers(ratios.mean(axis=0), budget, 1)
    if list(focal) != planted:
        raise RuntimeError(f"benchmark fault: planted {planted} but its mass picks {focal}")
    expect = fixation_replay_recall(weights, n_img, focal, str(w.kappa), WARMUP)
    got = report["attention_metrics"].get("mean_recall")
    if got is None or not abs(got - expect) <= RECALL_TOL:
        errors.append(f"mean recall {got}, independent implementation gives {expect!r}")
    return errors
