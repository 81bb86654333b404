import numpy as np
import pytest

from fastocr.policy import (FixationConfig, FixationPolicy, FocalTokens, Phase, PolicyState,
                            VanillaPolicy, WarmupStats, focal_budget, init_step_kept_set,
                            kept_token_count, ratio_over_covered, record_warmup,
                            select_focal_layers, select_focal_tokens)
from fastocr.tracelab import LogicalCache


def scripted_attend(cache, weights_fn, step_counter):
    """attend_layer closure over a (step, layer) -> full-weight-vector table."""

    def attend_layer(layer, kept):
        w = weights_fn(step_counter["t"], layer)
        covered = cache.live_positions(layer) if kept is None else np.asarray(kept,
                                                                              dtype=np.int64)
        sub = w[covered]
        return sub / sub.sum(), covered

    return attend_layer


def run_steps(policy, cache, weights_fn, n):
    counter = {"t": 0}
    attend = scripted_attend(cache, weights_fn, counter)
    records = []
    for _ in range(n):
        counter["t"] += 1
        records.append(policy.run_step(cache, attend))
    return records


# -- ratio_over_covered -----------------------------------------------------------


def test_ratio_all_mass_on_images():
    w = np.array([0.5, 0.5, 0.0])
    assert ratio_over_covered(w, np.arange(3), [0, 1]) == 1.0


def test_ratio_direct_substitution():
    w = np.array([0.2, 0.1, 0.1])  # image mass 0.3, text mass 0.1
    assert ratio_over_covered(w, np.arange(3), [0, 1]) == pytest.approx(0.75, abs=1e-12)


def test_ratio_planted_focal_mass():
    # focal-layer-like split: 42.2% of mass on images
    n_img, n_txt = 10, 4
    w = np.concatenate([np.full(n_img, 0.422 / n_img), np.full(n_txt, 0.578 / n_txt)])
    r = ratio_over_covered(w, np.arange(n_img + n_txt), np.arange(n_img))
    assert r == pytest.approx(0.422, abs=1e-12)


def test_ratio_degenerate_errors():
    with pytest.raises(ValueError, match="degenerate attention"):
        ratio_over_covered(np.zeros(2), np.arange(2), [0])


# -- record_warmup -----------------------------------------------------------------


def make_state(num_layers=4, **kwargs):
    cfg = FixationConfig(**kwargs)
    return PolicyState(config=cfg, num_layers=num_layers,
                       warmup=WarmupStats.empty(num_layers))


def test_record_warmup_counts():
    state = make_state(num_layers=3, warmup_steps=5)
    for _ in range(5):
        for layer in range(3):
            record_warmup(state, layer, 0.5)
        state.step += 1
    assert sum(len(r) for r in state.warmup.ratios) == 15


def test_record_warmup_rejects_bad_ratio_and_phase():
    state = make_state(warmup_steps=1)
    with pytest.raises(ValueError, match="ratio"):
        record_warmup(state, 0, 1.5)
    state.step = 1  # steady now
    assert state.phase is Phase.STEADY
    with pytest.raises(RuntimeError, match="warmup"):
        record_warmup(state, 0, 0.5)


def test_warmup_mean():
    state = make_state(num_layers=1, warmup_steps=2)
    record_warmup(state, 0, 0.2)
    record_warmup(state, 0, 0.4)
    assert state.warmup.mean_ratios()[0] == pytest.approx(0.3, abs=1e-12)


# -- select_focal_layers --------------------------------------------------------------


def test_budget_floor():
    assert focal_budget(0.1, 36) == 3


def test_budget_rounds_to_zero_errors():
    with pytest.raises(ValueError, match="focal budget rounds to zero"):
        focal_budget(0.1, 8)


def test_rho_zero_returns_empty():
    fs = select_focal_layers(np.linspace(0, 1, 6), 0.0, 1, 6)
    assert fs.layers == ()


def test_greedy_hand_trace():
    # visit order 1, 2, 4, then ties 0, 3, 5; gap 1 blocks 2, 0, 3, 5
    ratios = [0.10, 0.90, 0.85, 0.10, 0.80, 0.10]
    fs = select_focal_layers(ratios, 0.5, 1, 6)  # budget floor(3.0) = 3
    assert fs.layers == (1, 4)


def test_selection_deterministic():
    rng = np.random.default_rng(9)
    ratios = rng.random(12)
    a = select_focal_layers(ratios, 0.25, 1, 12)
    b = select_focal_layers(ratios, 0.25, 1, 12)
    assert a.layers == b.layers


def test_selection_budget_and_gap_property():
    rng = np.random.default_rng(10)
    for _ in range(200):
        num_layers = int(rng.integers(2, 40))
        rho = float(rng.uniform(1.0 / num_layers, 1.0))
        gap = int(rng.integers(0, 4))
        ratios = rng.random(num_layers)
        fs = select_focal_layers(ratios, rho, gap, num_layers)
        budget = focal_budget(rho, num_layers)
        assert len(fs.layers) <= budget
        layers = sorted(fs.layers)
        for a, b in zip(layers, layers[1:]):
            assert b - a > gap


# -- select_focal_tokens ---------------------------------------------------------------


def test_tokens_kappa_one_selects_all():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    ft = select_focal_tokens(w, [0, 1, 2, 3], 1.0, source_layer=0, step=1)
    np.testing.assert_array_equal(ft.positions, [0, 1, 2, 3])


def test_tokens_top_k():
    w = np.zeros(14)
    w[[10, 11, 12, 13]] = [0.1, 0.4, 0.3, 0.2]
    ft = select_focal_tokens(w, [10, 11, 12, 13], 0.5, source_layer=2, step=3)
    np.testing.assert_array_equal(ft.positions, [11, 12])


def test_tokens_tie_break_low_index():
    w = np.zeros(14)
    w[[10, 11, 12, 13]] = [0.3, 0.3, 0.2, 0.2]
    ft = select_focal_tokens(w, [10, 11, 12, 13], 0.25, source_layer=0, step=1)
    np.testing.assert_array_equal(ft.positions, [10])


def test_tokens_kappa_zero_empty():
    ft = select_focal_tokens(np.ones(4) / 4, [0, 1], 0.0, source_layer=0, step=1)
    assert ft.positions.size == 0


def test_kept_token_count_guards():
    assert kept_token_count(0.05, 64) == 4
    assert kept_token_count(0.25, 64) == 16
    assert kept_token_count(1.0, 5) == 5
    assert kept_token_count(0.5, 0) == 0
    assert kept_token_count(0.2, 5) == 1  # exact product stays put


# -- init_step_kept_set -------------------------------------------------------------------


def steady_state(num_layers=4, focal=(1, 3), f_last=None, **kwargs):
    kwargs.setdefault("warmup_steps", 0)
    kwargs.setdefault("force_focal_layers", focal)
    policy = FixationPolicy(FixationConfig(**kwargs), num_layers)
    if f_last is not None:
        policy.state.f_last = FocalTokens(positions=np.asarray(f_last, dtype=np.int64),
                                          source_layer=max(focal), step=0)
    return policy.state


def test_init_borrows_without_callback():
    cache = LogicalCache(4, num_image=8, num_text=2)
    state = steady_state(f_last=[5, 6, 7])

    def boom():
        raise AssertionError("layer0_attend must not be invoked when f_last exists")

    init = init_step_kept_set(state, cache, boom)
    np.testing.assert_array_equal(init.kept, [5, 6, 7, 8, 9])
    assert init.fallback is None


def test_init_skips_when_layer0_focal():
    cache = LogicalCache(4, num_image=8, num_text=2)
    state = steady_state(focal=(0, 2))
    init = init_step_kept_set(state, cache, lambda: None)
    assert init.kept is None


def test_init_fallback_topk():
    cache = LogicalCache(4, num_image=4, num_text=2)
    state = steady_state(kept_token_ratio=0.5)
    w = np.array([0.05, 0.30, 0.25, 0.10, 0.15, 0.15])

    def layer0_attend():
        return w, np.arange(6)

    init = init_step_kept_set(state, cache, layer0_attend)
    assert init.fallback is not None
    np.testing.assert_array_equal(init.fallback.positions, [1, 2])
    np.testing.assert_array_equal(init.kept, [1, 2, 4, 5])


# -- full step machine ----------------------------------------------------------------------


def uniform_weights(n):
    def fn(t, layer):
        return np.full(n, 1.0 / n)

    return fn


def test_warmup_steps_all_full():
    cache = LogicalCache(3, num_image=6, num_text=2)
    policy = FixationPolicy(FixationConfig(focal_layer_ratio=1.0 / 3.0, warmup_steps=4), 3)
    records = run_steps(policy, cache, uniform_weights(8), 4)
    for rec in records:
        assert rec.modes == ["full"] * 3
    assert policy.focal_set is None  # selection deferred to first steady step


def test_identity_configuration_keeps_everything():
    cache = LogicalCache(3, num_image=6, num_text=2)
    policy = FixationPolicy(
        FixationConfig(kept_token_ratio=1.0, warmup_steps=1,
                       force_focal_layers=(0, 1, 2)), 3)
    records = run_steps(policy, cache, uniform_weights(8), 3)
    for rec in records[1:]:
        assert rec.modes == ["full"] * 3
        for covered in rec.kept:
            np.testing.assert_array_equal(covered, np.arange(8))


def layered_window_weights(n_img, n_txt):
    """Layer-dependent image hotspots so each focal layer selects differently."""

    def fn(t, layer):
        w = np.full(n_img + n_txt, 0.01)
        w[(2 * layer) % n_img] = 1.0
        w[(2 * layer + 1) % n_img] = 0.9
        return w / w.sum()

    return fn


def test_cross_layer_propagation_hand_trace():
    # L=4, C={1,3}, ceil(kappa*N)=2
    n_img, n_txt = 8, 2
    cache = LogicalCache(4, num_image=n_img, num_text=n_txt)
    policy = FixationPolicy(
        FixationConfig(kept_token_ratio=0.25, warmup_steps=1, force_focal_layers=(1, 3)), 4)
    weights = layered_window_weights(n_img, n_txt)
    records = run_steps(policy, cache, weights, 3)

    first, second = records[1], records[2]
    # first steady step: fallback full pass at layer 0
    assert first.modes == ["full", "full", "gathered", "full"]
    text = [8, 9]
    # layer 2 inherits layer 1's refreshed selection
    np.testing.assert_array_equal(first.kept[2],
                                  sorted(set(text) | set(first.focal_tokens[1].tolist())))
    # f_last is the deepest focal layer's selection
    np.testing.assert_array_equal(first.f_last, first.focal_tokens[3])

    # subsequent steady step borrows f_last at layer 0 without a full pass
    assert second.modes == ["gathered", "full", "gathered", "full"]
    np.testing.assert_array_equal(second.kept[0],
                                  sorted(set(text) | set(first.f_last.tolist())))
    np.testing.assert_array_equal(second.f_last, second.focal_tokens[3])


def test_selection_from_warmup_statistics():
    # layer 1 carries triple the image mass; budget 1 must find it
    n_img, n_txt = 6, 2

    def fn(t, layer):
        img_mass = 0.45 if layer == 1 else 0.15
        w = np.empty(n_img + n_txt)
        w[:n_img] = img_mass / n_img
        w[n_img:] = (1 - img_mass) / n_txt
        return w

    cache = LogicalCache(4, num_image=n_img, num_text=n_txt)
    policy = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=3,
                                           kept_token_ratio=0.5), 4)
    run_steps(policy, cache, fn, 5)
    assert policy.focal_set.layers == (1,)


def test_rho_zero_freezes_fallback_fixation():
    n_img, n_txt = 6, 2
    cache = LogicalCache(2, num_image=n_img, num_text=n_txt)
    policy = FixationPolicy(FixationConfig(focal_layer_ratio=0.0, warmup_steps=1,
                                           kept_token_ratio=0.5), 2)
    records = run_steps(policy, cache, layered_window_weights(n_img, n_txt), 4)
    first_steady = records[1]
    assert first_steady.modes[0] == "full"  # one fallback pass
    frozen = first_steady.f_last
    for rec in records[2:]:
        assert rec.modes == ["gathered", "gathered"]
        np.testing.assert_array_equal(rec.f_last, frozen)


def test_f_last_tracks_deepest_focal_property():
    rng = np.random.default_rng(11)
    n_img, n_txt = 10, 3

    def fn(t, layer):
        w = rng.random(n_img + n_txt)
        return w / w.sum()

    cache = LogicalCache(5, num_image=n_img, num_text=n_txt)
    policy = FixationPolicy(FixationConfig(focal_layer_ratio=0.4, warmup_steps=2,
                                           kept_token_ratio=0.3), 5)
    records = run_steps(policy, cache, fn, 12)
    deepest = max(policy.focal_set.layers)
    for rec in records[2:]:
        np.testing.assert_array_equal(rec.f_last, rec.focal_tokens[deepest])


def test_steady_kept_set_invariants_property():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n_img = int(rng.integers(2, 20))
        n_txt = int(rng.integers(1, 5))
        num_layers = int(rng.integers(2, 7))
        kappa = float(rng.choice([0.0, 0.1, 0.3, 0.7, 1.0]))
        seed = int(rng.integers(1 << 30))

        def fn(t, layer, _s=seed, _n=n_img + n_txt):
            r = np.random.default_rng(_s + 1000 * t + layer)
            w = r.random(_n)
            return w / w.sum()

        cache = LogicalCache(num_layers, num_image=n_img, num_text=n_txt)
        policy = FixationPolicy(
            FixationConfig(focal_layer_ratio=1.0 / num_layers, warmup_steps=1,
                           kept_token_ratio=kappa), num_layers)
        records = run_steps(policy, cache, fn, 4)
        expect = kept_token_count(kappa, n_img)
        text = set(range(n_img, n_img + n_txt))
        for rec in records[1:]:
            saw_full = False
            for mode, covered in zip(rec.modes, rec.kept):
                if mode == "full":
                    saw_full = True
                    continue
                covered_set = set(covered.tolist())
                assert text <= covered_set
                img_kept = covered_set - text
                assert img_kept <= set(range(n_img))
                if saw_full:
                    assert len(img_kept) == expect


def test_vanilla_policy_records():
    cache = LogicalCache(3, num_image=4, num_text=2)
    policy = VanillaPolicy(3)
    records = run_steps(policy, cache, uniform_weights(6), 2)
    for rec in records:
        assert rec.modes == ["full"] * 3
        for covered in rec.kept:
            np.testing.assert_array_equal(covered, np.arange(6))


def test_forced_focal_out_of_range():
    with pytest.raises(ValueError, match="forced focal"):
        FixationPolicy(FixationConfig(force_focal_layers=(9,)), 4)
