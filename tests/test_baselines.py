import numpy as np
import pytest

from fastocr.baselines import (FastVConfig, FastVPolicy, H2OConfig, H2OPolicy,
                               HeavyHitterState, fastv_evict, h2o_retain, h2o_update)
from fastocr.model import DecodeSession, ModelConfig, init_model, prompt_token_ids
from fastocr.policy import FixationConfig, FixationPolicy, VanillaPolicy


def test_fastv_ratio_zero():
    assert fastv_evict(np.ones(4) / 4, [0, 1, 2, 3], 0.0).size == 0


def test_fastv_bottom_k():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(fastv_evict(w, [0, 1, 2, 3], 0.5), [2, 3])


def test_fastv_tie_evicts_higher_index_first():
    w = np.array([0.25, 0.25, 0.25, 0.25])
    np.testing.assert_array_equal(fastv_evict(w, [0, 1, 2, 3], 0.5), [2, 3])


def test_fastv_matched_budget_count():
    # R=0.871 at a production-scale image count evicts floor(0.871 * N) tokens
    n = 3955
    w = np.random.default_rng(0).random(n)
    w /= w.sum()
    out = fastv_evict(w, range(n), 0.871)
    assert out.size == int(0.871 * n)


def test_h2o_update_uniform_and_additivity():
    state = HeavyHitterState()
    state.set_live(np.arange(5))
    h2o_update(state, np.full(5, 0.2))
    assert all(state.accumulated(p) == pytest.approx(0.2) for p in range(5))
    h2o_update(state, np.full(5, 0.2))
    assert state.accumulated(0) == pytest.approx(0.4)


def test_h2o_update_length_mismatch():
    state = HeavyHitterState()
    state.set_live(np.arange(3))
    with pytest.raises(ValueError, match="length mismatch"):
        h2o_update(state, np.ones(4) / 4)


def test_h2o_dead_positions_never_accumulate():
    state = HeavyHitterState()
    state.set_live(np.array([0, 2]))  # position 1 dead
    h2o_update(state, np.array([0.5, 0.5]))
    assert state.accumulated(1) == 0.0


def test_h2o_retain_keeps_everything_at_one():
    state = HeavyHitterState()
    live = np.arange(7)
    np.testing.assert_array_equal(h2o_retain(state, 1.0, live), live)


def test_h2o_retain_union_bound():
    state = HeavyHitterState()
    state.set_live(np.arange(10))
    h2o_update(state, np.linspace(0.01, 0.19, 10))
    kept = h2o_retain(state, 0.2, np.arange(10))
    assert kept.size <= 4  # 2 heavy + 2 recent, overlap allowed
    assert 9 in kept  # newest is always among the most recent


def make_session(policy, seed=3, n_img=16, steps=6):
    mc = ModelConfig(seed=seed)
    w = init_model(mc)
    s = DecodeSession(w, policy)
    s.prefill(n_img, prompt_token_ids(seed, 4, mc.vocab_size))
    s.generate(steps)
    return s


def test_vanilla_keeps_all_positions():
    s = make_session(VanillaPolicy(8))
    for rec in s.records:
        for covered in rec.kept:
            assert covered.size == 16 + 4 + rec.step


def test_fastv_one_shot_eviction():
    s = make_session(FastVPolicy(FastVConfig(prune_layer=2, prune_ratio=0.5), 8))
    cache = s.cache
    # layers below K untouched, layers >= K lost floor(0.5*16) image tokens
    assert cache.unreachable_count(0) == 0
    assert cache.unreachable_count(1) == 0
    for layer in range(2, 8):
        assert cache.unreachable_count(layer) == 8
    assert cache.image_positions(2).size == 8
    # after the single shot the view grows only by the appended tokens
    assert s.records[-1].kept[3].size == s.records[0].kept[3].size + len(s.records) - 1


def test_fastv_views_shrink_only_at_and_above_k():
    s = make_session(FastVPolicy(FastVConfig(prune_layer=3, prune_ratio=0.25), 8))
    rec = s.records[-1]
    full_len = 16 + 4 + rec.step
    for layer in range(3):
        assert rec.kept[layer].size == full_len
    for layer in range(3, 8):
        assert rec.kept[layer].size == full_len - 4


def test_h2o_live_count_bounded():
    import math

    mc = ModelConfig(seed=3)
    w = init_model(mc)
    s = DecodeSession(w, H2OPolicy(H2OConfig(retain_ratio=0.2), 8))
    s.prefill(16, prompt_token_ids(3, 4, mc.vocab_size))
    prev_live = s.cache.live_positions(0).size
    for _ in range(8):
        s.decode_step()
        at_retention = prev_live + 1  # exactly one append per step
        now = s.cache.live_positions(0).size
        assert now <= 2 * math.ceil(0.2 * at_retention)
        prev_live = now


def test_h2o_unreachable_monotone():
    mc = ModelConfig(seed=5)
    w = init_model(mc)
    s = DecodeSession(w, H2OPolicy(H2OConfig(retain_ratio=0.3), 8))
    s.prefill(16, prompt_token_ids(5, 4, mc.vocab_size))
    counts = []
    for _ in range(8):
        s.decode_step()
        counts.append(s.cache.unreachable_count(0))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_h2o_can_evict_text_tokens():
    # modality-agnostic retention: text positions are fair game
    mc = ModelConfig(seed=11)
    w = init_model(mc)
    s = DecodeSession(w, H2OPolicy(H2OConfig(retain_ratio=0.1), 8))
    s.prefill(16, prompt_token_ids(11, 8, mc.vocab_size))
    s.generate(4)
    assert s.cache.text_positions(0).size < 8 + 4


def test_vanilla_equals_identity_fixation():
    # every policy that runs full attention at every layer, in its identity setting
    mc = ModelConfig(seed=21)
    w = init_model(mc)
    prompt = prompt_token_ids(21, 4, mc.vocab_size)
    sv = DecodeSession(w, VanillaPolicy(8))
    sv.prefill(16, prompt)
    ref = sv.generate(8)
    identities = [
        FixationPolicy(FixationConfig(kept_token_ratio=1.0,
                                      force_focal_layers=tuple(range(8))), 8),
        FastVPolicy(FastVConfig(prune_layer=2, prune_ratio=0.0), 8),
        H2OPolicy(H2OConfig(retain_ratio=1.0), 8),
    ]
    for pol in identities:
        sf = DecodeSession(w, pol)
        sf.prefill(16, prompt)
        assert sf.generate(8) == ref, pol.name
        for a, b in zip(sv.logits_log, sf.logits_log):
            assert np.array_equal(a, b)
        for rv, rf in zip(sv.records, sf.records):
            assert rv.ratios == rf.ratios
            assert all(np.array_equal(kv, kf) for kv, kf in zip(rv.kept, rf.kept))


def test_config_validation():
    with pytest.raises(ValueError):
        FastVConfig(prune_layer=-1, prune_ratio=0.5)
    with pytest.raises(ValueError):
        FastVConfig(prune_layer=0, prune_ratio=1.5)
    with pytest.raises(ValueError):
        H2OConfig(retain_ratio=-0.1)
    with pytest.raises(ValueError):
        FastVPolicy(FastVConfig(prune_layer=9, prune_ratio=0.1), 8)
