import numpy as np
import pytest

from fastocr.attention import attend_full, attend_gathered
from fastocr.kvstore import SessionCache, TokenType
from fastocr.model import (_PATCH_STREAM_SALT, PATCH_DIM, DecodeSession, ModelConfig,
                           init_model, positional_encoding, prompt_token_ids)
from fastocr.policy import FixationConfig, FixationPolicy, VanillaPolicy
from fastocr.rng import SplitMix64


def test_init_model_deterministic():
    a = init_model(ModelConfig(seed=42))
    b = init_model(ModelConfig(seed=42))
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.wq, b.wq)
    assert np.array_equal(a.unembedding, b.unembedding)


def test_init_model_seed_sensitivity():
    a = init_model(ModelConfig(seed=1))
    b = init_model(ModelConfig(seed=2))
    assert not np.array_equal(a.embedding, b.embedding)


def test_init_model_dims_and_scale():
    cfg = ModelConfig(hidden_dim=64, num_heads=4)
    assert cfg.head_config.head_dim == 16
    w = init_model(cfg)
    assert w.wq.shape == (8, 64, 64)
    assert w.patch_embedder.shape == (PATCH_DIM, 64)
    assert np.abs(w.embedding).max() <= 1.0 / 8.0  # 1/sqrt(64)


def test_init_model_matches_documented_stream():
    # first weight entries come straight off the SplitMix64 stream
    cfg = ModelConfig(hidden_dim=4, num_heads=2, vocab_size=2, num_layers=1, seed=9)
    w = init_model(cfg)
    stream = SplitMix64(9)
    expect = (2.0 * stream.next_double() - 1.0) / 2.0
    assert w.embedding[0, 0] == expect


def test_init_model_matches_documented_fill_order():
    # every entry, in the documented fill order, drawn one at a time
    cfg = ModelConfig(num_layers=2, hidden_dim=4, num_heads=2, vocab_size=3, seed=9)
    w = init_model(cfg)
    stream = SplitMix64(9)
    scale = 1.0 / np.sqrt(cfg.hidden_dim)

    def draw(shape):
        vals = [(2.0 * stream.next_double() - 1.0) * scale
                for _ in range(int(np.prod(shape)))]
        return np.array(vals).reshape(shape)

    h, v = cfg.hidden_dim, cfg.vocab_size
    assert np.array_equal(w.embedding, draw((v, h)))
    assert np.array_equal(w.unembedding, draw((h, v)))
    assert np.array_equal(w.patch_embedder, draw((PATCH_DIM, h)))
    for l in range(cfg.num_layers):
        for mat in (w.wq, w.wk, w.wv, w.wo):
            assert np.array_equal(mat[l], draw((h, h)))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=10, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=1)
    for bad in ({"num_heads": 0}, {"num_heads": -4}, {"hidden_dim": 0},
                {"hidden_dim": -64}):
        with pytest.raises(ValueError, match="must be >= 1"):
            ModelConfig(**bad)


def test_positional_encoding_layout():
    pe = positional_encoding(0, 8)
    np.testing.assert_array_equal(pe[0::2], np.zeros(4))
    np.testing.assert_array_equal(pe[1::2], np.ones(4))
    pe3 = positional_encoding(3, 8)
    assert pe3[0] == pytest.approx(np.sin(3.0))
    rows = positional_encoding(np.arange(5), 8)
    assert rows.shape == (5, 8)
    for pos in range(5):
        np.testing.assert_array_equal(rows[pos], positional_encoding(pos, 8))


def make_vanilla(seed=0, n_img=16, n_txt=4):
    mc = ModelConfig(seed=seed)
    w = init_model(mc)
    s = DecodeSession(w, VanillaPolicy(mc.num_layers))
    s.prefill(n_img, prompt_token_ids(seed, n_txt, mc.vocab_size))
    return s


def test_prefill_populates_every_layer():
    s = make_vanilla(n_img=16, n_txt=4)
    assert len(s.cache) == 20
    assert s.cache.n_img == 16
    for layer in range(8):
        assert s.cache.layer_len(layer) == 20
    np.testing.assert_array_equal(s.cache.image_positions(0), np.arange(16))


def test_prefill_rejects_empty_prompt_and_stale_session():
    mc = ModelConfig(seed=0)
    w = init_model(mc)
    s = DecodeSession(w, VanillaPolicy(8))
    with pytest.raises(ValueError, match="empty prompt"):
        s.prefill(4, [])
    s.prefill(4, [1])
    with pytest.raises(RuntimeError, match="fresh session"):
        s.prefill(4, [1])


def per_token_prefill(weights, num_image_tokens, prompt_ids):
    """Reference prefill: push each position through the stack alone.

    A loop of attend_full over the cache, one SessionCache.append per layer
    and token. Returns (cache, pending hidden state).
    """
    cfg = weights.config
    h = cfg.hidden_dim
    cache = SessionCache(cfg.num_layers, h)
    patch_stream = SplitMix64(cfg.seed ^ _PATCH_STREAM_SALT)
    inputs = [(TokenType.IMAGE, patch_stream.symmetric((PATCH_DIM,)) @ weights.patch_embedder)
              for _ in range(num_image_tokens)]
    inputs += [(TokenType.TEXT, weights.embedding[tok]) for tok in prompt_ids]
    for token_type, embedded in inputs:
        x = embedded + positional_encoding(cache.register_token(token_type), h)
        for layer in range(cfg.num_layers):
            q = x @ weights.wq[layer]
            cache.append(layer, x @ weights.wk[layer], x @ weights.wv[layer])
            keys, values = cache.full_view(layer)
            out, _ = attend_full(q, keys, values, cfg.head_config)
            x = x + out @ weights.wo[layer]
    return cache, x


@pytest.mark.parametrize("n_img, n_txt", [(0, 4), (10, 5), (126, 4)])
def test_batched_prefill_matches_per_token_reference(n_img, n_txt):
    # no image tokens, shorter than one query block, longer than the initial KV capacity
    for seed in (0, 3, 11):
        mc = ModelConfig(seed=seed)
        w = init_model(mc)
        prompt = prompt_token_ids(seed, n_txt, mc.vocab_size)
        s = DecodeSession(w, VanillaPolicy(mc.num_layers))
        s.prefill(n_img, prompt)
        ref, pending = per_token_prefill(w, n_img, prompt)
        assert len(s.cache) == len(ref) == n_img + n_txt
        assert s.cache.n_img == ref.n_img == n_img
        for layer in range(mc.num_layers):
            for got, want in zip(s.cache.full_view(layer), ref.full_view(layer)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s._pending, pending, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_img, prompt", [(4, [1, 999]), (4, [-1, 2]), (-3, [1, 2])])
def test_rejected_prefill_leaves_session_empty(n_img, prompt):
    s = DecodeSession(init_model(ModelConfig(seed=0)), VanillaPolicy(8))
    with pytest.raises(ValueError):
        s.prefill(n_img, prompt)
    assert len(s.cache) == 0
    assert all(s.cache.layer_len(layer) == 0 for layer in range(8))
    s.prefill(4, [1, 2])  # still a fresh session
    assert len(s.cache) == 6


def test_prefill_policy_independent():
    mc = ModelConfig(seed=12)
    w = init_model(mc)
    prompt = prompt_token_ids(12, 4, mc.vocab_size)
    a = DecodeSession(w, VanillaPolicy(8))
    a.prefill(8, prompt)
    b = DecodeSession(w, FixationPolicy(FixationConfig(focal_layer_ratio=0.25), 8))
    b.prefill(8, prompt)
    for layer in range(8):
        ka, va = a.cache.full_view(layer)
        kb, vb = b.cache.full_view(layer)
        assert np.array_equal(ka, kb)
        assert np.array_equal(va, vb)


def test_decode_requires_prefill():
    mc = ModelConfig(seed=0)
    s = DecodeSession(init_model(mc), VanillaPolicy(8))
    with pytest.raises(RuntimeError, match="prefill"):
        s.decode_step()


def test_decode_registers_text_and_grows_cache():
    s = make_vanilla()
    before = len(s.cache)
    s.decode_step()
    assert len(s.cache) == before + 1
    assert s.cache.token_type(before) is TokenType.TEXT
    for layer in range(8):
        assert s.cache.layer_len(layer) == before + 1


def test_generate_lengths_and_determinism():
    a = make_vanilla(seed=6)
    b = make_vanilla(seed=6)
    assert a.generate(0) == []
    seq_a = a.generate(10)
    seq_b = b.generate(10)
    assert len(seq_a) == 10
    assert seq_a == seq_b
    assert a.t == 10


def test_strictly_appending_cache_property():
    s = make_vanilla(seed=13)
    lengths = [len(s.cache)]
    for _ in range(10):
        s.decode_step()
        lengths.append(len(s.cache))
    assert all(b == a + 1 for a, b in zip(lengths, lengths[1:]))


def test_attention_sublayer_flop_contract():
    """Count multiply-accumulate FLOPs at the kernel boundary: per layer per
    step the self-attention sublayer must cost exactly 8h^2 + 4h*s_eff."""
    import fastocr.model as model_mod

    counted = {"proj": 0, "attn": 0, "layers": 0}
    orig_full, orig_gathered = attend_full, attend_gathered

    def counting_full(q, keys, values, cfg):
        counted["attn"] += 4 * cfg.hidden_dim * len(keys)
        counted["layers"] += 1
        return orig_full(q, keys, values, cfg)

    def counting_gathered(q, keys, values, kept, cfg):
        counted["attn"] += 4 * cfg.hidden_dim * len(list(kept))
        counted["layers"] += 1
        return orig_gathered(q, keys, values, kept, cfg)

    mc = ModelConfig(seed=4)
    w = init_model(mc)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=2,
                                        kept_token_ratio=0.25), 8)
    s = DecodeSession(w, pol)
    s.prefill(16, prompt_token_ids(4, 4, mc.vocab_size))

    model_mod.attend_full = counting_full
    model_mod.attend_gathered = counting_gathered
    try:
        s.generate(6)
    finally:
        model_mod.attend_full = orig_full
        model_mod.attend_gathered = orig_gathered

    # four h x h projections per layer-step, charged from the records
    h = mc.hidden_dim
    counted["proj"] = counted["layers"] * 8 * h * h
    from fastocr.flops import measured_breakdown

    br = measured_breakdown(s.records, hidden=h)
    assert counted["layers"] == 6 * 8
    assert counted["proj"] + counted["attn"] == br.total


def test_warmup_hidden_states_match_vanilla():
    mc = ModelConfig(seed=8)
    w = init_model(mc)
    prompt = prompt_token_ids(8, 4, mc.vocab_size)
    sv = DecodeSession(w, VanillaPolicy(8))
    sv.prefill(16, prompt)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=5), 8)
    sp = DecodeSession(w, pol)
    sp.prefill(16, prompt)
    for _ in range(5):
        sv.decode_step()
        sp.decode_step()
    for a, b in zip(sv.logits_log, sp.logits_log):
        assert np.array_equal(a, b)


def test_steady_kept_sets_cover_current_token():
    # the step's own token is registered as text before the pass and must be
    # inside every gathered kept set
    mc = ModelConfig(seed=19)
    w = init_model(mc)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=2,
                                        kept_token_ratio=0.1), 8)
    s = DecodeSession(w, pol)
    s.prefill(16, prompt_token_ids(19, 4, mc.vocab_size))
    s.generate(6)
    for rec in s.records[2:]:
        newest = 16 + 4 + rec.step - 1
        for covered in rec.kept:
            assert newest in covered


def test_kappa_one_partial_focal_bit_equal_to_vanilla():
    # with every image token kept, gathered layers see the full context, so
    # even a sparse focal set must reproduce vanilla exactly
    mc = ModelConfig(seed=23)
    w = init_model(mc)
    prompt = prompt_token_ids(23, 4, mc.vocab_size)
    sv = DecodeSession(w, VanillaPolicy(8))
    sv.prefill(16, prompt)
    ref = sv.generate(12)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=2,
                                        kept_token_ratio=1.0), 8)
    sf = DecodeSession(w, pol)
    sf.prefill(16, prompt)
    assert sf.generate(12) == ref
    for a, b in zip(sv.logits_log, sf.logits_log):
        assert np.array_equal(a, b)


def test_zero_image_tokens_warns(caplog):
    mc = ModelConfig(seed=0)
    w = init_model(mc)
    s = DecodeSession(w, FixationPolicy(FixationConfig(focal_layer_ratio=0.25), 8))
    with caplog.at_level("WARNING", logger="fastocr"):
        s.prefill(0, [1, 2])
    assert any("image tokens" in m for m in caplog.messages)


def test_instrumented_recall_recorded():
    mc = ModelConfig(seed=14)
    w = init_model(mc)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25, warmup_steps=1,
                                        kept_token_ratio=0.25), 8)
    s = DecodeSession(w, pol, instrumented=True)
    s.prefill(16, prompt_token_ids(14, 4, mc.vocab_size))
    s.generate(3)
    steady = s.records[-1]
    assert steady.oracle_recall is not None
    assert len(steady.oracle_recall) == 8
    for mode, r in zip(steady.modes, steady.oracle_recall):
        if mode == "full":
            assert r == 1.0
        else:
            assert 0.0 <= r <= 1.0


def test_trace_recording_rules():
    mc = ModelConfig(seed=0)
    w = init_model(mc)
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.25), 8)
    with pytest.raises(ValueError, match="instrumented"):
        DecodeSession(w, pol, record_trace=True)
    from fastocr.baselines import H2OConfig, H2OPolicy

    with pytest.raises(ValueError, match="eviction"):
        DecodeSession(w, H2OPolicy(H2OConfig(retain_ratio=0.5), 8), record_trace=True)
