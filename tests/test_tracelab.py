import numpy as np
import pytest

from fastocr.baselines import H2OConfig, H2OPolicy
from fastocr.metrics import kept_set_jaccard
from fastocr.model import DecodeSession, ModelConfig, init_model, prompt_token_ids
from fastocr.policy import FixationConfig, FixationPolicy, VanillaPolicy
from fastocr.tracelab import (LogicalCache, PlantedConfig, TraceParseError, generate_trace,
                              planted_trace_file, read_trace, replay, toy_trace_file,
                              write_trace)


def planted(**kwargs):
    base = dict(num_layers=6, num_image_tokens=40, num_text_tokens=8,
                focal_like_layers=(2, 4), num_steps=8, seed=0,
                window_center=10.0, window_sigma=3.0)
    base.update(kwargs)
    return PlantedConfig(**base)


def test_weight_vectors_normalized():
    trace = generate_trace(planted(noise=0.3, drift=0.7))
    sums = trace.weights.sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert np.all(trace.weights >= 0)


def test_mass_split_exact_under_noise():
    trace = generate_trace(planted(noise=0.05))
    img_mass = trace.weights[:, :, :40].sum(axis=2)
    for layer in range(6):
        expect = 0.422 if layer in (2, 4) else 0.143
        np.testing.assert_allclose(img_mass[:, layer], expect, atol=1e-9)


def test_static_window_keeps_drift_jaccard_one():
    cfg = planted(drift=0.0, noise=0.0, num_steps=5)
    trace = generate_trace(cfg)
    assert np.all(trace.centers == 10.0)
    top = [np.argsort(-trace.weights[s, 2, :40])[:8] for s in range(5)]
    for a, b in zip(top, top[1:]):
        assert kept_set_jaccard(a, b) == 1.0


def test_gaussian_symmetry_top5():
    cfg = planted(num_image_tokens=100, num_text_tokens=8, window_center=10.0,
                  window_sigma=3.0, noise=0.0)
    trace = generate_trace(cfg)
    w = trace.weights[0, 0, :100]
    order = np.lexsort((np.arange(100), -w))
    assert set(order[:5].tolist()) == {8, 9, 10, 11, 12}


def test_drift_clamps_at_edges():
    cfg = planted(window_center=38.0, drift=3.0, num_steps=4)
    trace = generate_trace(cfg)
    np.testing.assert_array_equal(trace.centers, [38.0, 39.0, 39.0, 39.0])


def test_sigma_zero_point_mass():
    cfg = planted(window_sigma=0.0, noise=0.0)
    trace = generate_trace(cfg)
    w = trace.weights[0, 0, :40]
    assert w[10] == pytest.approx(0.143, abs=1e-12)
    assert np.count_nonzero(w) == 1


def test_separability_property():
    # focal-like layers strictly exceed the others in mean warmup ratio
    for seed in range(100):
        trace = generate_trace(planted(seed=seed, noise=0.05, num_steps=3))
        img_mass = trace.weights[:, :, :40].sum(axis=2).mean(axis=0)
        focal = img_mass[[2, 4]]
        rest = np.delete(img_mass, [2, 4])
        assert focal.min() > rest.max()


def test_noise_is_seeded():
    a = generate_trace(planted(noise=0.1, seed=1))
    b = generate_trace(planted(noise=0.1, seed=1))
    c = generate_trace(planted(noise=0.1, seed=2))
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_config_validation():
    with pytest.raises(ValueError):
        planted(noise=1.0)
    with pytest.raises(ValueError):
        planted(focal_like_layers=(9,))
    with pytest.raises(ValueError):
        planted(image_mass_focal=0.0)


# -- trace files --------------------------------------------------------------------


def test_round_trip_exact(tmp_path):
    trace = generate_trace(planted(noise=0.2, drift=0.5))
    tf = planted_trace_file(trace)
    path = tmp_path / "trace.txt"
    write_trace(tf, str(path))
    back = read_trace(str(path))
    assert back.num_layers == 6
    assert back.source == "planted"
    for key, w in tf.records.items():
        assert np.array_equal(back.records[key], w), key


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#wrong v1\n")
    with pytest.raises(TraceParseError, match="malformed header"):
        read_trace(str(path))


def test_truncated_record_reports_line(tmp_path):
    trace = generate_trace(planted(num_steps=2))
    tf = planted_trace_file(trace)
    path = tmp_path / "trace.txt"
    write_trace(tf, str(path))
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:40]  # chop a weight vector mid-number
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 4"):
        read_trace(str(path))


def test_grid_gap_detected(tmp_path):
    trace = generate_trace(planted(num_steps=2))
    tf = planted_trace_file(trace)
    path = tmp_path / "trace.txt"
    write_trace(tf, str(path))
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="grid gap"):
        read_trace(str(path))


def test_header_body_length_mismatch(tmp_path):
    trace = generate_trace(planted(num_steps=1))
    tf = planted_trace_file(trace)
    tf.num_image_tokens += 1  # header no longer matches the vectors
    path = tmp_path / "trace.txt"
    write_trace(tf, str(path))
    with pytest.raises(TraceParseError, match="expected"):
        read_trace(str(path))


def test_toy_trace_round_trip(tmp_path):
    mc = ModelConfig(seed=3)
    w = init_model(mc)
    s = DecodeSession(w, VanillaPolicy(8), record_trace=True)
    s.prefill(8, prompt_token_ids(3, 4, mc.vocab_size))
    s.generate(3)
    tf = toy_trace_file(s)
    assert tf.source == "toy-model"
    assert tf.num_image_tokens == 8
    assert tf.num_text_tokens == 4
    # context grows by one per step
    assert tf.records[(1, 0)].size == 13
    assert tf.records[(3, 0)].size == 15
    path = tmp_path / "toy.txt"
    write_trace(tf, str(path))
    back = read_trace(str(path))
    assert np.array_equal(back.records[(2, 5)], tf.records[(2, 5)])


# -- replay -------------------------------------------------------------------------


def test_replayed_live_trace_makes_the_live_decisions(tmp_path):
    # differential oracle: a vanilla session's recorded trace, replayed
    # through the fixation policy, freezes what the live policy freezes
    fix = FixationConfig(focal_layer_ratio=0.25, warmup_steps=10)
    for seed in range(4):
        mc = ModelConfig(seed=seed)
        w = init_model(mc)
        prompt = prompt_token_ids(seed, 8, mc.vocab_size)
        recorded = DecodeSession(w, VanillaPolicy(mc.num_layers), record_trace=True)
        recorded.prefill(64, prompt)
        recorded.generate(20)
        path = tmp_path / f"toy-{seed}.txt"
        write_trace(toy_trace_file(recorded), str(path))
        replayed = FixationPolicy(fix, mc.num_layers)
        replay(read_trace(str(path)), replayed)
        live = FixationPolicy(fix, mc.num_layers)
        session = DecodeSession(w, live)
        session.prefill(64, prompt)
        session.generate(20)
        assert replayed.focal_set.layers == live.focal_set.layers
        np.testing.assert_allclose(replayed.state.warmup.mean_ratios(),
                                   live.state.warmup.mean_ratios(), rtol=0, atol=1e-12)


def test_replay_recovers_planted_layers():
    for seed in range(5):
        cfg = planted(num_layers=10, focal_like_layers=(2, 5, 7), num_steps=12,
                      seed=seed, noise=0.05, drift=1.0)
        tf = planted_trace_file(generate_trace(cfg))
        pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.3, focal_gap=1,
                                            kept_token_ratio=0.05, warmup_steps=10), 10)
        replay(tf, pol)
        assert pol.focal_set.layers == (2, 5, 7)


def test_replay_kappa_one_keeps_all_images():
    tf = planted_trace_file(generate_trace(planted(num_steps=6)))
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=1.0 / 6.0, kept_token_ratio=1.0,
                                        warmup_steps=2), 6)
    records = replay(tf, pol)
    for rec in records[2:]:
        for mode, covered in zip(rec.modes, rec.kept):
            assert covered.size == 48  # every image and text position


def test_replay_warmup_only_prefix_never_prunes():
    tf = planted_trace_file(generate_trace(planted(num_steps=10)))
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=0.5, warmup_steps=10), 6)
    records = replay(tf, pol)
    assert all(rec.modes == ["full"] * 6 for rec in records)
    assert pol.focal_set is None


def test_replay_insufficient_warmup():
    tf = planted_trace_file(generate_trace(planted(num_steps=4)))
    pol = FixationPolicy(FixationConfig(warmup_steps=10), 6)
    with pytest.raises(ValueError, match="insufficient warmup data"):
        replay(tf, pol)


def test_replay_h2o_evicts_logically():
    tf = planted_trace_file(generate_trace(planted(num_steps=6)))
    pol = H2OPolicy(H2OConfig(retain_ratio=0.2), 6)
    records = replay(tf, pol)
    assert records[-1].kept[0].size < 48


def test_replay_fastv_layer_scoped_eviction():
    from fastocr.baselines import FastVConfig, FastVPolicy

    tf = planted_trace_file(generate_trace(planted(num_steps=4)))
    pol = FastVPolicy(FastVConfig(prune_layer=2, prune_ratio=0.5), 6)
    records = replay(tf, pol)
    evicted = 20  # floor(0.5 * 40) image tokens
    for rec in records:
        for layer in range(2):
            assert rec.kept[layer].size == 48
        for layer in range(2, 6):
            if rec.step == 1 and layer == 2:
                assert rec.kept[layer].size == 48  # scores taken before eviction
            else:
                assert rec.kept[layer].size == 48 - evicted


def test_window_coverage_recall():
    # kappa*N >= 6*sigma with no noise: every position within +-sigma of the
    # center is inside the focal selection at each steady step
    cfg = planted(num_image_tokens=40, window_sigma=2.0, drift=1.0, noise=0.0,
                  window_center=5.0, num_steps=8, focal_like_layers=(2, 4))
    tf = planted_trace_file(generate_trace(cfg))
    pol = FixationPolicy(FixationConfig(focal_layer_ratio=2.0 / 6.0, kept_token_ratio=0.5,
                                        warmup_steps=2), 6)
    records = replay(tf, pol)
    trace = generate_trace(cfg)
    for rec in records[2:]:
        center = trace.centers[rec.step - 1]
        window = set(range(int(np.floor(center - 2.0)), int(np.ceil(center + 2.0)) + 1))
        window &= set(range(40))
        for layer in (2, 4):
            assert window <= set(rec.focal_tokens[layer].tolist())
