import numpy as np
import pytest

from fastocr.kvstore import PolicyContractViolation, SessionCache, TokenType
from fastocr.tracelab import LogicalCache


def make_cache(num_layers=2, hidden=4, eviction=False):
    return SessionCache(num_layers, hidden, eviction_allowed=eviction)


def fill(cache, types):
    for i, t in enumerate(types):
        cache.register_token(t)
        for layer in range(cache.num_layers):
            cache.append(layer, np.full(cache.hidden_dim, float(i)),
                         np.full(cache.hidden_dim, float(-i)))


def registries(num_layers=2, n_img=3, n_txt=2, eviction=False):
    """One token layout as a live SessionCache and as a replay LogicalCache.

    Registry cases loop over both, so the two classes share one contract.
    """
    session = make_cache(num_layers=num_layers, eviction=eviction)
    fill(session, [TokenType.IMAGE] * n_img + [TokenType.TEXT] * n_txt)
    return session, LogicalCache(num_layers, n_img, n_txt, eviction_allowed=eviction)


def test_append_all_layers():
    cache = make_cache()
    cache.register_token(TokenType.TEXT)
    for layer in range(2):
        cache.append(layer, np.zeros(4), np.zeros(4))
        assert cache.layer_len(layer) == 1


def test_append_order():
    cache = make_cache(num_layers=1)
    fill(cache, [TokenType.TEXT, TokenType.TEXT])
    keys, _ = cache.full_view(0)
    np.testing.assert_array_equal(keys[:, 0], [0.0, 1.0])


def test_append_requires_registration():
    cache = make_cache()
    with pytest.raises(RuntimeError, match="register_token"):
        cache.append(0, np.zeros(4), np.zeros(4))


def test_append_dim_and_layer_errors():
    cache = make_cache()
    cache.register_token(TokenType.TEXT)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cache.append(0, np.zeros(3), np.zeros(4))
    with pytest.raises(IndexError, match="layer"):
        cache.append(5, np.zeros(4), np.zeros(4))


def test_registration_partitions():
    cache = make_cache()
    assert cache.register_token(TokenType.IMAGE) == 0
    assert cache.register_token(TokenType.IMAGE) == 1
    assert cache.register_token(TokenType.TEXT) == 2
    # registry-scoped: typed sets cover registered tokens before any append
    np.testing.assert_array_equal(cache.image_positions(0), [0, 1])
    np.testing.assert_array_equal(cache.live_positions(0), [])
    for layer in range(2):
        for _ in range(3):
            cache.append(layer, np.zeros(4), np.zeros(4))
    np.testing.assert_array_equal(cache.image_positions(0), [0, 1])
    np.testing.assert_array_equal(cache.text_positions(0), [2])
    np.testing.assert_array_equal(cache.live_positions(0), [0, 1, 2])


def test_large_registration_counts():
    # image/text split at the scale the cost-model reconstruction assumes
    cache = SessionCache(1, 1)
    for _ in range(3955):
        cache.register_token(TokenType.IMAGE)
    for _ in range(128):
        cache.register_token(TokenType.TEXT)
    assert cache.n_img == 3955
    assert len(cache) == 3955 + 128


def test_full_view_and_errors():
    cache = make_cache(num_layers=1)
    with pytest.raises(ValueError, match="empty"):
        cache.full_view(0)
    fill(cache, [TokenType.IMAGE] * 3)
    keys, values = cache.full_view(0)
    assert keys.shape == (3, 4)
    with pytest.raises(IndexError):
        cache.full_view(7)


def test_gathered_view_matches_full_when_all_kept():
    cache = make_cache(num_layers=1)
    fill(cache, [TokenType.IMAGE, TokenType.TEXT, TokenType.IMAGE])
    k_full, v_full = cache.full_view(0)
    k_g, v_g = cache.gathered_view(0, [0, 1, 2])
    assert np.array_equal(k_full, k_g)
    assert np.array_equal(v_full, v_g)


def test_gathered_view_subsets():
    cache = make_cache(num_layers=1)
    types = [TokenType.IMAGE] * 10 + [TokenType.TEXT] * 2
    fill(cache, types)
    k, _ = cache.gathered_view(0, [0])
    np.testing.assert_array_equal(k[:, 0], [0.0])
    # text tokens plus positions 5 and 9, ascending
    kept = sorted(set(cache.text_positions(0).tolist()) | {5, 9})
    k, _ = cache.gathered_view(0, kept)
    np.testing.assert_array_equal(k[:, 0], [5.0, 9.0, 10.0, 11.0])


def test_gathered_view_errors():
    cache = make_cache(num_layers=1)
    fill(cache, [TokenType.TEXT] * 2)
    with pytest.raises(ValueError, match="empty kept set"):
        cache.gathered_view(0, [])
    with pytest.raises(ValueError, match="stale position"):
        cache.gathered_view(0, [5])


def test_typed_partitions():
    for cache in registries(n_img=3, n_txt=2):
        assert len(cache) == 5 and cache.n_img == 3
        assert cache.token_type(2) == TokenType.IMAGE and cache.token_type(3) == TokenType.TEXT
        for layer in range(2):
            np.testing.assert_array_equal(cache.image_positions(layer), [0, 1, 2])
            np.testing.assert_array_equal(cache.text_positions(layer), [3, 4])
            np.testing.assert_array_equal(cache.live_positions(layer), [0, 1, 2, 3, 4])
        with pytest.raises(IndexError):
            cache.token_type(5)
        with pytest.raises(IndexError, match="layer"):
            cache.image_positions(2)


def test_evict_requires_permission():
    for cache in registries():
        with pytest.raises(PolicyContractViolation, match="policy contract violation"):
            cache.evict([0])


def test_evict_shrinks_views():
    session, logical = registries(num_layers=2, n_img=4, n_txt=0, eviction=True)
    for cache in (session, logical):
        cache.evict([1, 2])
        np.testing.assert_array_equal(cache.image_positions(0), [0, 3])
        np.testing.assert_array_equal(cache.live_positions(1), [0, 3])
        assert cache.unreachable_count(0) == 2
        assert cache.n_img == 4  # registered, not live: eviction never unregisters
    keys, _ = session.full_view(0)
    np.testing.assert_array_equal(keys[:, 0], [0.0, 3.0])


def test_evict_empty_is_noop():
    for cache in registries(n_img=2, n_txt=0, eviction=True):
        cache.evict([])
        assert cache.unreachable_count(0) == 0


def test_double_evict_errors():
    for cache in registries(n_img=3, n_txt=0, eviction=True):
        cache.evict([1])
        with pytest.raises(ValueError, match="already evicted"):
            cache.evict([1])


def test_failed_evict_tombstones_no_layer():
    for cache in registries(n_img=4, n_txt=0, eviction=True):
        cache.evict([3], layers=[1])
        with pytest.raises(ValueError, match="already evicted"):
            cache.evict([3])
        assert [cache.unreachable_count(l) for l in range(2)] == [0, 1]


def test_evict_rejects_invalid_positions():
    for cache in registries(n_img=3, n_txt=2, eviction=True):
        for bad in ([1, 1], [-1], [5]):
            with pytest.raises(ValueError):
                cache.evict(bad)
        with pytest.raises(IndexError, match="layer"):
            cache.evict([0], layers=[2])
        assert [cache.unreachable_count(l) for l in range(2)] == [0, 0]


def test_layer_scoped_eviction():
    for cache in registries(num_layers=3, n_img=4, n_txt=0, eviction=True):
        cache.evict([0, 1], layers=range(1, 3))
        np.testing.assert_array_equal(cache.live_positions(0), [0, 1, 2, 3])
        np.testing.assert_array_equal(cache.live_positions(1), [2, 3])
        np.testing.assert_array_equal(cache.live_positions(2), [2, 3])


def test_gathered_view_rejects_evicted():
    cache = make_cache(num_layers=1, eviction=True)
    fill(cache, [TokenType.IMAGE] * 3)
    cache.evict([1])
    with pytest.raises(ValueError, match="evicted"):
        cache.gathered_view(0, [0, 1])


def test_partition_property():
    rng = np.random.default_rng(8)
    for _ in range(100):
        cache = make_cache(num_layers=1, eviction=True)
        n = int(rng.integers(2, 30))
        types = [TokenType.IMAGE if rng.random() < 0.5 else TokenType.TEXT for _ in range(n)]
        fill(cache, types)
        if rng.random() < 0.5:
            live = cache.live_positions(0)
            k = int(rng.integers(0, max(1, live.size // 2)))
            if k:
                cache.evict(rng.choice(live, size=k, replace=False))
        img = set(cache.image_positions(0).tolist())
        txt = set(cache.text_positions(0).tolist())
        live = set(cache.live_positions(0).tolist())
        assert img | txt == live
        assert not (img & txt)


def test_growth_past_initial_capacity():
    cache = make_cache(num_layers=1)
    fill(cache, [TokenType.TEXT] * 200)
    keys, _ = cache.full_view(0)
    assert keys.shape == (200, 4)
    np.testing.assert_array_equal(keys[:, 0], np.arange(200.0))


def test_extend_matches_appends_and_capacity_follows_registry():
    bulk = make_cache(num_layers=1)
    single = make_cache(num_layers=1)
    fill(single, [TokenType.TEXT] * 130)
    for _ in range(130):
        bulk.register_token(TokenType.TEXT)
    rows = np.arange(130.0)[:, None] * np.ones(4)
    bulk.extend(0, rows[:1], -rows[:1])
    bulk.extend(0, rows[1:], -rows[1:])
    for got, want in zip(bulk.full_view(0), single.full_view(0)):
        np.testing.assert_array_equal(got, want)
    # registering a page doubles every layer to 2048 rows up front, so
    # neither its bulk append nor the decode steps after it reallocate
    page = make_cache(num_layers=2)
    for _ in range(1041):
        page.register_token(TokenType.IMAGE)
    buffers = [page._keys[0], page._values[1]]
    assert [b.shape[0] for b in buffers] == [2048, 2048]
    for layer in range(2):
        page.extend(layer, np.zeros((1040, 4)), np.zeros((1040, 4)))
        page.append(layer, np.ones(4), np.ones(4))
    assert page._keys[0] is buffers[0] and page._values[1] is buffers[1]
    assert page.layer_len(0) == page.layer_len(1) == 1041


def test_extend_errors():
    cache = make_cache()
    cache.register_token(TokenType.TEXT)
    with pytest.raises(RuntimeError, match="register_token"):
        cache.extend(0, np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cache.extend(0, np.zeros((1, 4)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cache.extend(0, np.zeros(4), np.zeros(4))
    with pytest.raises(IndexError, match="layer"):
        cache.extend(2, np.zeros((1, 4)), np.zeros((1, 4)))
    assert cache.layer_len(0) == 0
