import numpy as np

from fastocr.cli import _meta
from fastocr.kernels import CAUSAL_BLOCK_ROWS, _mha_attend_loops, mha_attend, mha_attend_causal


def test_backend_reports_name():
    # reports keep their backend field, and numpy is the only kernel backend
    assert _meta("run", {}, "vanilla", {}, [0], False, [])["backend"] == "numpy"


def test_mha_attend_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        hidden, heads = 32, 4
        q = rng.normal(size=hidden)
        k = rng.normal(size=(n, hidden))
        v = rng.normal(size=(n, hidden))
        out_a, w_a = mha_attend(q, k, v, heads)
        out_b, w_b = _mha_attend_loops(q, k, v, heads)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)
        np.testing.assert_allclose(w_a, w_b, atol=1e-13)
        np.testing.assert_allclose(w_a.sum(axis=1), 1.0, atol=1e-12)


def test_causal_rows_match_scalar_oracle_on_prefix():
    # shorter than one query block, block edges, and several blocks plus a tail
    rng = np.random.default_rng(4)
    hidden, heads = 16, 4
    for n in (1, CAUSAL_BLOCK_ROWS - 1, CAUSAL_BLOCK_ROWS, CAUSAL_BLOCK_ROWS + 1, 130):
        q, k, v = (rng.normal(size=(n, hidden)) for _ in range(3))
        out = mha_attend_causal(q, k, v, heads)
        assert out.shape == (n, hidden)
        for i in range(n):
            ref, _ = _mha_attend_loops(q[i], k[: i + 1], v[: i + 1], heads)
            np.testing.assert_allclose(out[i], ref, rtol=0, atol=1e-12)
