import os
import subprocess
import sys

import numpy as np

from fastocr.kernels import (CAUSAL_BLOCK_ROWS, _HAS_NUMBA, _mha_attend_loops, backend_name,
                             mha_attend, mha_attend_causal, mha_attend_numpy)


def test_backend_reports_name():
    assert backend_name() in ("numba", "numpy")


def test_active_backend_matches_availability():
    if _HAS_NUMBA:
        assert backend_name() == "numba"


def test_numpy_and_active_backend_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        hidden, heads = 32, 4
        q = rng.normal(size=hidden)
        k = rng.normal(size=(n, hidden))
        v = rng.normal(size=(n, hidden))
        out_a, w_a = mha_attend(q, k, v, heads)
        out_b, w_b = mha_attend_numpy(q, k, v, heads)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)
        np.testing.assert_allclose(w_a, w_b, atol=1e-13)
        np.testing.assert_allclose(w_a.sum(axis=1), 1.0, atol=1e-12)


def test_env_flag_forces_numpy_fallback():
    code = ("import fastocr.kernels as k; "
            "print(k.backend_name())")
    env = dict(os.environ, FASTOCR_NUMBA="0")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


def test_generated_sequence_backend_independent():
    # ulp-level kernel differences must not flip any greedy decision at desk scale
    code = (
        "from fastocr import (DecodeSession, ModelConfig, VanillaPolicy, init_model, "
        "prompt_token_ids)\n"
        "mc = ModelConfig(seed=5)\n"
        "s = DecodeSession(init_model(mc), VanillaPolicy(8))\n"
        "s.prefill(32, prompt_token_ids(5, 4, mc.vocab_size))\n"
        "print(s.generate(20))\n")
    results = []
    for flag in ("1", "0"):
        env = dict(os.environ, FASTOCR_NUMBA=flag)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        results.append(out.stdout.strip())
    assert results[0] == results[1]


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
