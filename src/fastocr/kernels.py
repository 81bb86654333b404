"""Numeric backend for the attention kernels.

The per-layer multi-head attention of one query over the cached context is
the inner loop of every decode step. Two interchangeable implementations are
provided:

* a numba ``@njit`` kernel (default when numba imports cleanly), and
* a pure-numpy fallback.

Selection is controlled by the ``FASTOCR_NUMBA`` environment variable at
import time: set it to ``0``/``false``/``no`` to force the numpy path.
Both paths use identical 64-bit arithmetic and the same max-subtraction
softmax; they may differ in the last ulp because BLAS and the scalar loop
reduce in different orders. ``benchmarks/bench_kernels.py`` times both and
reports their agreement.

Prefill attends every prompt position at once: ``mha_attend_causal`` runs
causal multi-head attention for a whole block of rows in numpy, whatever the
backend. It works through the queries in blocks of ``CAUSAL_BLOCK_ROWS``
rows, so its score buffer holds heads x 32 x context entries (about 1 MB for
4 heads over a 1040-token page) in place of heads x context^2. Each row
agrees with the per-query kernel on that row's prefix to rounding, not bit
for bit, because the products are reduced in a different order.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_FLAG = "FASTOCR_NUMBA"

# query rows per block of the causal prefill kernel
CAUSAL_BLOCK_ROWS = 32


def _env_allows_numba() -> bool:
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in ("0", "false", "no")


def mha_attend_numpy(query, keys, values, num_heads):
    """Multi-head scaled dot-product attention of one query over a context.

    query: (h,), keys/values: (n, h) with h = num_heads * head_dim.
    Returns (output (h,), per_head_weights (num_heads, n)).
    """
    n, hidden = keys.shape
    head_dim = hidden // num_heads
    q = query.reshape(num_heads, head_dim)
    k = keys.reshape(n, num_heads, head_dim).transpose(1, 0, 2)
    v = values.reshape(n, num_heads, head_dim).transpose(1, 0, 2)
    scores = np.einsum("hnd,hd->hn", k, q) / math.sqrt(head_dim)
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    out = np.einsum("hn,hnd->hd", scores, v).reshape(hidden)
    return out, scores


def mha_attend_causal(queries, keys, values, num_heads):
    """Causal multi-head attention of n queries over n positions.

    queries/keys/values: (n, h); row i attends positions 0..i. Returns the
    output rows (n, h).
    """
    n, hidden = keys.shape
    head_dim = hidden // num_heads
    q, k, v = (a.reshape(n, num_heads, head_dim).transpose(1, 0, 2)
               for a in (queries, keys, values))
    q = q / math.sqrt(head_dim)
    k_t = np.ascontiguousarray(k.transpose(0, 2, 1))  # (heads, head_dim, n)
    v = np.ascontiguousarray(v)
    out = np.empty((num_heads, n, head_dim))
    future = np.triu(np.ones((CAUSAL_BLOCK_ROWS, CAUSAL_BLOCK_ROWS), dtype=bool), 1)
    for start in range(0, n, CAUSAL_BLOCK_ROWS):
        stop = min(start + CAUSAL_BLOCK_ROWS, n)
        rows = stop - start
        scores = q[:, start:stop] @ k_t[:, :, :stop]  # (heads, rows, stop)
        scores[:, :, start:][:, future[:rows, :rows]] = -np.inf
        scores -= scores.max(axis=2, keepdims=True)
        np.exp(scores, out=scores)
        block = scores @ v[:, :stop]
        block /= scores.sum(axis=2, keepdims=True)
        out[:, start:stop] = block
    return out.transpose(1, 0, 2).reshape(n, hidden)


def _mha_attend_loops(query, keys, values, num_heads):
    n, hidden = keys.shape
    head_dim = hidden // num_heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    weights = np.empty((num_heads, n), dtype=np.float64)
    out = np.empty(hidden, dtype=np.float64)
    for h in range(num_heads):
        base = h * head_dim
        hi = -1.0e308
        for j in range(n):
            s = 0.0
            for d in range(head_dim):
                s += query[base + d] * keys[j, base + d]
            s *= inv_sqrt
            weights[h, j] = s
            if s > hi:
                hi = s
        z = 0.0
        for j in range(n):
            e = math.exp(weights[h, j] - hi)
            weights[h, j] = e
            z += e
        for j in range(n):
            weights[h, j] /= z
        for d in range(head_dim):
            acc = 0.0
            for j in range(n):
                acc += weights[h, j] * values[j, base + d]
            out[base + d] = acc
    return out, weights


_HAS_NUMBA = False
_mha_attend_njit = None
if _env_allows_numba():
    try:
        import numba

        _mha_attend_njit = numba.njit(cache=True)(_mha_attend_loops)
        _HAS_NUMBA = True
    except ImportError:
        _HAS_NUMBA = False

if _HAS_NUMBA:
    mha_attend = _mha_attend_njit
    _BACKEND = "numba"
else:
    mha_attend = mha_attend_numpy
    _BACKEND = "numpy"


def backend_name() -> str:
    """Active kernel backend, recorded in run reports."""
    return _BACKEND


def warmup_kernels():
    """Trigger JIT compilation so timed code paths never pay it."""
    q = np.zeros(4, dtype=np.float64)
    kv = np.zeros((2, 4), dtype=np.float64)
    mha_attend(q, kv, kv, 2)
