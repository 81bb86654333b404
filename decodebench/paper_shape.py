#!/usr/bin/env python3
"""One paper-shape attention layer: attend_full against attend_gathered.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 decodebench/paper_shape.py

Shape: h=2048, 16 heads, 3955 image + 128 text tokens, and 326 kept positions
(128 text + ceil(0.05 * 3955) image), the split the README derives from the
paper's FLOPs. Prints the median of 15 timed calls of each, after one
untimed call, the time of the kept K/V row gather alone, and the cost
model's attention-product ratios: one layer, and 36 layers of which 3 are
focal. A reference figure for README.md, not a workload.
"""

import json
import statistics
import time

import numpy as np

from fastocr.attention import HeadConfig, attend_full, attend_gathered
from fastocr.flops import fastocr_flops

HIDDEN, HEADS, N_IMG, N_TXT, KEPT, LAYERS, FOCAL = 2048, 16, 3955, 128, 326, 36, 3


def median_ms(fn, repeats=15):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    rng = np.random.default_rng(0)
    n = N_IMG + N_TXT
    query = rng.standard_normal(HIDDEN)
    keys = rng.standard_normal((n, HIDDEN))
    values = rng.standard_normal((n, HIDDEN))
    image = np.sort(rng.choice(N_IMG, KEPT - N_TXT, replace=False))
    kept = np.concatenate([image, np.arange(N_IMG, n)])
    cfg = HeadConfig(num_heads=HEADS, head_dim=HIDDEN // HEADS)
    full = median_ms(lambda: attend_full(query, keys, values, cfg))
    gathered = median_ms(lambda: attend_gathered(query, keys, values, kept, cfg))
    gather = median_ms(lambda: (keys[kept], values[kept]))
    product = lambda br: br.attention_flops
    vanilla = fastocr_flops(1, LAYERS, HIDDEN, n, LAYERS, KEPT)
    pruned = fastocr_flops(1, LAYERS, HIDDEN, n, FOCAL, KEPT)
    print(json.dumps({
        "attend_full_ms": round(full, 3),
        "attend_gathered_ms": round(gathered, 3),
        "kv_row_gather_ms": round(gather, 3),
        "measured_layer_ratio": round(full / gathered, 2),
        "predicted_layer_product_ratio": round(n / KEPT, 2),
        "measured_36_layer_ratio": round(LAYERS * full / (FOCAL * full
                                                          + (LAYERS - FOCAL) * gathered), 2),
        "predicted_36_layer_product_ratio": round(product(vanilla) / product(pruned), 2),
    }))


if __name__ == "__main__":
    main()
