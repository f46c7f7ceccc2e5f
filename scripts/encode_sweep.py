#!/usr/bin/env python3
"""Time ``encode``'s post-processing per image against blocks of rows.

``covagg encode`` aggregates each image into one row and post-processes
the rows of a block as one matrix (``Pipeline._postprocess_rows``); a
block holds ``cli.ROWS_BYTES`` of float64 rows. On random rows of fixed
widths, this script times that stage for ``--rows`` rows in blocks of
each ``--blocks`` size, where 1 is one image at a time (every timing
includes stacking the blocks' outputs into one matrix):

* ``rn``: 1344 wide, plain power law 0.4, then RN 0.5 on a random
  rotation sliced to 512 outputs and truncation to 512 (fisher-rn's
  shape);
* ``power-law``: 3696 wide, plain power law 0.2 (phi2-bigdb's shape);
* ``identity``: 41888 wide, adapted power law, so nothing is left to
  post-process (phi3-dense's shape).

Each block's rows are compared with the one-row results: ``max_diff``
is the largest absolute difference. At most ``--max-mib`` MiB of rows
are generated per width, so a wide shape may time fewer rows; the
report gives the count. Prints one JSON object: best-of-k and spread
(max - min) in ms per width and block size, the rows per block that
``ROWS_BYTES`` gives, and the BLAS thread variables of the environment.
Set them (for example ``OPENBLAS_NUM_THREADS=1``) when you run it:

    OPENBLAS_NUM_THREADS=1 python3 scripts/encode_sweep.py --repeats 5
"""

import argparse
import json
import os
import time

import numpy as np

from covagg import AngleMapConfig, Pipeline, fourier_coeffs
from covagg.cli import ROWS_BYTES
from covagg.monomial import MonomialConfig
from covagg.postprocess import RnModel

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N_FREQ = 3


def pipelines(rng):
    """(name, pipeline) per fixed shape; each modulated row is 7 blocks wide."""
    coeffs = fourier_coeffs(AngleMapConfig(n_freq=N_FREQ))

    def make(width, **post):
        embedding = MonomialConfig(degree=1, input_dim=width // (2 * N_FREQ + 1))
        return Pipeline(family="phi1", embedding=embedding, coeffs=coeffs, **post)

    rotation, _ = np.linalg.qr(rng.standard_normal((1344, 1344)))
    rn = RnModel(rotation=rotation, exponent=0.5).leading_rows(512)
    return [
        ("rn", make(1344, power_exponent=0.4, rn=rn, truncate_dim=512)),
        ("power-law", make(3696, power_exponent=0.2)),
        ("identity", make(41888, power_exponent=0.2, adapted=True)),
    ]


def in_blocks(pipeline, rows, block_rows):
    return np.concatenate([
        pipeline._postprocess_rows(rows[start : start + block_rows])
        for start in range(0, rows.shape[0], block_rows)
    ])


def best_and_spread(func, repeats):
    """Best and max - min wall time of ``func()`` over ``repeats`` runs, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(1e3 * (time.perf_counter() - start))
    return {"best_ms": round(min(times), 4), "spread_ms": round(max(times) - min(times), 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--rows", type=int, default=1000, help="rows per width (default: %(default)s)")
    parser.add_argument("--blocks", nargs="+", type=int, default=[1, 8, 24, 48, 97, 256],
                        help="rows per block (default: %(default)s)")
    parser.add_argument("--max-mib", type=int, default=64, help="bound on the rows of one width")
    parser.add_argument("--repeats", type=int, default=5, help="runs per timing (best-of-k)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if min(args.rows, args.max_mib, args.repeats, *args.blocks) < 1:
        parser.error("--rows, --blocks, --max-mib and --repeats must be positive")

    rng = np.random.default_rng(args.seed)
    results = []
    for name, pipeline in pipelines(rng):
        width = pipeline.modulated_dim
        n_rows = min(args.rows, max(1, (args.max_mib << 20) // (8 * width)))
        rows = rng.standard_normal((n_rows, width))
        one_by_one = in_blocks(pipeline, rows, 1)
        blocks = []
        for block_rows in args.blocks:
            timing = best_and_spread(lambda: in_blocks(pipeline, rows, block_rows), args.repeats)
            diff = np.max(np.abs(in_blocks(pipeline, rows, block_rows) - one_by_one))
            blocks.append({"rows_per_block": block_rows, "block_bytes": 8 * width * block_rows,
                           **timing, "max_diff": float(diff)})
        results.append({"pipeline": name, "width": width, "output_dim": pipeline.output_dim,
                        "rows": n_rows, "rows_bytes_block": max(1, ROWS_BYTES // (8 * width)),
                        "blocks": blocks})
        del rows, one_by_one
    threads = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    print(json.dumps({"rows_bytes": ROWS_BYTES, "repeats": args.repeats, "threads": threads,
                      "results": results}, indent=1))


if __name__ == "__main__":
    main()
