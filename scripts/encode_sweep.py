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

With ``--per-image`` it times ``encode``'s whole in-process path instead,
at phi2-bigdb's shape: ``--images`` files of 64 random unit descriptors
of dim 32, written to a temporary directory, encoded by phi2 with N = 3
and the plain power law in blocks of ``ROWS_BYTES``. It reports the best
and median over ``--repeats`` runs, in microseconds per image, of each
stage on its own (``read``: parsing the files; ``aggregate``: filling the
blocks' rows; ``postprocess``: the power law on the filled blocks) and
of ``encode``, which reads and encodes block by block as ``covagg
encode`` does:

    OPENBLAS_NUM_THREADS=1 python3 scripts/encode_sweep.py --per-image --images 2000
"""

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from covagg import AngleMapConfig, DescriptorSet, Pipeline, PipelineConfig, fourier_coeffs
from covagg.cli import ROWS_BYTES
from covagg.fileio import read_descriptor_file, write_descriptor_file
from covagg.monomial import MonomialConfig
from covagg.postprocess import RnModel

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N_FREQ = 3


def pipelines(rng):
    """(name, pipeline) per fixed shape; each modulated row is 7 blocks wide."""
    coeffs = fourier_coeffs(AngleMapConfig(n_freq=N_FREQ))

    def make(width, **post):
        embedding = MonomialConfig(degree=1, input_dim=width // (2 * N_FREQ + 1))
        return Pipeline(embedding=embedding, coeffs=coeffs, **post)

    rotation, _ = np.linalg.qr(rng.standard_normal((1344, 1344)))
    rn = RnModel(rotation=rotation, exponent=0.5).leading_rows(512)
    return [
        ("rn", make(1344, power_exponent=0.4, rn=rn, truncate_dim=512)),
        ("power-law", make(3696, power_exponent=0.2)),
        ("identity", make(41888, power_exponent=0.2, adapted=True)),
    ]


def in_blocks(pipeline, rows, block_rows):
    # _postprocess_rows overwrites the rows it takes
    return np.concatenate([
        pipeline._postprocess_rows(rows[start : start + block_rows].copy())
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


def per_image(images, repeats, rng):
    """Best and median microseconds per image of each stage of ``encode`` at phi2-bigdb's shape."""
    pipeline = PipelineConfig(family="phi2", input_dim=32, power_law=0.2).build()
    block_rows = max(1, ROWS_BYTES // (8 * pipeline.modulated_dim))
    starts = range(0, images, block_rows)

    def timed(func, fresh=lambda: None):
        times = []
        for _ in range(repeats):
            args = fresh()
            start = time.perf_counter()
            func(args)
            times.append(1e6 * (time.perf_counter() - start) / images)
        return {"best_us": round(min(times), 2), "median_us": round(float(np.median(times)), 2)}

    def aggregate(dsets):
        return [pipeline._modulated_rows(dsets[lo : lo + block_rows], len(dsets[lo : lo + block_rows]))
                for lo in starts]

    def encode(_):
        for lo in starts:
            block = paths[lo : lo + block_rows]
            pipeline.encode_block((read_descriptor_file(path) for path in block), len(block))

    with tempfile.TemporaryDirectory() as folder:
        paths = [Path(folder) / f"img{i:06d}.cvd" for i in range(images)]
        for path in paths:
            rows = rng.standard_normal((64, 32))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            write_descriptor_file(DescriptorSet(rows, rng.uniform(-np.pi, np.pi, 64)), path)
        dsets = [read_descriptor_file(path) for path in paths]
        blocks = aggregate(dsets)
        stages = {
            "read": timed(lambda _: [read_descriptor_file(path) for path in paths]),
            "aggregate": timed(lambda _: aggregate(dsets)),
            # the power law overwrites the blocks it takes, so each run takes fresh copies
            "postprocess": timed(lambda copies: [pipeline._postprocess_rows(b) for b in copies],
                                 lambda: [block.copy() for block in blocks]),
            "encode": timed(encode),
        }
    return {"images": images, "descriptors": 64, "dim": 32, "rows_per_block": block_rows,
            "stages": stages}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--rows", type=int, default=1000, help="rows per width (default: %(default)s)")
    parser.add_argument("--blocks", nargs="+", type=int, default=[1, 8, 24, 48, 97, 256],
                        help="rows per block (default: %(default)s)")
    parser.add_argument("--max-mib", type=int, default=64, help="bound on the rows of one width")
    parser.add_argument("--repeats", type=int, default=5, help="runs per timing (best-of-k)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-image", action="store_true",
                        help="time encode's stages per image at phi2-bigdb's shape instead")
    parser.add_argument("--images", type=int, default=2000,
                        help="files of the --per-image corpus (default: %(default)s)")
    args = parser.parse_args()
    if min(args.rows, args.max_mib, args.repeats, args.images, *args.blocks) < 1:
        parser.error("--rows, --blocks, --max-mib, --repeats and --images must be positive")

    rng = np.random.default_rng(args.seed)
    threads = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    if args.per_image:
        print(json.dumps({"rows_bytes": ROWS_BYTES, "repeats": args.repeats, "threads": threads,
                          **per_image(args.images, args.repeats, rng)}, indent=1))
        return
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
    print(json.dumps({"rows_bytes": ROWS_BYTES, "repeats": args.repeats, "threads": threads,
                      "results": results}, indent=1))


if __name__ == "__main__":
    main()
