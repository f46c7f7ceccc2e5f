#!/usr/bin/env python3
"""Time the two ways ``query_multi_rotation`` can score a store with a plain power law.

For every database shape and rotation count R it times, on random data:

* ``rows``: the R post-processed query rows against the store
  (``scoring._rotated_row_scores``, the path wherever
  ``Pipeline.commuting_turns`` gives 1: RN, truncation, and a plain power
  law unless 4 | R);
* ``turns``: the R / g base rows through the coefficient kernel, each
  read off at its g = gcd(R, 4) turns (``scoring._turn_scores``). The
  entry records ``n_turns`` (g) and ``picked``, whether
  ``commuting_turns`` sends a plain-power-law store there; it does at
  4 | R only, and the half turns (g = 2) stay in the sweep as the
  measurement behind that. A shape whose width is not a multiple of
  2N + 1 has no block layout and times ``rows`` only.

Prints one JSON object: best-of-k and spread (max - min) in ms per
(shape, R) and path, with the BLAS thread variables of the environment.
Set them (for example ``OPENBLAS_NUM_THREADS=1``) when you run it:

    OPENBLAS_NUM_THREADS=1 python3 scripts/scoring_sweep.py --repeats 7
"""

import argparse
import json
import math
import os
import time

import numpy as np

from covagg import AngleMapConfig, MonomialConfig, Pipeline, fourier_coeffs, scoring

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_shape(text):
    n_db, dim = (int(part) for part in text.lower().split("x"))
    return n_db, dim


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
    parser.add_argument("--shapes", nargs="+", type=parse_shape,
                        default=[(10000, 3696), (1000, 512), (48, 41888), (1, 41888)],
                        help="database shapes as n_db x dim (default: %(default)s)")
    parser.add_argument("--rotations", nargs="+", type=int, default=[1, 2, 4, 6, 8, 12, 16, 32])
    parser.add_argument("--nfreq", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5, help="runs per timing (best-of-k)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.repeats < 1 or args.nfreq < 0 or min(args.rotations) < 1:
        parser.error("--repeats and --rotations must be positive, --nfreq non-negative")

    rng = np.random.default_rng(args.seed)
    n_blocks = 2 * args.nfreq + 1
    # the turn rule reads the stages, not the widths, so one plain-power-law pipeline serves
    coeffs = fourier_coeffs(AngleMapConfig(n_freq=args.nfreq))
    plain = Pipeline(MonomialConfig(1, 1), coeffs, power_exponent=0.5)
    results = []
    for n_db, dim in args.shapes:
        db = rng.standard_normal((n_db, dim)) / math.sqrt(dim)
        for n_rot in args.rotations:
            rows = rng.standard_normal((n_rot, dim)) / math.sqrt(dim)
            entry = {"n_db": n_db, "dim": dim, "n_rot": n_rot,
                     "rows": best_and_spread(lambda: scoring._rotated_row_scores(rows, db), args.repeats)}
            if dim % n_blocks == 0:
                n_turns = math.gcd(n_rot, 4)
                base = rows[: n_rot // n_turns]
                entry["turns"] = best_and_spread(
                    lambda: scoring._turn_scores(base, db, n_turns, dim // n_blocks, args.nfreq),
                    args.repeats,
                )
                entry["turns"].update(n_turns=n_turns, picked=plain.commuting_turns(n_rot) > 1)
                entry["base_rows"] = base.shape[0]
            results.append(entry)
        del db
    threads = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    print(json.dumps({"n_freq": args.nfreq, "repeats": args.repeats, "threads": threads,
                      "results": results}, indent=1))


if __name__ == "__main__":
    main()
