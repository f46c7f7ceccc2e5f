#!/usr/bin/env python3
"""Planted-match retrieval benchmark: modulated vs plain aggregation.

Generates a synthetic corpus, encodes it with an increasing number of
angle frequencies, and prints the resulting mAP table. N=0 is the
orientation-blind baseline; rotations only matter for N > 0.
"""

import argparse
import time

import numpy as np

from covagg import (
    AngleMapConfig,
    MonomialConfig,
    Pipeline,
    SynthConfig,
    average_precision,
    fourier_coeffs,
    generate_corpus,
    mean_ap,
    query_multi_rotation,
    rank_by_score,
)


def corpus_map(queries, database, ground_truth, dim, n_freq, n_rot, kappa, exponent):
    coeffs = fourier_coeffs(AngleMapConfig(kappa=kappa, n_freq=n_freq))
    pipe = Pipeline(
        embedding=MonomialConfig(1, dim),
        coeffs=coeffs,
        power_exponent=exponent,
    )
    db = np.stack([pipe.encode(dset) for dset in database])
    ids = [dset.image_id for dset in database]
    aps = []
    for query in queries:
        scores, _ = query_multi_rotation(query, pipe, db, n_rot)
        aps.append(
            average_precision(rank_by_score(ids, scores), ground_truth[query.image_id])
        )
    return mean_ap(aps)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--distractors", type=int, default=152)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--kappa", type=float, default=8.0)
    parser.add_argument("--rotations", type=int, default=8)
    parser.add_argument("--nfreqs", type=int, nargs="+", default=[0, 1, 3, 6])
    parser.add_argument("--power-law", type=float, default=0.2)
    args = parser.parse_args()

    config = SynthConfig(
        n_queries=args.queries,
        n_distractors=args.distractors,
        dim=args.dim,
        seed=args.seed,
    )
    queries, database, ground_truth = generate_corpus(config)
    print(
        f"corpus: {len(queries)} queries, {len(database)} database images, "
        f"{config.descriptors_per_image} descriptors each, dim {config.dim}"
    )
    print(f"{'N':>3} {'rotations':>9} {'mAP':>8} {'seconds':>8}")
    for n_freq in args.nfreqs:
        n_rot = 1 if n_freq == 0 else args.rotations
        start = time.perf_counter()
        result = corpus_map(
            queries, database, ground_truth,
            config.dim, n_freq, n_rot, args.kappa, args.power_law,
        )
        elapsed = time.perf_counter() - start
        print(f"{n_freq:>3} {n_rot:>9} {result:>8.4f} {elapsed:>8.2f}")


if __name__ == "__main__":
    main()
