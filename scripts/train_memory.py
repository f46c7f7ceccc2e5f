#!/usr/bin/env python3
"""Peak RSS of each command that trains the Fisher + RN pipeline, each in a fresh process.

perfbench's ``peak_rss_mb`` is the largest RSS of its whole measured
process, which on fisher-rn trains before it encodes and queries, so it
cannot tell which command sets it. This script writes a held-out corpus
of raw histogram descriptors (``--images`` files of ``--descriptors``
rows of dim ``--dim``; gamma draws around 16 fixed prototypes, so that
the GMM has clusters to find) and runs the commands fisher-rn trains
with, each as ``covagg.cli.main`` in its own child process:

* ``train-pca --out-dim P``;
* ``train-gmm --pca --k K --iters I``;
* ``encode`` of the held-out corpus by Fisher with N = 3 and a plain
  power law of 0.4;
* ``train-rn --exponent 0.5`` on those vectors.

Prints one JSON object: per command its peak RSS in MB (the child's
``ru_maxrss``), its wall time and the sha256 of its output, so that runs
of two source trees can be compared (with the same ``--work``, since a
vector file records the absolute paths of its models); and the BLAS
thread variables of the environment. Set them (for example ``OPENBLAS_NUM_THREADS=1``) when you
run it:

    OPENBLAS_NUM_THREADS=1 python3 scripts/train_memory.py

The defaults give fisher-rn's held-out shape and models. The corpus and
the outputs go to a temporary directory, or to ``--work DIR``, which is
kept.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from covagg.descriptors import DescriptorSet
from covagg.fileio import write_descriptor_file

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N_PROTOTYPES = 16

# Runs one command line in the child and prints its peak RSS (kB on Linux) last.
CHILD = (
    "import resource, sys\n"
    "from covagg.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n"
)


def write_corpus(out_dir: Path, images: int, descriptors: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    shapes = 0.2 + 4.0 * dim * rng.dirichlet(np.full(dim, 0.5), size=N_PROTOTYPES)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(images):
        proto = rng.integers(0, N_PROTOTYPES, size=descriptors)
        rows = rng.gamma(shapes[proto], 1.0) + 1e-3
        angles = rng.uniform(-np.pi, np.pi, size=descriptors)
        dset = DescriptorSet(rows, angles, image_id=f"h{i:05d}", raw=True)
        write_descriptor_file(dset, out_dir / f"h{i:05d}.cvd")


def commands(args, corpus: Path, work: Path) -> list:
    """(name, argv, output) of each command, in the order they depend on each other."""
    pca, gmm, vectors, rn = (work / name for name in ("pca.cvm", "gmm.cvm", "heldout.cvv", "rn.cvm"))
    return [
        ("train-pca", ["train-pca", "--train-descriptors", str(corpus),
                       "--out-dim", str(args.pca_dim), "--out", str(pca)], pca),
        ("train-gmm", ["train-gmm", "--train-descriptors", str(corpus), "--k", str(args.k),
                       "--iters", str(args.iters), "--pca", str(pca), "--out", str(gmm)], gmm),
        ("encode", ["encode", str(corpus), "--out", str(vectors), "--family", "fisher",
                    "--kappa", "8.0", "--nfreq", "3", "--power-law", "0.4",
                    "--pca", str(pca), "--gmm", str(gmm)], vectors),
        ("train-rn", ["train-rn", "--vectors", str(vectors), "--exponent", "0.5",
                      "--out", str(rn)], rn),
    ]


def run(argv: list) -> tuple:
    """Peak RSS in MB and wall time in s of ``covagg.cli.main(argv)`` in a fresh process."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"{argv[0]} failed with exit code {result.returncode}:\n{result.stderr}")
    return int(result.stdout.split()[-1]) / 1024.0, seconds


def measure(args, work: Path) -> list:
    corpus = work / "heldout"
    write_corpus(corpus, args.images, args.descriptors, args.dim, args.seed)
    results = []
    for name, argv, output in commands(args, corpus, work):
        peak_mb, seconds = run(argv)
        results.append({
            "command": name,
            "peak_rss_mb": round(peak_mb, 1),
            "seconds": round(seconds, 3),
            "sha256": hashlib.sha256(output.read_bytes()).hexdigest(),
        })
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--images", type=int, default=1400, help="held-out files (default: %(default)s)")
    parser.add_argument("--descriptors", type=int, default=64, help="descriptors per file (default: %(default)s)")
    parser.add_argument("--dim", type=int, default=64, help="raw descriptor dim (default: %(default)s)")
    parser.add_argument("--pca-dim", type=int, default=24, help="(default: %(default)s)")
    parser.add_argument("--k", type=int, default=8, help="GMM components (default: %(default)s)")
    parser.add_argument("--iters", type=int, default=50, help="EM iterations (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1, help="corpus seed (default: %(default)s)")
    parser.add_argument("--work", default=None, metavar="DIR",
                        help="keep the corpus and the outputs here (default: a temporary directory)")
    args = parser.parse_args()
    threads = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    if args.work is None:
        with tempfile.TemporaryDirectory(prefix="train-memory-") as work:
            results = measure(args, Path(work))
    else:
        results = measure(args, Path(args.work))
    print(json.dumps({"threads": threads, "results": results}, indent=1))


if __name__ == "__main__":
    main()
