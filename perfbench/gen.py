"""Seeded planted-scene corpora for the benchmark.

Each scene owns a core of descriptors with orientations. Every image of
the scene (database image or query) contains the whole core, perturbed
by noise and turned by one random global rotation per image plus a small
per-descriptor angle jitter; the rest of the image is fresh draws.
Distractor images are fresh draws only. A query's relevant set is the
database images of its scene. The core holds ``shared_fraction`` of the
query's descriptor count, which sets the difficulty.

Two descriptor kinds:

* ``unit``: random unit vectors, for the monomial families; a noisy copy
  is ``x + noise * N(0, I)`` re-normalized.
* ``histogram``: raw non-negative histograms (flag bit 0 set, so the
  program applies RootSIFT); rows are gamma draws around one of a few
  prototypes, and a noisy copy multiplies each bin by
  ``exp(noise * N(0, 1))``. The held-out split uses its own random
  stream and shares no scene with the evaluation corpus.

Files are written with ``covagg.fileio.write_descriptor_file`` only; the
package's own synthetic generator is not used, so changes to it cannot
change the benchmark's inputs.

Usage: ``python3 perfbench/gen.py --spec SPEC.json --seed N --out DIR``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N_PROTOTYPES = 16

# Independent random streams per corpus part, so that changing one part's
# size leaves the others' draws untouched.
_STREAM_EVAL = 0
_STREAM_HELDOUT = 1
_WORLD_SEED = 20140708


def _unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class _Draws:
    """Fresh descriptors and noisy copies for one descriptor kind."""

    def __init__(self, rng, corpus):
        self.rng = rng
        self.kind = corpus["kind"]
        self.dim = corpus["dim"]
        self.noise = corpus["noise"]
        if self.kind == "histogram":
            # The prototypes are the workload's descriptor distribution, not
            # a sample from it: fixed across seeds and shared by both splits.
            world = np.random.default_rng(np.random.SeedSequence([_WORLD_SEED, self.dim]))
            weights = world.dirichlet(np.full(self.dim, 0.5), size=N_PROTOTYPES)
            self.shapes = 0.2 + 4.0 * self.dim * weights
        elif self.kind != "unit":
            raise ValueError(f"unknown descriptor kind {self.kind!r}")

    def fresh(self, n):
        if self.kind == "unit":
            return _unit_rows(self.rng, n, self.dim)
        proto = self.rng.integers(0, N_PROTOTYPES, size=n)
        return self.rng.gamma(self.shapes[proto], 1.0) + 1e-3

    def noisy(self, rows):
        if self.kind == "unit":
            out = rows + self.noise * self.rng.standard_normal(rows.shape)
            return out / np.linalg.norm(out, axis=1)[:, None]
        return rows * np.exp(self.noise * self.rng.standard_normal(rows.shape))


def _image(draws, core, core_angles, m, jitter, image_id):
    from covagg.descriptors import DescriptorSet

    rng = draws.rng
    k = core.shape[0]
    desc = np.empty((m, draws.dim))
    angles = rng.uniform(-np.pi, np.pi, m)
    desc[:k] = draws.noisy(core)
    desc[k:] = draws.fresh(m - k)
    rotation = rng.uniform(-np.pi, np.pi)
    angles[:k] = core_angles - rotation + jitter * rng.standard_normal(k)
    return DescriptorSet(desc, angles, image_id=image_id, raw=draws.kind == "histogram")


def _fresh_image(draws, m, image_id):
    from covagg.descriptors import DescriptorSet

    return DescriptorSet(
        draws.fresh(m),
        draws.rng.uniform(-np.pi, np.pi, m),
        image_id=image_id,
        raw=draws.kind == "histogram",
    )


def build_corpus(corpus: dict, seed: int):
    """(queries, database, heldout, ground_truth) as in-memory descriptor sets.

    ``ground_truth`` maps each query id to the sorted ids of its scene's
    database images.
    """
    root = np.random.SeedSequence([int(seed), _STREAM_EVAL])
    draws = _Draws(np.random.default_rng(root), corpus)
    n_core = max(1, int(round(corpus["shared_fraction"] * corpus["query_descriptors"])))
    jitter = corpus["angle_jitter"]
    queries, database, ground_truth = [], [], {}
    for s in range(corpus["scenes"]):
        core = draws.fresh(n_core)
        core_angles = draws.rng.uniform(-np.pi, np.pi, n_core)
        members = []
        for j in range(corpus["db_per_scene"]):
            image_id = f"s{s:04d}_{j}"
            database.append(
                _image(draws, core, core_angles, corpus["db_descriptors"], jitter, image_id)
            )
            members.append(image_id)
        for j in range(corpus["queries_per_scene"]):
            query_id = f"q{s:04d}_{j}"
            queries.append(
                _image(draws, core, core_angles, corpus["query_descriptors"], jitter, query_id)
            )
            ground_truth[query_id] = sorted(members)
    for i in range(corpus["distractors"]):
        database.append(_fresh_image(draws, corpus["db_descriptors"], f"d{i:05d}"))

    held = _Draws(np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_HELDOUT])), corpus)
    heldout = [
        _fresh_image(held, corpus["heldout_descriptors"], f"h{i:05d}")
        for i in range(corpus["heldout_images"])
    ]
    return queries, database, heldout, ground_truth


def write_corpus(corpus: dict, seed: int, out_dir) -> None:
    """Write ``queries/``, ``database/``, ``heldout/`` and ``groundtruth.txt``."""
    from covagg.fileio import write_descriptor_file

    out_dir = Path(out_dir)
    queries, database, heldout, ground_truth = build_corpus(corpus, seed)
    for sub, sets in (("queries", queries), ("database", database), ("heldout", heldout)):
        if not sets:
            continue
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
        for dset in sets:
            write_descriptor_file(dset, out_dir / sub / f"{dset.image_id}.cvd")
    lines = [
        f"{qid}\trelevant: {','.join(rel)}\tjunk: " for qid, rel in sorted(ground_truth.items())
    ]
    (out_dir / "groundtruth.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload JSON written by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    write_corpus(spec["corpus"], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
