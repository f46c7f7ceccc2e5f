"""Workload definitions shared by the generator, the measured process and the tests.

A workload is a corpus recipe (sizes and difficulty of the planted-scene
inputs), a pipeline configuration and a query-loop shape. Everything is
plain data so that it can travel to the child processes as JSON.

Why each workload exists:

* ``phi3-dense``: heavy per-descriptor math (third-order monomial
  embedding, eight re-modulations per query, adapted power law, the
  rotation polynomial re-scoring of each top 10) over a tiny database,
  so database scoring, ranking and file I/O are negligible.
* ``phi2-bigdb``: a large database of cheap images. Indexing is per-image
  overhead plus the vector-file write, set-up is the vector-file read, and
  queries are the scoring matmul plus ranking 10000 ids; the float64
  database is far larger than L2.
* ``fisher-rn``: the codebook path. PCA, GMM and RN are trained through
  the CLI on a disjoint held-out corpus of raw histogram descriptors;
  every query rotation passes through RootSIFT, PCA, the Fisher embedding
  and the RN mat-vec. The database fits in L2.
"""

from __future__ import annotations

import copy

# Stable order: the command line, the traced comparison and the tests iterate it.
WORKLOAD_NAMES = ("phi3-dense", "phi2-bigdb", "fisher-rn")

# ``map_floor`` is about 0.8 times the lowest mAP measured on the seed
# code over seeds 1-10 and 101-110 (phi3-dense 0.56, phi2-bigdb 0.70,
# fisher-rn 0.67); a run below it fails its mAP check.

WORKLOADS = {
    "phi3-dense": {
        "name": "phi3-dense",
        "corpus": {
            "kind": "unit",
            "dim": 32,
            "scenes": 16,
            "db_per_scene": 3,
            "queries_per_scene": 12,
            "distractors": 0,
            "db_descriptors": 1000,
            "query_descriptors": 300,
            "shared_fraction": 0.08,
            "noise": 0.1,
            "angle_jitter": 0.1,
            "heldout_images": 0,
            "heldout_descriptors": 0,
        },
        "pipeline": {
            "family": "phi3",
            "input_dim": 32,
            "kappa": 8.0,
            "n_freq": 3,
            "power_law": 0.2,
            "adapted_power_law": True,
        },
        "training": None,
        "rotations": 8,
        "rescore_top": 10,
        "encode_reps": 3,
        "setup_reps": 60,
        "reencode_samples": 2,
        "map_floor": 0.45,
    },
    "phi2-bigdb": {
        "name": "phi2-bigdb",
        "corpus": {
            "kind": "unit",
            "dim": 32,
            "scenes": 240,
            "db_per_scene": 4,
            "queries_per_scene": 1,
            "distractors": 9040,
            "db_descriptors": 64,
            "query_descriptors": 64,
            "shared_fraction": 0.2,
            "noise": 0.1,
            "angle_jitter": 0.1,
            "heldout_images": 0,
            "heldout_descriptors": 0,
        },
        "pipeline": {
            "family": "phi2",
            "input_dim": 32,
            "kappa": 8.0,
            "n_freq": 3,
            "power_law": 0.2,
            "adapted_power_law": False,
        },
        "training": None,
        "rotations": 8,
        "rescore_top": 0,
        "encode_reps": 3,
        "setup_reps": 6,
        "reencode_samples": 3,
        "map_floor": 0.55,
    },
    "fisher-rn": {
        "name": "fisher-rn",
        "corpus": {
            "kind": "histogram",
            "dim": 64,
            "scenes": 300,
            "db_per_scene": 3,
            "queries_per_scene": 1,
            "distractors": 100,
            "db_descriptors": 300,
            "query_descriptors": 300,
            "shared_fraction": 0.27,
            "noise": 0.1,
            "angle_jitter": 0.1,
            "heldout_images": 1400,
            "heldout_descriptors": 64,
        },
        "pipeline": {
            "family": "fisher",
            "kappa": 8.0,
            "n_freq": 3,
            "power_law": 0.4,
            "adapted_power_law": False,
            "truncate": 512,
        },
        # The held-out corpus must hold more images than the encoded
        # dimension (k * pca_dim * (2N+1) = 8 * 24 * 7 = 1344) so that
        # rn_train takes its full-rank path.
        "training": {"pca_dim": 24, "gmm_k": 8, "gmm_iters": 50, "rn_exponent": 0.5},
        "rotations": 8,
        "rescore_top": 0,
        "encode_reps": 5,
        "setup_reps": 50,
        "reencode_samples": 3,
        "map_floor": 0.55,
    },
}


def get(name: str) -> dict:
    """A deep copy of the named workload, safe to modify."""
    return copy.deepcopy(WORKLOADS[name])


def toy(name: str) -> dict:
    """The named workload shrunk to a size that runs in about a second.

    Same code path, same pipeline family and training steps; only the
    corpus shrinks and the mAP floor is dropped.
    """
    spec = get(name)
    corpus = spec["corpus"]
    corpus.update(scenes=3, queries_per_scene=2, distractors=4)
    corpus["db_descriptors"] = min(corpus["db_descriptors"], 40)
    corpus["query_descriptors"] = min(corpus["query_descriptors"], 30)
    if spec["training"] is not None:
        # 2 * 8 * 7 = 112 encoded dims, so 120 held-out images keep RN full rank.
        spec["training"].update(pca_dim=8, gmm_k=2, gmm_iters=5)
        spec["pipeline"]["truncate"] = 64
        corpus.update(heldout_images=120, heldout_descriptors=16)
    spec["encode_reps"] = 1
    spec["setup_reps"] = 2
    spec["map_floor"] = 0.0
    return spec


def n_database(spec: dict) -> int:
    c = spec["corpus"]
    return c["scenes"] * c["db_per_scene"] + c["distractors"]


def n_queries(spec: dict) -> int:
    c = spec["corpus"]
    return c["scenes"] * c["queries_per_scene"]
