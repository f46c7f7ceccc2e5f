"""Synthetic planted-match corpora for end-to-end retrieval checks.

Every image is a bag of random unit descriptors with random
orientations. For each query, a handful of database images are true
matches: they reuse a fraction of the query's descriptors, perturbed by
Gaussian noise and re-normalized, with orientations shifted by one
random global rotation per match (plus small per-descriptor jitter).
Distractors are entirely fresh draws.

Plain (orientation-blind) aggregation confuses matches with the
background of near-orthogonal distractors once the shared fraction is
small; orientation-modulated aggregation separates them because only the
true matches have a rotation hypothesis that aligns all shared pairs at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSet
from .errors import ContractError
from .retrieval import GroundTruthEntry


@dataclass(frozen=True)
class SynthConfig:
    n_queries: int = 16
    matches_per_query: int = 3
    n_distractors: int = 152
    descriptors_per_image: int = 32
    dim: int = 32
    shared_fraction: float = 0.4
    noise_sigma: float = 0.1
    angle_jitter: float = 0.1
    seed: int = 7

    def __post_init__(self):
        if min(self.n_queries, self.matches_per_query, self.descriptors_per_image) < 1:
            raise ContractError("corpus counts must be positive")
        if self.n_distractors < 0 or self.dim < 2:
            raise ContractError("need a non-negative distractor count and dim >= 2")
        if not 0.0 < self.shared_fraction <= 1.0:
            raise ContractError("shared_fraction must lie in (0, 1]")
        if self.noise_sigma < 0.0 or self.angle_jitter < 0.0:
            raise ContractError("noise parameters must be non-negative")


def _random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms == 0.0):  # pragma: no cover - measure-zero event
        bad = norms == 0.0
        rows[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def generate_corpus(config: SynthConfig):
    """Build (queries, database, ground_truth) for the planted-match task."""
    rng = np.random.default_rng(config.seed)
    m = config.descriptors_per_image
    n_shared = max(1, int(round(config.shared_fraction * m)))

    queries: list[DescriptorSet] = []
    database: list[DescriptorSet] = []
    ground_truth: dict[str, GroundTruthEntry] = {}

    for q in range(config.n_queries):
        query_id = f"query{q:03d}"
        q_desc = _random_unit_rows(rng, m, config.dim)
        q_ang = rng.uniform(-np.pi, np.pi, m)
        queries.append(DescriptorSet(q_desc, q_ang, image_id=query_id))

        relevant = set()
        for j in range(config.matches_per_query):
            match_id = f"match{q:03d}_{j}"
            rotation = rng.uniform(-np.pi, np.pi)
            pick = rng.choice(m, size=n_shared, replace=False)
            desc = _random_unit_rows(rng, m, config.dim)
            noisy = q_desc[pick] + config.noise_sigma * rng.standard_normal(
                (n_shared, config.dim)
            )
            desc[:n_shared] = noisy / np.linalg.norm(noisy, axis=1)[:, None]
            ang = rng.uniform(-np.pi, np.pi, m)
            ang[:n_shared] = (
                q_ang[pick] - rotation + config.angle_jitter * rng.standard_normal(n_shared)
            )
            database.append(DescriptorSet(desc, ang, image_id=match_id))
            relevant.add(match_id)
        ground_truth[query_id] = GroundTruthEntry(relevant=frozenset(relevant))

    for i in range(config.n_distractors):
        database.append(
            DescriptorSet(
                _random_unit_rows(rng, m, config.dim),
                rng.uniform(-np.pi, np.pi, m),
                image_id=f"dist{i:04d}",
            )
        )
    return queries, database, ground_truth
