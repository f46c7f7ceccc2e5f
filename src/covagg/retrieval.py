"""Ranked-retrieval scoring with junk-aware average precision."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError


@dataclass(frozen=True)
class GroundTruthEntry:
    """Relevant and junk ids for one query.

    Junk ids are removed from rankings before any precision is computed;
    they count neither for nor against.
    """

    relevant: frozenset
    junk: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "relevant", frozenset(self.relevant))
        object.__setattr__(self, "junk", frozenset(self.junk))
        if self.relevant & self.junk:
            raise ContractError("relevant and junk sets must be disjoint")


def average_precision(ranked, entry: GroundTruthEntry) -> float:
    """Mean precision at each relevant hit, after junk removal.

    Relevant items missing from the ranking contribute precision 0. The
    scan ends at the last relevant id, since later ids add nothing; the
    whole ranking is still checked for repeated ids.
    """
    if not entry.relevant:
        raise ContractError("query has an empty relevant set")
    ranked = list(ranked)
    if len(set(ranked)) != len(ranked):
        raise ContractError("ranking contains a repeated id")
    hits = 0
    rank = 0
    total = 0.0
    for image_id in ranked:
        if image_id in entry.junk:
            continue
        rank += 1
        if image_id in entry.relevant:
            hits += 1
            total += hits / rank
            if hits == len(entry.relevant):
                break
    return total / len(entry.relevant)


def mean_ap(aps) -> float:
    """Arithmetic mean of per-query average precisions."""
    values = [float(a) for a in aps]
    if not values:
        raise ContractError("need at least one query")
    return sum(values) / len(values)


def rank_rows(image_ids, scores) -> np.ndarray:
    """Row indices by descending score; ties broken by lexicographic id.

    Distinct scores have one order, so the rows are first sorted by score
    alone. Only if two scores are equal, -0.0 and +0.0 among them, is the
    ranking one stable sort by score over the rows in id order, so that
    equal scores keep their id order.
    """
    ids = list(image_ids)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(ids),):
        raise ContractError("need exactly one score per image id")
    if not np.isfinite(scores).all():
        raise ContractError("scores must be finite to be ranked")
    order = np.argsort(-scores)
    ranked = scores[order]
    if not (ranked[1:] == ranked[:-1]).any():
        return order
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(-scores[by_id], kind="stable")]


def rank_by_score(image_ids, scores) -> list:
    """Ids by descending score; ties broken by lexicographic id."""
    ids = list(image_ids)
    return [ids[i] for i in rank_rows(ids, scores).tolist()]


def read_ground_truth(path, exclude_query: bool = False) -> dict:
    """Parse the tab-separated ground-truth file.

    One line per query: ``query_id<TAB>relevant: a,b<TAB>junk: c,d``.
    With ``exclude_query`` the query id is treated as junk for its own
    ranking (dataset conventions differ on whether the query scores
    itself).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    entries: dict[str, GroundTruthEntry] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        query_id = parts[0].strip()
        if not query_id:
            raise FormatError(f"{path}:{lineno}: empty query id")
        fields = {}
        for label, part in (("relevant", parts[1]), ("junk", parts[2])):
            prefix = label + ":"
            if not part.strip().startswith(prefix):
                raise FormatError(f"{path}:{lineno}: field must start with {prefix!r}")
            body = part.strip()[len(prefix) :].strip()
            fields[label] = {tok.strip() for tok in body.split(",") if tok.strip()}
        relevant = fields["relevant"]
        junk = fields["junk"]
        if exclude_query:
            relevant.discard(query_id)
            junk.add(query_id)
        if query_id in entries:
            raise FormatError(f"{path}:{lineno}: duplicate query id {query_id!r}")
        try:
            entries[query_id] = GroundTruthEntry(frozenset(relevant), frozenset(junk))
        except ContractError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return entries


def write_ground_truth(path, entries: dict):
    lines = []
    for query_id in sorted(entries):
        entry = entries[query_id]
        rel = ",".join(sorted(entry.relevant))
        junk = ",".join(sorted(entry.junk))
        lines.append(f"{query_id}\trelevant: {rel}\tjunk: {junk}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
