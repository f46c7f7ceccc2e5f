import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covagg import (
    ContractError,
    FormatError,
    GroundTruthEntry,
    average_precision,
    mean_ap,
    rank_by_score,
    read_ground_truth,
    write_ground_truth,
)


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        entry = GroundTruthEntry(relevant=frozenset({"a"}))
        assert average_precision(["a", "b", "c"], entry) == 1.0

    def test_hand_case_five_sixths(self):
        entry = GroundTruthEntry(relevant=frozenset({"a", "c"}))
        ap = average_precision(["a", "b", "c", "d"], entry)
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_junk_removed_before_precision(self):
        entry = GroundTruthEntry(relevant=frozenset({"r"}), junk=frozenset({"j1", "j2"}))
        assert average_precision(["j1", "j2", "r"], entry) == 1.0

    def test_missing_relevant_contributes_zero(self):
        entry = GroundTruthEntry(relevant=frozenset({"a", "zzz"}))
        assert average_precision(["a", "b"], entry) == pytest.approx(0.5)

    def test_empty_relevant_rejected(self):
        entry = GroundTruthEntry(relevant=frozenset())
        with pytest.raises(ContractError):
            average_precision(["a"], entry)

    def test_duplicate_ids_rejected(self):
        entry = GroundTruthEntry(relevant=frozenset({"a"}))
        with pytest.raises(ContractError):
            average_precision(["a", "a"], entry)

    def test_invariant_to_tail_permutation(self, rng):
        entry = GroundTruthEntry(relevant=frozenset({"r1", "r2"}))
        tail = [f"n{i}" for i in range(10)]
        base = ["n-head", "r1", "r2"]
        reference = average_precision(base + tail, entry)
        for _ in range(10):
            shuffled = list(tail)
            rng.shuffle(shuffled)
            assert average_precision(base + shuffled, entry) == reference

    @settings(max_examples=50)
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_bounds_and_perfect_ranking(self, n_rel, n_other, seed):
        rng = np.random.default_rng(seed)
        relevant = [f"r{i}" for i in range(n_rel)]
        others = [f"o{i}" for i in range(n_other)]
        entry = GroundTruthEntry(relevant=frozenset(relevant))
        ranking = relevant + others
        assert average_precision(ranking, entry) == 1.0
        mixed = relevant + others
        rng.shuffle(mixed)
        ap = average_precision(mixed, entry)
        assert 0.0 <= ap <= 1.0
        if ap == 1.0:
            # all relevant precede all others
            positions = [mixed.index(r) for r in relevant]
            assert max(positions) < n_rel

    def test_disjointness_enforced(self):
        with pytest.raises(ContractError):
            GroundTruthEntry(relevant=frozenset({"a"}), junk=frozenset({"a"}))


class TestMeanAp:
    def test_single_query(self):
        assert mean_ap([0.625]) == 0.625

    def test_two_queries(self):
        assert mean_ap([1.0, 0.5]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mean_ap([])


class TestRanking:
    def test_descending_scores(self):
        ranked = rank_by_score(["a", "b", "c"], [0.1, 0.9, 0.5])
        assert ranked == ["b", "c", "a"]

    def test_ties_break_lexicographically(self):
        ranked = rank_by_score(["zed", "abe", "mid"], [0.5, 0.5, 0.5])
        assert ranked == ["abe", "mid", "zed"]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_key_sort(self, seed):
        rng = np.random.default_rng(seed)
        # unsorted ids of varying length, so lexicographic order is not numeric order
        ids = [f"img{v}" for v in rng.permutation(600)]
        scores = rng.integers(-3, 4, size=600) / 4.0
        zeros = np.flatnonzero(scores == 0.0)
        scores[zeros[::2]] = -0.0
        assert np.signbit(scores).sum() > (scores < 0).sum()
        expected = sorted(range(600), key=lambda i: (-scores[i], ids[i]))
        assert rank_by_score(ids, scores) == [ids[i] for i in expected]
        assert rank_by_score(ids, list(scores)) == [ids[i] for i in expected]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            rank_by_score(["a", "b"], [0.5, bad])

    def test_one_score_per_id(self):
        with pytest.raises(ContractError, match="one score per image id"):
            rank_by_score(["a", "b"], [0.5])


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        entries = {
            "q1": GroundTruthEntry(frozenset({"a", "b"}), frozenset({"x"})),
            "q2": GroundTruthEntry(frozenset({"c"}), frozenset()),
        }
        path = tmp_path / "gt.txt"
        write_ground_truth(path, entries)
        loaded = read_ground_truth(path)
        assert loaded == entries

    def test_exclude_query_flag(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q1\trelevant: q1,a\tjunk: \n", encoding="utf-8")
        plain = read_ground_truth(path)
        assert "q1" in plain["q1"].relevant
        excluded = read_ground_truth(path, exclude_query=True)
        assert "q1" not in excluded["q1"].relevant
        assert "q1" in excluded["q1"].junk

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q1\trelevant: a\n", encoding="utf-8")
        with pytest.raises(FormatError, match="gt.txt:1"):
            read_ground_truth(path)

    @pytest.mark.parametrize(
        "second_line, message",
        [(" \trelevant: b\tjunk: ", "empty query id"),
         ("q2\tb\tjunk: ", "field must start with 'relevant:'"),
         ("q2\trelevant: b\tc", "field must start with 'junk:'"),
         ("q1\trelevant: b\tjunk: ", "duplicate query id 'q1'")],
        ids=["empty-id", "relevant-unprefixed", "junk-unprefixed", "duplicate-id"],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, second_line, message):
        path = tmp_path / "gt.txt"
        path.write_text(f"q1\trelevant: a\tjunk: \n{second_line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: {message}")):
            read_ground_truth(path)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"q1\trelevant: a\xff\tjunk: \n")
        with pytest.raises(FormatError, match="gt.txt: not UTF-8"):
            read_ground_truth(path)

    def test_overlapping_sets_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q1\trelevant: a\tjunk: a\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_ground_truth(path)
