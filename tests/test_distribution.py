from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import KBAR_TABLE
from oracles import dfs_scan
from palfact.asymptotics import a_bound_squared
from palfact.distribution import (
    counting_bound_check,
    histogram,
    histogram_rows,
    k_bar,
    k_bar_rows,
)
from palfact.extremal import k_max
from palfact.lemmas import subadditivity_check


class TestHistogram:
    def test_small_examples(self):
        assert histogram(1).counts == {1: 2}
        assert histogram(2).counts == {1: 2, 2: 2}
        assert histogram(3).s == 12

    def test_partition_of_all_words(self):
        for hist in histogram_rows(14):
            assert hist.total == 1 << hist.n
            assert all(c % 2 == 0 for c in hist.counts.values())

    def test_palindrome_count_formula(self):
        for hist in histogram_rows(16):
            assert hist.counts[1] == 1 << ((hist.n + 1) // 2)

    def test_top_count_matches_extremal(self):
        for n in (6, 10, 13):
            hist = histogram(n)
            row = k_max(n)
            assert hist is row
            assert hist.counts[hist.k] == row.maximizer_count

    def test_matches_dfs_oracle(self):
        assert histogram(11).counts == dfs_scan(11).counts

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram(0)
        with pytest.raises(ValueError):
            histogram(33)


class TestKBar:
    def test_example_rows(self):
        assert k_bar(4).kbar_text == "1.75"
        assert k_bar(10).kbar_text == "2.61"

    def test_published_table_to_two_decimals(self):
        for row in k_bar_rows(16):
            assert (row.kbar_text, row.ratio_text) == KBAR_TABLE[row.n]

    def test_exactness(self):
        row = k_bar(6)
        assert row.kbar * (1 << 6) == row.s
        assert 1 <= row.kbar <= k_max(6).k

    def test_reduced_power_of_two_denominator(self):
        row = k_bar(12)
        assert row.kbar == Fraction(row.kbar_num, 1 << row.kbar_den_pow2)

    def test_length_21_exact_fraction(self):
        row = k_bar(21)
        assert row.s == 8939688
        assert row.kbar == Fraction(1117461, 1 << 18)
        assert row.kbar_text == "4.26"


class TestSubadditivity:
    def test_small_range_passes(self):
        report = subadditivity_check(10)
        assert report.passed
        assert report.cases == sum(t // 2 for t in range(2, 11))

    def test_base_pair(self):
        rows = {row.n: row for row in k_bar_rows(2)}
        assert rows[2].kbar == Fraction(3, 2) <= 2 * rows[1].kbar

    def test_min_ratio_location(self):
        report = subadditivity_check(12)
        rows = k_bar_rows(12)
        assert Fraction(report.params["min_ratio"]) == min(row.ratio for row in rows)
        assert report.params["min_ratio_n"] == 12

    def test_min_ratio_through_21_is_the_upper_bound(self):
        report = subadditivity_check(21)
        assert report.passed
        assert report.params == {"n_max": 21, "min_ratio_n": 21, "min_ratio": "372487/1835008"}
        assert Fraction(report.params["min_ratio"]) == Fraction(372487, 7 * 2**18)

    def test_validation(self):
        with pytest.raises(ValueError):
            subadditivity_check(1)


class TestCountingBound:
    def test_n9_all_k(self):
        report = counting_bound_check(9)
        assert report.ok
        assert len(report.entries) == k_max(9).k == 4

    def test_n12_first_column(self):
        report = counting_bound_check(12)
        assert report.ok
        first = report.entries[0]
        assert first.k == 1
        assert first.cumulative == 1 << 6  # the 64 palindromes of length 12
        assert first.cumulative**2 <= a_bound_squared(12, 1)

    def test_n16(self):
        assert counting_bound_check(16).ok

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            counting_bound_check(8)

    def test_cumulative_sums(self):
        hist = histogram(10)
        report = counting_bound_check(10)
        for entry in report.entries:
            expected = sum(hist.counts.get(j, 0) for j in range(entry.k, 0, -2))
            assert entry.cumulative == expected
