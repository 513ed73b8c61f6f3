from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import KBAR_TABLE
from oracles import dfs_scan
from palfact import lemmas
from palfact.rows import length_row, length_rows, worst_rows
from palfact.lemmas import subadditivity_check, verify_counting_bound


class TestHistogram:
    def test_small_examples(self):
        assert length_row(1).counts == {1: 2}
        assert length_row(2).counts == {1: 2, 2: 2}
        assert length_row(3).s == 12

    def test_partition_of_all_words(self):
        for hist in length_rows(14):
            assert sum(hist.counts.values()) == 1 << hist.n
            assert all(c % 2 == 0 for c in hist.counts.values())

    def test_palindrome_count_formula(self):
        for hist in length_rows(16):
            assert hist.counts[1] == 1 << ((hist.n + 1) // 2)

    def test_top_count_matches_extremal(self):
        for n in (6, 10, 13):
            row = length_row(n)
            assert row is length_rows(n)[-1]
            assert row.counts[row.k] == worst_rows(n)[-1].maximizer_count

    def test_matches_dfs_oracle(self):
        assert length_row(11).counts == dfs_scan(11)[0].counts

    def test_validation(self):
        with pytest.raises(ValueError):
            length_row(0)
        with pytest.raises(ValueError):
            length_row(33)


class TestKBar:
    def test_example_rows(self):
        assert length_row(4).kbar_text == "1.75"
        assert length_row(10).kbar_text == "2.61"

    def test_published_table_to_two_decimals(self):
        for row in length_rows(16):
            assert (row.kbar_text, row.ratio_text) == KBAR_TABLE[row.n]

    def test_exactness(self):
        row = length_row(6)
        assert row.kbar * (1 << 6) == row.s
        assert 1 <= row.kbar <= length_row(6).k

    def test_reduced_power_of_two_denominator(self):
        row = length_row(12)
        num, den = row.kbar.numerator, row.kbar.denominator
        assert den == 1 << 11 and num % 2 == 1  # the CLI's kbar_num and kbar_den_pow2
        assert row.kbar == Fraction(row.s, 1 << 12)

    def test_length_21_exact_fraction(self):
        row = length_row(21)
        assert row.s == 8939688
        assert row.kbar == Fraction(1117461, 1 << 18)
        assert row.kbar_text == "4.26"


class TestSubadditivity:
    def test_small_range_passes(self):
        report = subadditivity_check(10)
        assert report.passed
        assert report.cases == sum(t // 2 for t in range(2, 11))

    def test_base_pair(self):
        rows = {row.n: row for row in length_rows(2)}
        assert rows[2].kbar == Fraction(3, 2) <= 2 * rows[1].kbar

    def test_min_ratio_location(self):
        report = subadditivity_check(12)
        rows = length_rows(12)
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


def _cumulative(n, k):
    """x_k + x_{k-2} + ... at length n, straight from the histogram."""
    counts = length_row(n).counts
    return sum(counts.get(j, 0) for j in range(k, 0, -2))


class TestCountingBound:
    def test_n9_all_k(self):
        report = verify_counting_bound(9)
        assert report.passed
        assert report.cases == length_row(9).k == 4

    def test_n12_first_column(self, monkeypatch):
        # The first column at n = 12 is the 64 palindromes: a bound of 64^2
        # there holds, and one less fails there and only there.
        real = lemmas.a_bound_squared
        assert (1 << 6) ** 2 <= real(12, 1)
        for bound, expected in (((1 << 6) ** 2, ()), ((1 << 6) ** 2 - 1, ({"n": 12, "k": 1},))):
            monkeypatch.setattr(
                lemmas, "a_bound_squared", lambda n, k, b=bound: b if (n, k) == (12, 1) else real(n, k)
            )
            assert verify_counting_bound(12).counterexamples == expected

    def test_n16(self):
        assert verify_counting_bound(16).passed

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_counting_bound(8)

    def test_cumulative_sums(self, monkeypatch):
        # Bounds set to the squared cumulative sums: met exactly everywhere,
        # and one below fails every case of every length.
        monkeypatch.setattr(lemmas, "a_bound_squared", lambda n, k: _cumulative(n, k) ** 2)
        report = verify_counting_bound(10)
        assert report.passed
        assert report.cases == length_row(9).k + length_row(10).k
        monkeypatch.setattr(lemmas, "a_bound_squared", lambda n, k: _cumulative(n, k) ** 2 - 1)
        assert verify_counting_bound(10).counterexamples == tuple(
            {"n": n, "k": k} for n in (9, 10) for k in range(1, length_row(n).k + 1)
        )
