"""Cross-module invariants checked exhaustively on small lengths."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_m_table, palindromic_completions, reachable_k_bitsets
from palfact.enumeration import _covering_factors
from palfact.rows import length_row, length_rows, worst_rows
from palfact.factorization import _prefix_measures, measure, min_factorization, reachable_k
from palfact.words import Word, parse_word


def _reversal_permutation(n: int) -> np.ndarray:
    v = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(v)
    for t in range(n):
        out |= ((v >> t) & 1) << (n - 1 - t)
    return out


class TestOracleEquivalence:
    def test_min_factorization_vs_cut_patterns_to_12(self, m_tables_14):
        for n in range(1, 13):
            oracle = brute_force_m_table(n)
            assert np.array_equal(m_tables_14[n].astype(np.int64), oracle)
            # scalar witness path agrees with the oracle word for word
            for bits in range(1 << n):
                assert min_factorization(Word(bits, n)).m == oracle[bits]


class TestSymmetryInvariance:
    def test_reversal_and_complement_to_14(self, m_tables_14):
        for n in range(1, 15):
            table = m_tables_14[n]
            rev = _reversal_permutation(n)
            comp = np.arange(1 << n, dtype=np.int64) ^ ((1 << n) - 1)
            assert np.array_equal(table[rev], table)
            assert np.array_equal(table[comp], table)

    def test_measure_one_is_palindromicity_to_14(self, m_tables_14):
        for n in range(1, 15):
            v = np.arange(1 << n, dtype=np.int64)
            assert np.array_equal(m_tables_14[n] == 1, v == _reversal_permutation(n))

    def test_measure_range_to_14(self, m_tables_14):
        for n in range(1, 15):
            table = m_tables_14[n]
            assert table.min() >= 1
            assert table.max() <= n


class TestSubadditivity:
    def test_concatenations_to_12(self, m_tables_14):
        for lu in range(1, 12):
            for lv in range(1, 12 - lu + 1):
                concat = m_tables_14[lu + lv].reshape(1 << lv, 1 << lu).astype(np.int16)
                outer = m_tables_14[lv].astype(np.int16)[:, None] + m_tables_14[lu].astype(np.int16)[None, :]
                assert np.all(concat <= outer), (lu, lv)

    def test_average_subadditivity_to_16(self):
        rows = {row.n: row.kbar for row in length_rows(16)}
        for total in range(2, 17):
            for i in range(1, total):
                assert rows[total] <= rows[i] + rows[total - i]


class TestParityReachability:
    def test_bitset_oracle_matches_reachable_k(self):
        for n in range(1, 10):
            masks = reachable_k_bitsets(n)
            for bits in range(1 << n):
                expected = {k for k in range(1, n + 1) if (int(masks[bits]) >> k) & 1}
                assert reachable_k(Word(bits, n), n) == expected

    def test_k_plus_two_reachable_to_14(self):
        for n in range(1, 15):
            masks = reachable_k_bitsets(n)
            low = (1 << ((n - 1) // 2 + 1)) - 1  # bits k with 2k < n
            shifted = (masks & low) << 2
            assert np.all(shifted & ~masks == 0)

    def test_min_reachable_is_m_to_12(self, m_tables_14):
        for n in range(1, 13):
            masks = reachable_k_bitsets(n)
            min_k = np.zeros(1 << n, dtype=np.int64)
            for k in range(n, 0, -1):
                min_k[(masks >> k) & 1 == 1] = k
            assert np.array_equal(min_k, m_tables_14[n].astype(np.int64))


class TestEnumerationConsistency:
    def test_histograms_match_tables(self, m_tables_14):
        for hist in length_rows(14):
            table = m_tables_14[hist.n]
            expected = {int(k): int(c) for k, c in enumerate(np.bincount(table)) if c}
            assert hist.counts == expected

    def test_extremal_rows_match_tables(self, m_tables_14):
        for n in range(1, 15):
            row, worst = length_row(n), worst_rows(n)[-1]
            table = m_tables_14[n]
            assert row.k == worst.k == int(table.max())
            assert worst.maximizer_count == int((table == table.max()).sum())
            a_initial = np.flatnonzero(table == table.max())
            assert worst.maximizers == tuple(int(b) for b in a_initial if b % 2 == 0)


class TestCoveringFactors:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.text(alphabet="ab", max_size=12), st.integers(0, 14))
    def test_match_brute_force(self, text, e):
        prefix = parse_word(text) if text else Word.empty()
        expected = [
            (completions, measure(text[:s]) if s else 0)
            for s in range(len(text) + 1)
            if (completions := palindromic_completions(text[s:], e))
        ]
        factors = _covering_factors(prefix, e, _prefix_measures(prefix))
        assert all(values.dtype == np.int64 for values, _ in factors)
        assert [(values.tolist(), m) for values, m in factors] == expected
