from __future__ import annotations

import pytest

from conftest import EXCEPTIONAL_WORD, K_TABLE
from oracles import complement_bits_per_letter, dfs_scan, reverse_bits_per_letter
import palfact
from palfact import lemmas, rows
from palfact.lemmas import k_formula, verify_theorem1
from palfact.factorization import measure, min_factorization
from palfact.rows import LengthRow, WorstRow, length_row, length_rows, worst_rows
from palfact.words import Word


class TestKFormula:
    @pytest.mark.parametrize("n,expected", [(6, 3), (11, 5), (30, 11), (1, 1), (60, 21)])
    def test_values(self, n, expected):
        assert k_formula(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_formula(0)
        with pytest.raises(ValueError):
            k_formula(-3)

    def test_residue_form(self):
        # floor(n/6) + floor((n+4)/6) + 1 == 2*floor(n/6) + floor(3/2 + (n%6)/4)
        for t in range(1, 1001):
            if t == 11:
                continue
            assert k_formula(t) == 2 * (t // 6) + (6 + t % 6) // 4

    def test_divided_by_n_approaches_one_third(self):
        assert abs(k_formula(10_000) / 10_000 - 1 / 3) < 1e-3


class TestKMax:
    def test_first_table_rows(self):
        rows = worst_rows(16)
        assert [row.k for row in rows] == K_TABLE[:16]
        assert [row.n for row in rows] == list(range(1, 17))

    def test_single_rows(self):
        assert worst_rows(1)[-1].k == 1
        assert worst_rows(20)[-1].k == 8

    def test_n2_maximizers(self):
        row = worst_rows(2)[-1]
        assert row.k == 2
        assert row.maximizer_count == 2
        assert row.maximizers == (2,)  # ab; its complement ba is not listed
        assert [orb.representative for orb in row.sample_orbits] == ["ab"]  # of the orbit {ab, ba}

    def test_one_row_type(self):
        assert palfact.LengthRow is LengthRow
        assert isinstance(length_row(7), LengthRow)
        assert palfact.WorstRow is WorstRow
        assert isinstance(worst_rows(7)[-1], WorstRow)

    def test_counts_are_even(self):
        # the maximizer count is the histogram's top count, which is even
        for worst, row in zip(worst_rows(12), length_rows(12)):
            assert worst.maximizer_count == row.counts[row.k]
            assert worst.maximizer_count % 2 == 0
            assert worst.maximizer_count >= 2

    def test_monotone_steps(self):
        rows = worst_rows(18)
        for a, b in zip(rows, rows[1:]):
            assert a.k <= b.k <= a.k + 1

    def test_backends_agree(self):
        for n in (3, 8, 13):
            assert dfs_scan(n) == (length_row(n), worst_rows(n)[-1])

    def test_validation(self):
        for rows in (length_row, worst_rows):
            with pytest.raises(ValueError):
                rows(0)
            with pytest.raises(ValueError):
                rows(33)


class TestWorstWords:
    def test_exceptional_length(self):
        orbits = list(worst_rows(11)[-1].orbits())
        assert len(orbits) == 1
        orb = orbits[0]
        assert orb.representative == EXCEPTIONAL_WORD
        assert orb.size == 4
        for word in orb.words:
            assert min_factorization(word).m == 5

    def test_length_one(self):
        orbits = list(worst_rows(1)[-1].orbits())
        assert len(orbits) == 1
        assert orbits[0].words == ("a", "b")

    def test_length_two(self):
        orbits = list(worst_rows(2)[-1].orbits())
        assert len(orbits) == 1
        assert orbits[0].words == ("ab", "ba")

    def test_every_member_attains_the_maximum(self):
        for n in (5, 9, 12):
            row = worst_rows(n)[-1]
            total = 0
            for orb in row.orbits():
                total += orb.size
                assert orb.representative == orb.words[0] == min(orb.words)
                for word in orb.words:
                    assert min_factorization(word).m == row.k
            assert total == row.maximizer_count

    def test_orbits_sorted(self):
        reps = [orb.representative for orb in worst_rows(10)[-1].orbits()]
        assert reps == sorted(reps)

    def test_maximizers_closed_under_reversal(self):
        # reversal preserves m, so the a-initial one of a maximizer's
        # reversal and its letter swap is listed too
        for row in worst_rows(30):
            image = {reverse_bits_per_letter(bits, row.n) for bits in row.maximizers}
            image = {complement_bits_per_letter(b, row.n) if b & 1 else b for b in image}
            assert image == set(row.maximizers), row.n

    def test_one_orbit_type(self):
        # a row's orbits are the ones words.orbit builds, not a conversion
        [orb] = worst_rows(11)[-1].orbits()
        assert type(orb) is palfact.Orbit is palfact.words.Orbit
        assert orb == palfact.orbit(palfact.parse_word(EXCEPTIONAL_WORD))


class TestStartingFloor:
    """A length's search starts at the floor k_formula(n), which is only a
    hint: a floor too high finds no word and is lowered, and one too low
    also finds the maximizers."""

    @pytest.mark.parametrize("delta", [1, -1])
    def test_rows_do_not_depend_on_it(self, monkeypatch, delta):
        expected = worst_rows(20)
        real = lemmas.k_formula
        monkeypatch.setattr("palfact.rows._worst", [])
        monkeypatch.setattr(lemmas, "k_formula", lambda n: real(n) + delta)
        assert worst_rows(20) == expected


class TestHeadPrune:
    """A prefix exactly at its need goes on only into the first letters of a
    shorter length's maximizers (``_search`` given heads): the prune drops
    no word the plain search keeps, and it stays live."""

    @staticmethod
    def _need(n, floor):
        ks = [0, *(row.k for row in worst_rows(n))]
        return [floor - ks[n - j] for j in range(1, n + 1)]

    @staticmethod
    def _heads():
        return [set(), *(head for _, head in rows._worst)]

    def test_drops_nothing_at_or_below_the_floor(self):
        worst, heads = worst_rows(24), self._heads()
        for n in range(2, 25):
            for floor in (worst[n - 1].k, worst[n - 1].k - 1):
                need = self._need(n, floor)
                assert rows._search(need, heads) == rows._search(need), (n, floor)

    def test_a_missing_head_loses_a_maximizer(self):
        # the check above catches a heads set short of one needed prefix
        n = 24
        need, heads = self._need(n, worst_rows(n)[-1].k), self._heads()
        bits = worst_rows(n)[-1].maximizers[0]
        j0 = next(j for j in range(1, n) if measure(Word(bits & ((1 << j) - 1), j)) == need[j - 1])
        t = min(n - j0, rows._HEAD_LETTERS)
        heads[n - j0] = heads[n - j0] - {1 << t | (bits >> j0) & ((1 << t) - 1)}
        found = rows._search(need, heads)
        assert found != rows._search(need)
        assert bits not in {b for _, b in found}

    def test_prune_is_live(self, monkeypatch):
        # 103115 letter steps to n = 30; the search without heads takes 488716
        expected = worst_rows(30)
        steps = []
        step = rows._step

        def counted(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr("palfact.rows._worst", [])
        monkeypatch.setattr("palfact.rows._step", counted)
        assert worst_rows(30) == expected
        assert len(steps) <= 150_000


class TestTheorem1:
    def test_matches_through_15(self):
        report = verify_theorem1(15)
        assert report.passed
        assert report.cases == 15
        assert (report.lemma_id, report.params) == ("theorem1", {"n_max": 15})

    def test_exception_row_included(self, monkeypatch):
        report = verify_theorem1(11)
        assert report.passed
        assert report.cases == 11
        assert length_row(11).k == 5 == k_formula(11)
        # Without its n = 11 exception the closed form fails exactly there.
        monkeypatch.setattr(lemmas, "k_formula", lambda n: n // 6 + (n + 4) // 6 + 1)
        report = verify_theorem1(11)
        assert report.counterexamples == ({"n": 11, "enumerated": 5, "formula": 4},)

    def test_vacuous(self):
        report = verify_theorem1(0)
        assert report.passed
        assert report.cases == 0
