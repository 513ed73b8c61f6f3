from __future__ import annotations

import pytest

from conftest import EXCEPTIONAL_WORD, K_TABLE
from oracles import dfs_scan
import palfact
from palfact import lemmas
from palfact.lemmas import k_formula, verify_theorem1
from palfact.factorization import min_factorization
from palfact.rows import LengthRow, length_row, length_rows


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
        rows = length_rows(16)
        assert [row.k for row in rows] == K_TABLE[:16]

    def test_single_rows(self):
        assert length_row(1).k == 1
        assert length_row(20).k == 8

    def test_n2_maximizers(self):
        row = length_row(2)
        assert row.k == 2
        assert row.maximizer_count == 2
        assert row.maximizers == (2,)  # ab; its complement ba is not listed
        assert [orb.representative for orb in row.sample_orbits] == ["ab"]  # of the orbit {ab, ba}

    def test_one_row_type(self):
        assert palfact.LengthRow is LengthRow
        assert isinstance(length_row(7), LengthRow)

    def test_counts_are_even(self):
        for row in length_rows(12):
            assert row.maximizer_count % 2 == 0
            assert row.maximizer_count >= 1

    def test_monotone_steps(self):
        rows = length_rows(18)
        for a, b in zip(rows, rows[1:]):
            assert a.k <= b.k <= a.k + 1

    def test_backends_agree(self):
        for n in (3, 8, 13):
            assert dfs_scan(n) == length_row(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            length_row(0)
        with pytest.raises(ValueError):
            length_row(33)


class TestWorstWords:
    def test_exceptional_length(self):
        orbits = list(length_row(11).orbits())
        assert len(orbits) == 1
        orb = orbits[0]
        assert orb.representative == EXCEPTIONAL_WORD
        assert orb.size == 4
        for word in orb.words:
            assert min_factorization(word).m == 5

    def test_length_one(self):
        orbits = list(length_row(1).orbits())
        assert len(orbits) == 1
        assert orbits[0].words == ("a", "b")

    def test_length_two(self):
        orbits = list(length_row(2).orbits())
        assert len(orbits) == 1
        assert orbits[0].words == ("ab", "ba")

    def test_every_member_attains_the_maximum(self):
        for n in (5, 9, 12):
            k = length_row(n).k
            total = 0
            for orb in length_row(n).orbits():
                total += orb.size
                assert orb.representative == orb.words[0] == min(orb.words)
                for word in orb.words:
                    assert min_factorization(word).m == k
            assert total == length_row(n).maximizer_count

    def test_orbits_sorted(self):
        reps = [orb.representative for orb in length_row(10).orbits()]
        assert reps == sorted(reps)

    def test_one_orbit_type(self):
        # a row's orbits are the ones words.orbit builds, not a conversion
        [orb] = length_row(11).orbits()
        assert type(orb) is palfact.Orbit is palfact.words.Orbit
        assert orb == palfact.orbit(palfact.parse_word(EXCEPTIONAL_WORD))


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
