from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from palfact import lemmas
from palfact.rows import length_row, length_rows
from palfact.factorization import measure
from palfact.lemmas import (
    LemmaReport,
    M_CONSTANTS,
    k_formula,
    ksum_property,
    verify_counting_bound,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lemma4,
    verify_lemma7,
    verify_lemma8,
    verify_lemma9,
    verify_theorem1,
    subadditivity_check,
)
from palfact.words import family


class TestLemma1:
    def test_passes_with_standard_depth(self):
        report = verify_lemma1(8)
        assert report.passed
        assert report.cases == 6 + 9 * 6  # witnesses + bound checks

    def test_explicit_witness_for_longest_suffix(self):
        blocks = ("a", "aba", "bb", "baab")
        assert "".join(blocks) == family("W", 0).text + "bbaab"
        assert all(b == b[::-1] for b in blocks)
        assert measure("".join(blocks)) <= len(blocks)

    def test_first_step_bound(self):
        assert measure(family("W", 1)) <= 2 + M_CONSTANTS[0]
        assert measure(family("W", 1)) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_lemma1(-1)

    def test_family_bounds_never_exceed_the_closed_form(self):
        # the family words witness the closed form from below: their exact
        # measures stay <= k_formula, with equality everywhere except the
        # residue the capped family V covers, and the exceptional length 11
        for n in range(0, 9):
            for suffix in ("", "b", "bb", "bba", "bbaa", "bbaab"):
                word = family("W", n).text + suffix
                m = measure(word)
                formula = k_formula(len(word))
                assert m <= formula
                if suffix != "bba" and len(word) != 11:
                    assert m == formula


class TestCaseLemmas:
    def test_lemma2(self):
        report = verify_lemma2()
        assert report.passed
        assert report.cases == 3 * 64

    def test_lemma3(self):
        report = verify_lemma3()
        assert report.passed
        assert report.cases == 3 * sum(1 << lu for lu in range(12, 18))

    def test_lemma4(self):
        report = verify_lemma4()
        assert report.passed
        assert report.cases == 1 << 17

    # Lemma 3 prunes with the K(n) that worst_rows certifies, so the closed
    # form is at most the search's starting floor: off by one either way, it
    # changes no report.  Pruning with k_formula - 1 itself would settle the
    # subtrees of the three failing words below.
    @pytest.mark.parametrize("delta", [1, -1])
    def test_lemma3_does_not_read_k_formula(self, monkeypatch, delta):
        expected = verify_lemma3()
        monkeypatch.setattr(lemmas, "M_CONSTANTS", (2, 4, 3, 3, 4, 4))
        failing = verify_lemma3()
        assert len(failing.counterexamples) == 3
        real = lemmas.k_formula
        monkeypatch.setattr("palfact.rows._worst", [])
        monkeypatch.setattr(lemmas, "k_formula", lambda n: real(n) + delta)
        assert verify_lemma3() == failing
        monkeypatch.setattr(lemmas, "M_CONSTANTS", M_CONSTANTS)
        assert verify_lemma3() == expected


class TestExceptionLists:
    """An emptied exception list makes a case analysis fail with exactly the
    listed words, in the order the analysis meets them."""

    def test_lemma2_needs_every_listed_word(self, monkeypatch):
        listed = lemmas._LEMMA2_EXCEPTIONS
        monkeypatch.setattr(lemmas, "_LEMMA2_EXCEPTIONS", ())
        words = [bad["word"] for bad in verify_lemma2().counterexamples]
        assert words == ["bbaababbaababbaaaba", "bbaababbaababbaabab", "bbaababbaaabababbaa"]
        assert sorted(words) == sorted(listed)

    def test_lemma4_needs_every_listed_word(self, monkeypatch):
        listed = lemmas._LEMMA4_EXCEPTIONS_FOR_18
        monkeypatch.setattr(lemmas, "_LEMMA4_EXCEPTIONS_FOR_18", ())
        words = [bad["word"] for bad in verify_lemma4().counterexamples]
        assert words == ["aababbbaaabababbaa", "aababbbaababbaaaba", "aababbbaababbaabab"]
        assert sorted(words) == sorted(listed)

    def test_lemma3_listed_words_meet_the_bound(self):
        # The lemma's two named exceptions reach the bound floor(17/2 + 17/4)
        # = 12 exactly, which the check accepts, so it needs no exception list.
        for word in ("bbaababbaababbaaababbbaaababba", "bbaababbaababbaababbaaabababba"):
            assert min(M_CONSTANTS[a] + measure(word[a:]) for a in range(1, 5)) == 12
        assert verify_lemma3().passed

    def test_lemma3_drops_exactly_the_listed_words(self, monkeypatch):
        # With m_1 raised to 4, exactly three words fail, in this order.
        monkeypatch.setattr(lemmas, "M_CONSTANTS", (2, 4, 3, 3, 4, 4))
        failing = (
            "bbaababbaabababbbaababbaaababb",
            "bbaababbaababbbaaababbbaaababb",
            "bbaababbaabababbaabababbaababb",
        )
        assert verify_lemma3().counterexamples == tuple({"word": word} for word in failing)


class TestLemma7:
    def test_standard_depth(self):
        report = verify_lemma7(10)
        assert report.passed

    def test_case_count_includes_reduction_target(self):
        report = verify_lemma7(2)
        # n = 1..2 plus the length-5 and length-6 windows of (bbaaba)^2
        assert report.cases == 2 + 8 + 7

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            verify_lemma7(1)


class TestLemma8:
    def test_standard_depth(self):
        report = verify_lemma8(6)
        assert report.passed

    def test_base_values(self):
        assert measure(family("U", 8)) == 3
        assert measure(family("U", 9)) == 4
        assert measure(family("U", 10)) == 4

    def test_first_period(self):
        assert measure(family("U", 11)) == 4
        assert [measure(family("U", n)) for n in range(11, 17)] == [4, 5, 5, 5, 6, 6]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_lemma8(0)


class TestLemma9:
    def test_standard_depth(self):
        assert verify_lemma9(5).passed

    def test_base_values(self):
        assert measure(family("V", 0)) == 6
        assert len(family("V", 0)) == 14
        assert measure(family("V", 1)) == 8


class TestKsum:
    def test_standard_run(self):
        report = ksum_property(10_000, seed=42)
        assert report.passed
        assert report.cases == 10_000

    def test_reproducible(self):
        assert ksum_property(500, seed=7) == ksum_property(500, seed=7)

    def test_draws_are_pinned(self, monkeypatch):
        # The generator's state after a run fixes the order and the bounds
        # of every draw, so a seed keeps drawing the same tuples.
        made = []
        real = lemmas.random.Random

        def kept(seed):
            made.append(real(seed))
            return made[-1]

        monkeypatch.setattr(lemmas.random, "Random", kept)
        ksum_property(1000, 42)
        state = hashlib.sha256(repr(made[0].getstate()).encode()).hexdigest()
        assert state == "293532746d4e693a6b2c83f4fbc0257faee4b5b8e4c6bbaf257106f4ffa69407"

    def test_equality_when_tuples_coincide(self):
        # l = p and x = a forces equality of the weighted sums
        a = [3, 0, 5, 2]
        lhs = sum((k + 1) * v for k, v in enumerate(a))
        assert lhs == sum((k + 1) * v for k, v in enumerate(a))

    def test_forced_equality_case(self):
        x = (1, 3)
        a = (1, 3)
        assert sum((k + 1) * v for k, v in enumerate(x)) == 7
        assert sum((k + 1) * v for k, v in enumerate(a)) == 7

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ksum_property(0, seed=1)


class TestCountingBound:
    def test_lengths_9_through_12(self):
        report = verify_counting_bound(12)
        assert report.passed
        assert report.params == {"n_range": "9..12"}
        assert report.cases == sum(length_row(n).k for n in range(9, 13))

    def test_checks_every_n_it_is_given(self):
        report = verify_counting_bound(30)
        assert report.passed
        assert report.params == {"n_range": "9..30"}
        assert report.cases == sum(length_row(n).k for n in range(9, 31))

    def test_failing_entries_are_counterexamples(self, monkeypatch):
        real = lemmas.a_bound_squared
        monkeypatch.setattr(lemmas, "a_bound_squared", lambda n, k: 0 if (n, k) == (10, 2) else real(n, k))
        assert verify_counting_bound(11).counterexamples == ({"n": 10, "k": 2},)

    def test_rejects_below_9(self):
        with pytest.raises(ValueError):
            verify_counting_bound(8)


class TestFalsification:
    """A minimal tightening of each claim makes its real checker fail with
    a counterexample that names the mutated case."""

    def test_lemma1_bound_minus_one(self, monkeypatch):
        # m_5 lowered to 3: the witness for suffix bbaab and every word with it
        monkeypatch.setattr(lemmas, "M_CONSTANTS", (2, 3, 3, 3, 4, 3))
        assert verify_lemma1(1).counterexamples == (
            {"witness_for": "aababbbaab", "blocks": ("a", "aba", "bb", "baab")},
            {"word": "aababbbaab", "m": 4, "bound": 3},
            {"word": "aababbbaababbaab", "m": 6, "bound": 5},
        )

    def test_lemma7_palindrome_of_length_five(self, monkeypatch):
        real = lemmas.longest_palindromic_factor
        monkeypatch.setattr(lemmas, "longest_palindromic_factor", lambda w: 5 if w.length == 18 else real(w))
        assert verify_lemma7(10).counterexamples == ({"n": 3, "longest_palindromic_factor": 5},)

    def test_lemma8_measure_plus_one(self, monkeypatch):
        # m(u_12) is read by its closed form, its recurrence and that of u_16
        real = lemmas.measure
        monkeypatch.setattr(lemmas, "measure", lambda w: real(w) + (len(w) == 12))
        assert verify_lemma8(2).counterexamples == (
            {"n": 12, "m": 6, "expected": 5},
            {"n": 12, "m": 6, "recurrence": 5},
            {"n": 16, "m": 6, "recurrence": 7},
        )

    def test_lemma9_measure_plus_one(self, monkeypatch):
        real = lemmas.measure
        monkeypatch.setattr(lemmas, "measure", lambda w: real(w) + (w == family("V", 2)))
        assert verify_lemma9(5).counterexamples == ({"n": 2, "m": 11, "expected": 10},)

    def test_ksum_violating_tuple(self, monkeypatch):
        # x_1 = 2 > a_1 = 1 breaks the premise, and sum k x_k = 2 < 3 = sum k a_k
        real, calls = lemmas._ksum_pair, []

        def pair(draw):
            calls.append(None)
            return ([2, 0], [1, 1]) if len(calls) == 3 else real(draw)

        monkeypatch.setattr(lemmas, "_ksum_pair", pair)
        assert ksum_property(5, seed=1).counterexamples == ({"x": (2, 0), "a": (1, 1)},)

    def test_theorem1_formula_off_at_one_n(self, monkeypatch):
        real = lemmas.k_formula
        monkeypatch.setattr(lemmas, "k_formula", lambda n: real(n) + (n == 7))
        assert verify_theorem1(12).counterexamples == ({"n": 7, "enumerated": 3, "formula": 4},)

    def test_subadditivity_one_forged_kbar(self, monkeypatch):
        # kbar(1) + kbar(9) is the least kbar(i) + kbar(10 - i); a kbar(10)
        # one word-step above it breaks that pair alone.
        rows = length_rows(12)
        least = rows[0].kbar + rows[8].kbar
        assert all(least < rows[i - 1].kbar + rows[9 - i].kbar for i in range(2, 6))
        s = int(least * 1024) + 1
        forged = replace(rows[9], counts={3: 4 * 1024 - s, 4: s - 3 * 1024})
        assert forged.kbar == least + Fraction(1, 1024)
        monkeypatch.setattr(lemmas, "length_rows", lambda n_max: [*rows[:9], forged, *rows[10:n_max]])
        assert subadditivity_check(12).counterexamples == ({"i": 1, "j": 9},)


class TestSuite:
    def test_order_and_parameters(self):
        runs = lemmas.standard_runs(ksum_trials=50, seed=7, max_n=1)
        assert list(runs) == [
            "lemma1", "lemma2", "lemma3", "lemma4", "lemma7", "lemma8", "lemma9",
            "ksum", "theorem1", "subadditivity", "counting",
        ]
        assert runs["ksum"]().params == {"trials": 50, "seed": 7}
        assert runs["theorem1"]().params == {"n_max": 1}
        # max_n is passed through: subadditivity needs two lengths
        with pytest.raises(ValueError, match="n_max must be in 2..32, got 1"):
            runs["subadditivity"]()
        assert lemmas.standard_runs(max_n=3)["subadditivity"]().params["n_max"] == 3

    def test_runs_look_their_checker_up_when_called(self, monkeypatch):
        runs = lemmas.standard_runs(max_n=12)
        fake = LemmaReport("theorem1", {"n_max": 12}, 12, ({"n": 1, "enumerated": 1, "formula": 2},))
        monkeypatch.setattr(lemmas, "verify_theorem1", lambda n_max: fake)
        assert runs["theorem1"]() is fake


class TestReportShape:
    def test_fail_reports_carry_counterexamples(self):
        report = LemmaReport("demo", {}, 1, ({"word": "ab"},))
        assert not report.passed
        assert report.verdict == "fail"
        assert report.counterexamples

    def test_pass_reports_do_not(self):
        report = LemmaReport("demo", {}, 1)
        assert report.passed
        assert report.verdict == "pass"

    def test_reports_reproducible(self):
        assert verify_lemma8(3) == verify_lemma8(3)
        assert verify_lemma2() == verify_lemma2()
