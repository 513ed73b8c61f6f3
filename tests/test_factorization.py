from __future__ import annotations

import random

import pytest

from oracles import IncrementalState, brute_force_m, longest_palindrome_by_centres, quadratic_dp
from palfact.factorization import (
    _eertree,
    _fold_suffixes,
    _min_keys,
    longest_palindromic_factor,
    measure,
    min_factorization,
    reachable_k,
)
from palfact.words import Word, WordError, family, is_palindrome, parse_word


class TestMinFactorization:
    def test_single_letter(self):
        fact = min_factorization("a")
        assert fact.m == 1
        assert fact.cuts == (0, 1)
        assert str(fact) == "(a)"

    def test_exceptional_word(self):
        assert min_factorization("aababbaabab").m == 5

    def test_seed_word_witness(self):
        fact = min_factorization("aabab")
        assert fact.m == 2
        assert str(fact) == "(aa)(bab)"
        assert brute_force_m("aabab") == 2

    def test_two_letters(self):
        fact = min_factorization("ab")
        assert fact.m == 2
        assert str(fact) == "(a)(b)"

    def test_empty_rejected(self):
        with pytest.raises(WordError):
            min_factorization(Word.empty())

    def test_witness_blocks_are_palindromes(self):
        for n in range(1, 11):
            for bits in range(1 << n):
                fact = min_factorization(Word(bits, n))
                assert fact.cuts[0] == 0 and fact.cuts[-1] == n
                assert len(fact.cuts) == fact.m + 1
                for block in fact.blocks():
                    assert block and block == block[::-1]

    def test_matches_brute_force_to_length_8(self):
        for n in range(1, 9):
            for bits in range(1 << n):
                w = Word(bits, n)
                assert min_factorization(w).m == brute_force_m(w.text)

    def test_measure_agrees_with_witness_path(self):
        for n in range(1, 12):
            for bits in range(0, 1 << n, 5):
                w = Word(bits, n)
                assert measure(w) == min_factorization(w).m


class TestIncrementalState:
    def test_prefix_measure_sequence(self):
        state = IncrementalState()
        seq = [state.push_symbol(sym) for sym in "aabab"]
        assert seq == [1, 1, 2, 2, 2]
        # matches fresh evaluations of every prefix
        assert seq == [min_factorization("aabab"[: i + 1]).m for i in range(5)]

    def test_push_pop_restores_empty(self):
        state = IncrementalState()
        state.push_symbol("a")
        state.pop_symbol()
        assert state.current_length == 0
        with pytest.raises(WordError):
            _ = state.current_m

    def test_full_exceptional_word(self):
        state = IncrementalState()
        for sym in "aababbaabab":
            state.push_symbol(sym)
        assert state.current_m == 5
        assert state.current_word.text == "aababbaabab"

    def test_capacity(self):
        state = IncrementalState(capacity=3)
        for sym in "aba":
            state.push_symbol(sym)
        with pytest.raises(WordError):
            state.push_symbol("a")

    def test_pop_empty_rejected(self):
        with pytest.raises(WordError):
            IncrementalState().pop_symbol()

    def test_interleaved_push_pop_consistency(self):
        state = IncrementalState()
        for sym in "aabab":
            state.push_symbol(sym)
        for _ in range(3):
            state.pop_symbol()
        for sym in "bab":
            state.push_symbol(sym)
        assert state.current_m == min_factorization("aabab"[:2] + "bab").m


class TestReachableK:
    def test_examples(self):
        assert reachable_k("aa", 2) == {1, 2}
        assert reachable_k("ab", 2) == {2}
        reachable = reachable_k("aabab", 5)
        assert {2, 4} <= reachable

    def test_k_max_caps_the_set(self):
        assert reachable_k("aabab", 3) == {2, 3}

    def test_preconditions(self):
        with pytest.raises(WordError):
            reachable_k(Word.empty(), 0)
        with pytest.raises(ValueError):
            reachable_k("ab", 3)

    def test_min_reachable_is_m(self):
        for n in range(1, 11):
            for bits in range(1 << n):
                w = Word(bits, n)
                assert min(reachable_k(w, n)) == measure(w)

    def test_full_split_always_reachable(self):
        for n in range(1, 10):
            for bits in range(0, 1 << n, 7):
                assert n in reachable_k(Word(bits, n), n)


def _fibonacci(length: int) -> str:
    word = "a"
    while len(word) < length:
        word = "".join("ab" if c == "a" else "a" for c in word)
    return word[:length]


def _seeded_words() -> list[str]:
    """Uniform random and palindrome-rich words of up to 2000 letters."""
    rng = random.Random(2014)

    def uniform(length: int) -> str:
        return "".join(rng.choice("ab") for _ in range(length))

    def palindrome(length: int) -> str:
        half = uniform(length // 2)
        return half + uniform(length % 2) + half[::-1]

    words = [uniform(n) for n in (15, 37, 200, 777, 2000)]
    words += ["a" * 1500, "a" * 700 + "b" + "a" * 699]
    words += [_fibonacci(2000), _fibonacci(1597)[::-1].translate(str.maketrans("ab", "ba"))]
    words += ["".join(palindrome(rng.randint(1, 300)) for _ in range(k)) for k in (2, 5, 12)]
    words += [palindrome(1201), palindrome(64) * 20 + uniform(30)]
    words += [family("W", 150).text, family("U", 1234).text, family("V", 300).text]
    return words


class TestQuadraticOracle:
    """The palindromic-tree engine against the quadratic DP in ``oracles``."""

    @pytest.fixture(scope="class")
    def small_words(self):
        """Every word of length 1..14 with its oracle values: m, cuts, the
        full set of reachable block counts and the longest palindrome."""
        table = []
        for n in range(1, 15):
            for bits in range(1 << n):
                w = Word(bits, n)
                m, cuts, reach = quadratic_dp(w.text, n)
                table.append((w, m, cuts, reach, longest_palindrome_by_centres(w.text)))
        return table

    def test_min_factorization_and_measure_to_14(self, small_words):
        for w, m, cuts, _, _ in small_words:
            fact = min_factorization(w)
            assert (fact.m, fact.cuts) == (m, cuts), w.text
            assert measure(w) == m, w.text

    def test_reachable_k_to_14(self, small_words):
        for w, _, _, reach, _ in small_words:
            n = w.length
            assert reachable_k(w, n) == reach, w.text
            assert reachable_k(w, n // 2) == {k for k in reach if k <= n // 2}, w.text

    def test_longest_palindromic_factor_to_14(self, small_words):
        for w, _, _, _, longest in small_words:
            assert longest_palindromic_factor(w) == longest, w.text

    @pytest.mark.parametrize("text", _seeded_words(), ids=lambda t: f"{t[:6]}..{len(t)}")
    def test_seeded_words_to_2000(self, text):
        n = len(text)
        m, cuts, reach = quadratic_dp(text, n)
        fact = min_factorization(text)
        assert (fact.m, fact.cuts) == (m, cuts)
        assert measure(text) == m
        assert reachable_k(text, n) == reach
        assert reachable_k(text, n // 2) == {k for k in reach if k <= n // 2}
        assert longest_palindromic_factor(parse_word(text)) == longest_palindrome_by_centres(text)

    def test_factor_of_100k_letters_is_a_valid_witness(self):
        rng = random.Random(5)
        text = "".join(rng.choice("ab") for _ in range(60_000)) + "ab" * 10_000 + _fibonacci(20_000)
        fact = min_factorization(text)
        assert fact.cuts[0] == 0 and fact.cuts[-1] == len(text) == 100_000
        assert len(fact.cuts) == fact.m + 1
        assert all(block and block == block[::-1] for block in fact.blocks())
        assert fact.m == measure(text)


class TestSeriesWalk:
    """The palindromic tree's series table against its definitions, and the
    written-out min walk of ``_min_keys`` against the generic
    ``_fold_suffixes`` it specialises."""

    @staticmethod
    def _words(max_len: int) -> list[str]:
        return [Word(bits, n).text for n in range(1, max_len + 1) for bits in range(1 << n)] + _seeded_words()

    def test_min_walk_equals_generic_fold(self):
        for text in self._words(14):
            n = len(text)
            base = n + 1
            generic = _fold_suffixes(text, -base, lambda key, i: (key // base + 1) * base + n - i, min)
            assert _min_keys(parse_word(text)) == (generic, base), text

    def test_series_table_matches_link_chains(self):
        for text in self._words(12):
            length, link, series, reach, suffix = _eertree(text)

            def diff(v: int) -> int:
                return length[v] - length[link[v]] if v > 1 else 0

            for v in range(2, len(length)):
                first = link[v]
                while diff(first) == diff(v):
                    first = link[first]
                assert series[v] == first, (text, v)
                assert reach[v] == length[first] + diff(v), (text, v)
                assert (series[v] != link[v]) == (diff(v) == diff(link[v])), (text, v)
            if len(text) <= 12:
                # the nodes are the distinct palindromic factors, and suffix[j]
                # is the longest palindromic suffix of each prefix
                factors = {text[i:j] for j in range(len(text) + 1) for i in range(j) if text[i:j] == text[i:j][::-1]}
                assert len(length) == len(factors) + 2, text
                for j in range(1, len(text) + 1):
                    longest = max(j - i for i in range(j) if text[i:j] == text[i:j][::-1])
                    assert length[suffix[j]] == longest, (text, j)

    @pytest.mark.parametrize("text", ["ab", "a" * 300, _fibonacci(987), "aababbaabab" * 20])
    def test_fold_calls_leaf_once_per_position(self, text):
        calls = []

        def leaf(value: int, i: int) -> int:
            calls.append(i)
            return value + 1

        _fold_suffixes(text, 0, leaf, min)
        assert calls == list(range(len(text) + 1))


class TestMeasureInvariants:
    def test_bounds_and_palindrome_characterisation(self):
        for n in range(1, 11):
            for bits in range(1 << n):
                w = Word(bits, n)
                m = measure(w)
                assert 1 <= m <= n
                assert (m == 1) == is_palindrome(w)

    def test_symmetry_invariance_small(self):
        for n in range(1, 11):
            for bits in range(1 << n):
                w = Word(bits, n)
                m = measure(w)
                assert measure(w.reversed()) == m
                assert measure(w.complement()) == m

    def test_subadditivity_small(self):
        words = [Word(bits, n) for n in range(1, 6) for bits in range(1 << n)]
        for u in words:
            for v in words:
                assert measure(u + v) <= measure(u) + measure(v)

    def test_string_input_accepted(self):
        assert measure("baab") == 1
        assert min_factorization(parse_word("baab")).m == 1
