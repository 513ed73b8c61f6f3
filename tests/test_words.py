from __future__ import annotations

import itertools
import random

import pytest

from oracles import PalTable, complement_bits_per_letter, parse_by_letters, reverse_bits_per_letter, text_of
from palfact.factorization import longest_palindromic_factor
from palfact.words import (
    Word,
    WordError,
    family,
    is_palindrome,
    orbit,
    parse_word,
)


class TestParse:
    def test_round_trip(self):
        w = parse_word("aabab")
        assert w.length == 5
        assert w.text == "aabab"
        assert [w[i] for i in range(5)] == list("aabab")

    def test_digit_alias(self):
        assert parse_word("01101").text == "abbab"

    def test_invalid_character_names_position(self):
        with pytest.raises(WordError, match="position 2"):
            parse_word("aXb")

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(WordError, match="position 3"):
            parse_word("ab1")

    def test_empty_needs_opt_in(self):
        with pytest.raises(WordError, match="^empty word$"):
            parse_word("")
        assert Word.empty().text == ""

    def test_matches_letter_by_letter_parse(self):
        texts = ["".join(p) for n in range(1, 6) for p in itertools.product("ab01x", repeat=n)]
        texts += ["ab" * 500 + "0", "1" * 999 + "b", "\u00e9ab", "a\nb", "bbbb "]
        for text in texts:
            try:
                expected = parse_by_letters(text)
            except WordError as exc:
                with pytest.raises(WordError) as got:
                    parse_word(text)
                assert str(got.value) == str(exc), text
            else:
                w = parse_word(text)
                assert (w.bits, w.length) == expected, text

    def test_text_matches_letter_by_letter(self):
        for n in range(0, 11):
            for bits in range(1 << n):
                assert Word(bits, n).text == text_of(bits, n)
        rng = random.Random(11)
        bits = rng.getrandbits(100_000) | 1 << 99_999
        w = Word(bits, 100_000)
        assert w.text == text_of(bits, 100_000)
        assert parse_word(w.text) == w

    def test_bits_validation(self):
        with pytest.raises(WordError):
            Word(bits=4, length=2)
        with pytest.raises(WordError):
            Word(bits=0, length=-1)


class TestPalindrome:
    @pytest.mark.parametrize(
        "text,expected",
        [("aba", True), ("ab", False), ("baab", True), ("a", True), ("aa", True)],
    )
    def test_examples(self, text, expected):
        assert is_palindrome(parse_word(text)) is expected

    def test_empty_word_is_palindromic(self):
        assert is_palindrome(Word.empty())

    def test_matches_reversal_exhaustively(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                w = Word(bits, n)
                assert is_palindrome(w) == (w.text == w.text[::-1])

    def test_complement_invariance_exhaustively(self):
        for n in range(1, 13):
            for bits in range(1 << n):
                w = Word(bits, n)
                assert is_palindrome(w) == is_palindrome(w.complement())

    def test_stripping_ends_preserves_palindromes(self):
        # the reduction step: removing both end letters of a palindrome of
        # length >= 2 leaves a palindrome
        for n in range(2, 13):
            for bits in range(1 << n):
                w = Word(bits, n)
                if is_palindrome(w):
                    assert is_palindrome(w.factor(1, n - 1))


class TestSymmetries:
    def test_aabab(self):
        w = parse_word("aabab")
        assert w.reversed().text == "babaa"
        assert w.complement().text == "bbaba"
        assert w.reversed().complement().text == "ababb"
        assert orbit(w).words == ("aabab", "ababb", "babaa", "bbaba")

    def test_fixed_point(self):
        w = parse_word("aba")
        assert w.reversed() == w
        assert orbit(w).words == ("aba", "bab")

    def test_involutions(self):
        for bits in range(1 << 7):
            w = Word(bits, 7)
            assert w.reversed().reversed() == w
            assert w.complement().complement() == w

    def test_exceptional_orbit_has_four_elements(self):
        # enumerate the images explicitly and deduplicate
        w = parse_word("aababbaabab")
        images = {w.text, w.reversed().text, w.complement().text, w.reversed().complement().text}
        assert len(images) == 4
        assert orbit(w).size == 4

    def test_orbit_sorted_and_minimal_rep(self):
        orb = orbit(parse_word("ba"))
        assert orb.words == ("ab", "ba")
        assert orb.representative == "ab"

    def test_reversal_matches_per_letter_oracle(self):
        words = [Word(bits, n) for n in range(13) for bits in range(1 << n)]
        half = Word(random.Random(5).getrandbits(50_000), 50_000)
        words += [half + half.complement(), half + half.reversed()]  # 10^5 letters each
        for w in words:
            rev = reverse_bits_per_letter(w.bits, w.length)
            assert w.reversed() == Word(rev, w.length)
            assert w.complement() == Word(complement_bits_per_letter(w.bits, w.length), w.length)
            assert is_palindrome(w) == (rev == w.bits)
        assert is_palindrome(words[-1]) and not is_palindrome(words[-2])

    def test_orbit_matches_per_letter_images(self):
        # the sorted distinct texts of w, its reversal, complement and both
        for n in range(13):
            for bits in range(1 << n):
                rev = reverse_bits_per_letter(bits, n)
                images = (bits, rev, complement_bits_per_letter(bits, n), complement_bits_per_letter(rev, n))
                expected = tuple(sorted({text_of(b, n) for b in images}))
                assert orbit(Word(bits, n)).words == expected


class TestFamily:
    def test_w1(self):
        assert family("W", 1).text == "aababbbaaba"
        assert len(family("W", 4)) == 6 * 4 + 5

    def test_u8_prefix(self):
        assert family("U", 8).text == "aababbba"

    def test_u_long_prefix_consistency(self):
        # each W(t) is a prefix of W(t+1), so U(n) is well defined
        for n in range(1, 40):
            assert family("W", 7).text[:n] == family("U", n).text

    def test_v0(self):
        w = family("V", 0)
        assert w.text == "aababbbaaababb"
        assert len(w) == 14
        assert len(family("V", 3)) == 6 * 3 + 14

    def test_rejections(self):
        with pytest.raises(WordError):
            family("W", -1)
        with pytest.raises(WordError):
            family("U", 0)
        with pytest.raises(WordError):
            family("X", 1)


class TestLongestPalindromicFactor:
    @pytest.mark.parametrize("text,expected", [("ab", 1), ("aaaa", 4), ("bbaababbaaba", 4)])
    def test_examples(self, text, expected):
        assert longest_palindromic_factor(parse_word(text)) == expected

    def test_empty_rejected(self):
        with pytest.raises(WordError):
            longest_palindromic_factor(Word.empty())

    def test_brute_force_agreement(self):
        for n in range(1, 11):
            for bits in range(0, 1 << n, 3):
                w = Word(bits, n)
                text = w.text
                best = max(
                    j - i
                    for i in range(n)
                    for j in range(i + 1, n + 1)
                    if text[i:j] == text[i:j][::-1]
                )
                assert longest_palindromic_factor(w) == best

    def test_block_powers_peak_at_four(self):
        for n in range(2, 21):
            assert longest_palindromic_factor(parse_word("bbaaba" * n)) == 4


class TestPalTable:
    def test_push_pop_identity(self):
        table = PalTable()
        table.push("a")
        before = table.snapshot()
        table.push("b")
        table.pop()
        assert table.snapshot() == before

    def test_matches_fresh_table_under_random_interleaving(self):
        rng = random.Random(7)
        for _ in range(200):
            table = PalTable()
            reference: list[str] = []
            for _ in range(40):
                if reference and rng.random() < 0.4:
                    table.pop()
                    reference.pop()
                elif len(reference) < 20:
                    sym = rng.choice("ab")
                    table.push(sym)
                    reference.append(sym)
            fresh = PalTable()
            for sym in reference:
                fresh.push(sym)
            assert table.snapshot() == fresh.snapshot()

    def test_cells_are_palindrome_tests(self):
        table = PalTable()
        text = "aababbaabab"
        for sym in text:
            table.push(sym)
        for i in range(len(text)):
            for j in range(i, len(text)):
                assert table.is_pal(i, j) == (text[i : j + 1] == text[i : j + 1][::-1])

    def test_pop_empty_rejected(self):
        with pytest.raises(WordError):
            PalTable().pop()
