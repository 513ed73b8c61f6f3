"""The asymmetry measure m(w): minimal palindromic factorizations.

m(w) is the least number of nonempty palindromes whose concatenation is
w.  It obeys the prefix recurrence

    dp[j] = 1 + min{ dp[i] : i < j, w[i..j) a palindrome },  dp[0] = 0,

which also yields an explicit witness.  Every single-word computation
here (m with its witness, the realizable block counts, the longest
palindromic factor) is one walk over the palindromic tree (eertree) of
the word.  The palindromic suffixes of a prefix fall into O(log n)
series whose lengths form arithmetic progressions; each series keeps an
aggregate over its start positions, reused from the position ``diff``
letters earlier, so a word of length n costs O(n log n) time and O(n)
memory.  See Rubinchik & Shur, "EERTREE: an efficient data structure for
processing palindromes in strings" (IWOCA 2015), and I, Sugimoto,
Inenaga, Bannai & Takeda, "Computing palindromic factorizations and
palindromic covers on-line" (CPM 2014).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, TypeVar

from .words import Word, WordError, parse_word

__all__ = [
    "Factorization",
    "min_factorization",
    "measure",
    "reachable_k",
    "longest_palindromic_factor",
]

T = TypeVar("T")


@dataclass(frozen=True)
class Factorization:
    """A minimal factorization: the measure plus its witness cuts.

    ``cuts`` lists the block boundaries 0 = c0 < c1 < ... < cm = len(word),
    so the word splits into exactly ``m`` palindromic blocks.
    """

    word: Word
    m: int
    cuts: tuple[int, ...]

    def blocks(self) -> tuple[str, ...]:
        text = self.word.text
        return tuple(text[self.cuts[i] : self.cuts[i + 1]] for i in range(self.m))

    def __str__(self) -> str:
        return "".join(f"({block})" for block in self.blocks())


def _eertree(text: str) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The palindromic tree of ``text``.

    Returns ``(length, link, diff, series, suffix)``.  Node 0 is the
    imaginary root of length -1 and node 1 the empty palindrome; every
    other node is a distinct nonempty palindromic factor.  ``link`` is the
    longest proper palindromic suffix, ``diff[v] = length[v] -
    length[link[v]]``, and ``series[v]`` is the first node down the link
    chain whose ``diff`` differs from ``diff[v]``.  ``suffix[j]`` is the
    longest palindromic suffix of the length-j prefix.
    """
    length, link, diff, series = [-1, 0], [0, 0], [0, 0], [0, 0]
    child = {"a": [0, 0], "b": [0, 0]}  # child[c][v]: node c+v+c, 0 if absent
    suffix = [1]
    v = 1
    for i, c in enumerate(text):
        while i - length[v] < 1 or text[i - length[v] - 1] != c:
            v = link[v]
        edges = child[c]
        u = edges[v]
        if not u:
            u = len(length)
            new_len = length[v] + 2
            lk = 1
            if new_len > 1:
                lk = link[v]
                while i - length[lk] < 1 or text[i - length[lk] - 1] != c:
                    lk = link[lk]
                lk = edges[lk]
            d = new_len - length[lk]
            length.append(new_len)
            link.append(lk)
            diff.append(d)
            series.append(series[lk] if d == diff[lk] else lk)
            child["a"].append(0)
            child["b"].append(0)
            edges[v] = u
        v = u
        suffix.append(u)
    return length, link, diff, series, suffix


def _fold_suffixes(text: str, seed: T, leaf: Callable[[T, int], T], join: Callable[[T, T], T]) -> list[T]:
    """``acc[j]`` for every prefix length j of ``text``: ``acc[0] = seed``,
    and ``acc[j]`` joins ``leaf(acc[i], i)`` over every i < j with
    ``text[i:j]`` a palindrome.

    ``join`` must be associative and commutative.  The palindromic
    suffixes of each prefix are walked series by series (a run of suffix
    links with one ``diff``).  The value of a series at j joins the leaf
    of its shortest member's start with the value that its second member
    ``link[v]`` stored as a series head ``diff[v]`` positions earlier; that
    value covered exactly the other start positions of the series, so a
    leaf keyed by its absolute start is folded exactly once.
    """
    length, link, diff, series, suffix = _eertree(text)
    acc = [seed]
    per_series: list = [None] * len(length)
    for j in range(1, len(text) + 1):
        v = suffix[j]
        total = None
        while length[v] > 0:
            start = j - length[series[v]] - diff[v]
            value = leaf(acc[start], start)
            if diff[v] == diff[link[v]]:
                value = join(value, per_series[link[v]])
            per_series[v] = value
            total = value if total is None else join(total, value)
            v = series[v]
        acc.append(total)
    return acc


def _as_word(w: Word | str, what: str) -> Word:
    if isinstance(w, str):
        w = parse_word(w)
    if w.length == 0:
        raise WordError(f"{what} is undefined on the empty word")
    return w


def _min_keys(w: Word) -> tuple[list[int], int]:
    """The recurrence folded as one integer key per prefix length j.

    Each start i of a palindromic final block is keyed ``dp[i] * base +
    (n - i)``, so the minimum key picks the least dp[i] and, among those,
    the largest i: the shortest minimizing final block.  From the key of
    prefix j, ``dp[j] = key // base + 1`` and the final block starts at
    ``n - key % base``.  The seed gives dp[0] = 0.
    """
    n = w.length
    base = n + 1
    keys = _fold_suffixes(w.text, -base, lambda key, i: (key // base + 1) * base + n - i, min)
    return keys, base


def _prefix_measures(w: Word) -> list[int]:
    """[m(w[:j]) for j = 0..len(w)], with the 0 convention at j = 0."""
    keys, base = _min_keys(w)
    return [key // base + 1 for key in keys]


def min_factorization(w: Word | str) -> Factorization:
    """Minimal palindromic factorization of a nonempty word.

    The witness is deterministic: among minimizing final blocks the
    shortest one is taken, recursively.
    """
    w = _as_word(w, "m")
    keys, base = _min_keys(w)
    n = w.length
    cuts = [n]
    while cuts[-1] > 0:
        cuts.append(n - keys[cuts[-1]] % base)
    return Factorization(w, keys[n] // base + 1, tuple(reversed(cuts)))


def measure(w: Word | str) -> int:
    """m(w) without the witness."""
    return _prefix_measures(_as_word(w, "m"))[-1]


def reachable_k(w: Word | str, k_max: int) -> set[int]:
    """Exact set of block counts k <= k_max realizable as a product of
    exactly k nonempty palindromes."""
    w = _as_word(w, "reachable_k")
    if k_max > w.length:
        raise ValueError(f"k_max {k_max} exceeds word length {w.length}")
    mask = (1 << (k_max + 1)) - 1
    # bit k of reach[j]: the length-j prefix splits into exactly k palindromes
    reach = _fold_suffixes(w.text, 1, lambda bits, i: (bits << 1) & mask, operator.or_)
    return {k for k in range(1, k_max + 1) if (reach[-1] >> k) & 1}


def longest_palindromic_factor(w: Word) -> int:
    """Length of the longest contiguous palindromic factor (>= 1)."""
    if w.length == 0:
        raise WordError("the empty word has no factors")
    return max(_eertree(w.text)[0])
