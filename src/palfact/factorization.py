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
memory.  The tree is built once with a series table: for each node, the
first node below its series and how far back the series' shortest
member starts.  ``_fold_suffixes`` is the generic walk over that table
(the block counts use it); ``_min_keys`` is the same walk for the
integer min keys of m and its witness, written out without calls, and
the tests hold it equal to the generic walk.  See Rubinchik & Shur,
"EERTREE: an efficient data structure for processing palindromes in
strings" (IWOCA 2015), and I, Sugimoto, Inenaga, Bannai & Takeda,
"Computing palindromic factorizations and palindromic covers on-line"
(CPM 2014).
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
    """The palindromic tree of ``text`` with its series table.

    Returns ``(length, link, series, reach, suffix)``.  Node 0 is the
    imaginary root of length -1 and node 1 the empty palindrome; every
    other node is a distinct nonempty palindromic factor.  ``link[v]`` is
    the longest proper palindromic suffix of v.  Let ``diff[v] = length[v]
    - length[link[v]]`` (0 at the roots): ``series[v]`` is the first node
    down the link chain whose ``diff`` differs from ``diff[v]``, and v's
    series is v and the nodes above ``series[v]`` on that chain, whose
    lengths step by ``diff[v]``.  ``reach[v] = length[series[v]] +
    diff[v]`` is the length of the series' shortest member, so at any
    prefix that v ends, that member starts ``reach[v]`` letters back.
    ``link[v]`` lies in v's series exactly when ``series[v] != link[v]``.
    ``suffix[j]`` is the longest palindromic suffix of the length-j
    prefix.  Nodes 0 and 1 hold 0 in ``series`` and ``reach``.
    """
    length, link, series, reach = [-1, 0], [0, 0], [0, 0], [0, 0]
    child_a, child_b = [0, 0], [0, 0]  # child_c[v]: node c+v+c, 0 if absent
    child = {"a": child_a, "b": child_b}
    # s[i - length[v]] is the letter before the length[v]-letter suffix of
    # the length-i prefix; the sentinel matches no letter, so both link
    # walks stop inside the word with no bounds test.
    s = "#" + text
    suffix = [1]
    v = 1
    for i, c in enumerate(text):
        while s[i - length[v]] != c:
            v = link[v]
        edges = child[c]
        u = edges[v]
        if not u:
            u = len(length)
            new_len = length[v] + 2
            if new_len > 1:
                lk = link[v]
                while s[i - length[lk]] != c:
                    lk = link[lk]
                lk = edges[lk]  # a nonempty palindrome, so not a root
                d = new_len - length[lk]
                ser = series[lk] if d == length[lk] - length[link[lk]] else lk
            else:
                lk = ser = d = 1
            length.append(new_len)
            link.append(lk)
            series.append(ser)
            reach.append(length[ser] + d)
            child_a.append(0)
            child_b.append(0)
            edges[v] = u
        v = u
        suffix.append(u)
    return length, link, series, reach, suffix


def _fold_suffixes(text: str, seed: T, leaf: Callable[[T, int], T], join: Callable[[T, T], T]) -> list[T]:
    """``acc[j]`` for every prefix length j of ``text``: ``acc[0] = seed``,
    and ``acc[j]`` joins ``leaf(acc[i], i)`` over every i < j with
    ``text[i:j]`` a palindrome.

    ``join`` must be associative and commutative.  ``leaf`` is called once
    per position, when ``acc[i]`` is final.  The palindromic suffixes of
    each prefix are walked series by series.  The value of v's series at
    j joins the leaf of its shortest member's start, ``j - reach[v]``,
    with the value that ``link[v]`` stored as a series head ``diff[v]``
    positions earlier, when ``link[v]`` is in the series; that value
    covered exactly the other start positions of the series, so each leaf
    is folded exactly once.  This is the specification of the min walk
    that ``_min_keys`` writes out.
    """
    link, series, reach, suffix = _eertree(text)[1:]
    acc = [seed]
    leaves = [leaf(seed, 0)]
    per_series: list = [None] * len(link)
    for j in range(1, len(text) + 1):
        v = suffix[j]
        total = None
        while v > 1:
            value = leaves[j - reach[v]]
            if series[v] != link[v]:
                value = join(value, per_series[link[v]])
            per_series[v] = value
            total = value if total is None else join(total, value)
            v = series[v]
        acc.append(total)
        leaves.append(leaf(total, j))
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

    This is ``_fold_suffixes(w.text, -base, leaf, min)`` with the leaf
    ``(key // base + 1) * base + n - i``, written out: the leaves are
    stored once per position and the series walk compares them in
    place, with no call per series.  It takes the minimum of the same
    leaves, so each key is exactly the fold's.  Every prefix has a
    nonempty palindromic suffix, so each ``total`` starts above every
    key and ends as a real one.
    """
    n = w.length
    base = n + 1
    # The walk reads no lengths; dropping that list lowers peak memory on
    # words with ~n distinct palindromes, such as Fibonacci words.
    link, series, reach, suffix = _eertree(w.text)[1:]
    keys = [-base]
    leaves = [n]
    per_series = [0] * len(link)
    above_all = base * base
    for j in range(1, n + 1):
        v = suffix[j]
        total = above_all
        while v > 1:
            value = leaves[j - reach[v]]
            lk = link[v]
            u = series[v]
            if u != lk:
                held = per_series[lk]
                if held < value:
                    value = held
            per_series[v] = value
            if value < total:
                total = value
            v = u
        keys.append(total)
        leaves.append((total // base + 1) * base + n - j)
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
