"""The rows of one word length, and the doors through which every row is read.

A ``LengthRow`` is a length's histogram of m; K(n), S(n) and the exact
average kbar(n) are derived from it.  Histogram rows are made by
``enumeration``, stored by ``cache`` and read through ``length_row`` or
``length_rows``, which serve the rows of the longest scan made so far in
the process (the memo).  Given a ``cache.ResultCache``, they return the
wanted rows from it when it holds them all, and otherwise store every row
of the memo's answer in it.  Cached rows never enter the memo.

A ``WorstRow`` is K(n) with every a-initial word attaining it, read through
``worst_rows``: a depth-first search drops each prefix u with m(u) +
K(n - |u|) below the floor sought, as m(uv) <= m(u) + K(|v|).  A prefix u
exactly at that need, m(u) + K(n - |u|) equal to the floor, may only go on
into a maximizer of length n - |u|: a tail v of smaller m leaves m(uv)
below the floor.  So the search checks the next letters against the first
ones of the shorter length's maximizers (its heads) and loses no word that
reaches the floor, whatever the floor.  Its state (``_step``) is the mask of
a word's palindromic suffix lengths, the bounded, bit-parallel form of the
suffix series of I, Sugimoto, Inenaga, Bannai & Takeda (CPM 2014) and of
Rubinchik & Shur's eertree (IWOCA 2015); Lemmas 3 and 4 search on it too.
Only a scan imports ``enumeration`` and numpy.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .words import Orbit, Word, orbit

if TYPE_CHECKING:
    from .cache import ResultCache

__all__ = ["PACKED_LIMIT", "SAMPLE_CAP", "LengthRow", "WorkerDied", "WorstRow", "length_row", "length_rows", "worst_rows"]

# Vectorised layers index words by int64 values; 32 keeps every layer and
# temporary comfortably addressable.
PACKED_LIMIT = 32

# Orbits a worst-case row lists as its samples; the K table prints the
# first one's representative.
SAMPLE_CAP = 16


@dataclass(frozen=True)
class LengthRow:
    """Exact enumeration results for one word length.

    ``counts`` maps each value k of m to the number of the 2^n words with
    m = k, in ascending k.  Everything else is derived from it.
    """

    n: int
    counts: dict[int, int]

    @property
    def k(self) -> int:
        """K(n), the largest m over the words of length n."""
        return max(self.counts)

    @property
    def s(self) -> int:
        """S(n) = sum of m over all words of length n."""
        return sum(k * c for k, c in self.counts.items())

    @property
    def kbar(self) -> Fraction:
        """The exact average S(n)/2^n."""
        return Fraction(self.s, 1 << self.n)

    @property
    def kbar_text(self) -> str:
        """Two decimals, round half to even."""
        cents = round(self.kbar * 100)
        return f"{cents // 100}.{cents % 100:02d}"

    @property
    def ratio(self) -> Fraction:
        return self.kbar / self.n

    @property
    def ratio_text(self) -> str:
        """Four decimals, round half to even."""
        units = round(self.ratio * 10_000)
        return f"{units // 10_000}.{units % 10_000:04d}"


@dataclass(frozen=True)
class WorstRow:
    """K(n) and, as packed words in ascending order, every word of length n
    attaining it that starts with 'a' (the others are their letter swaps)."""

    n: int
    k: int
    maximizers: tuple[int, ...]

    @property
    def maximizer_count(self) -> int:
        """Words of length n attaining K(n), both initial letters."""
        return 2 * len(self.maximizers)

    def orbits(self) -> Iterator[Orbit]:
        """The maximizers grouped into symmetry orbits, by representative.

        An orbit's least member starts with 'a', so the a-initial maximizers
        walked in text order meet every orbit once, at its representative,
        and in order; the walk goes only as far as it is consumed.
        """
        for word in sorted((Word(bits, self.n) for bits in self.maximizers), key=lambda w: w.text):
            orb = orbit(word)
            if orb.representative == word.text:
                yield orb

    @property
    def sample_orbits(self) -> tuple[Orbit, ...]:
        """The SAMPLE_CAP orbits with the least representatives."""
        return tuple(islice(self.orbits(), SAMPLE_CAP))


class WorkerDied(RuntimeError):
    """A worker process of a sharded scan ended without its result."""


# Rows of the longest scan made so far in this process, keyed 1..n.  Shared
# by every caller, which is sound because rows are a pure function of n and
# no caller mutates them.
_memo: dict[int, LengthRow] = {}


def _rows_upto(n_max: int) -> dict[int, LengthRow]:
    """Rows for at least 1..n_max, scanning only when the memo is too short."""
    global _memo
    if n_max not in _memo:
        from . import enumeration  # loads numpy: only a scan builds layers

        _memo = enumeration.scan_lengths(n_max)
    return _memo


def _read(lengths: range, cache: ResultCache | None) -> list[LengthRow]:
    """The rows of ``lengths``: from ``cache`` if it holds them all, else
    from the memo, storing every row 1..max(lengths) in ``cache``.  An
    empty range goes on to the scan, which rejects its length."""
    if cache is not None:
        cached = [cache.load_row(n) for n in lengths]
        if cached and all(row is not None for row in cached):
            return cached  # type: ignore[return-value]
    rows = _rows_upto(lengths.stop - 1)
    if cache is not None:
        for n in range(1, lengths.stop):
            cache.store_row(rows[n])
    return [rows[n] for n in lengths]


def length_row(n: int, cache: ResultCache | None = None) -> LengthRow:
    """The exact row of length n."""
    [row] = _read(range(n, n + 1), cache)
    return row


def length_rows(n_max: int, cache: ResultCache | None = None) -> list[LengthRow]:
    """The rows of every length 1..n_max, from at most one enumeration pass."""
    return _read(range(1, n_max + 1), cache)


# Letters of a shorter length's maximizers that a prefix exactly at its need
# checks its next letters against.  To n = 30, 8 take 103115 steps, 4 take
# 224151 and all of them 83493, but then the heads hold every prefix of every
# maximizer: 11 MB against 0.8 MB, and slower to build than the steps saved.
_HEAD_LETTERS = 8


def _step(j: int, r: int, p: int, ms: Sequence[int], c: int) -> tuple[int, int]:
    """The mask and m of a word of j letters followed by letter c (0 for a,
    1 for b), the word given by (j, r, p, ms): bit i of r is the letter i
    places from the end, bit L of p is set where the suffix of L letters is
    a palindrome (the empty one included), and ms[i] is m of the first i
    letters.  A suffix of L + 2 letters is a palindrome where that of L
    letters is and the letter before it is c; one letter always is.  m is
    one more than the least m of a prefix a palindromic suffix leaves."""
    p = (p & (r if c else r ^ ((1 << j) - 1))) << 2 | 3
    m = ms[j]  # the one-letter suffix leaves j letters
    longer = p >> 2  # bit i: the suffix of i + 2 letters, which leaves j - 1 - i
    while longer:
        low = longer & -longer
        before = ms[j - low.bit_length()]
        if before < m:
            m = before
        longer ^= low
    return p, m + 1


def _push(state: tuple, c: int) -> tuple:
    """The state (j, r, p, ms) of ``_step`` after letter c, ms a tuple: states
    are immutable, so a search over them never undoes a push."""
    j, r, p, ms = state
    p, m = _step(j, r, p, ms, c)
    return j + 1, r << 1 | c, p, ms + (m,)


def _state(text: str) -> tuple:
    """The state of a word given as its a/b text."""
    state = (0, 0, 1, (0,))  # the empty word
    for letter in text:
        state = _push(state, int(letter == "b"))
    return state


def _search(need: list[int], heads: list[set[int]] | None = None) -> list[tuple[int, int]]:
    """(m, packed word) for every a-initial word w of n = len(need) letters
    with m(w[:j]) >= need[j - 1] for j = 1..n, in text order; a prefix below
    its need is dropped with every word extending it.

    Given ``heads``, need[j - 1] must be floor - K(n - j) with K exact, and
    heads[L] must hold 1 << t | v for the first t <= _HEAD_LETTERS letters v
    of every word of length L attaining K(L), packed.  A prefix u of j0
    letters at exactly its need then goes on only with letters that begin
    such a word: if w extends u and reaches the floor, floor <= m(w) <=
    m(u) + m(w[j0:]) gives m(w[j0:]) >= K(n - j0).  The words dropped so
    miss the floor, so the answer is the same as without ``heads``."""
    n, found = len(need), []
    ms = [0, 1, *[0] * (n - 1)]  # m of the current word's prefixes, written in place

    def visit(j: int, r: int, p: int, bits: int, at: tuple[int, ...]) -> None:
        # at: the depths j0 > j - _HEAD_LETTERS, ascending, at which the
        # prefix was exactly at its need
        if j == n:
            found.append((ms[j], bits))
            return
        least = need[j]
        # the next letter is the last that at[0] checks
        kept = at[1:] if at and at[0] == j + 1 - _HEAD_LETTERS else at
        for c in (0, 1):
            word = bits | c << j
            for j0 in at:
                if 1 << (j + 1 - j0) | word >> j0 not in heads[n - j0]:
                    break
            else:
                q, m = _step(j, r, p, ms, c)
                if m >= least:
                    ms[j + 1] = m
                    visit(j + 1, r << 1 | c, q, word, kept + (j + 1,) if heads and m == least else kept)

    if need[0] <= 1:  # the word a: r = 0, its suffixes of 0 and 1 letters (p = 3), m = 1
        visit(1, 0, 3, 0, (1,) if heads and need[0] == 1 else ())
    return found


# The worst-case rows of lengths 1..len(_worst), made once per process, each
# with its heads for ``_search``.
_worst: list[tuple[WorstRow, set[int]]] = []


def _heads(row: WorstRow) -> set[int]:
    """1 << t | v for the first t <= _HEAD_LETTERS letters v of every word of
    length row.n attaining K, as ``_search`` takes them."""
    letters = min(row.n, _HEAD_LETTERS)
    firsts = {bits & ((1 << letters) - 1) for bits in row.maximizers}
    heads = set()
    for t in range(1, letters + 1):
        mask = (1 << t) - 1
        heads.update(1 << t | ((v & mask) ^ swap) for v in firsts for swap in (0, mask))
    return heads


def worst_rows(n_max: int) -> list[WorstRow]:
    """The worst-case rows of every length 1..n_max.  Each length's search
    starts at the floor ``lemmas.k_formula(n)`` and lowers it until some
    word reaches it, so a row is exact whatever the closed form says."""
    if not 1 <= n_max <= PACKED_LIMIT:
        raise ValueError(f"length must be in 1..{PACKED_LIMIT}, got {n_max}")
    from .lemmas import k_formula  # lemmas reads rows, so it is imported here

    while len(_worst) < n_max:
        n = len(_worst) + 1
        ks = [0, *(row.k for row, _ in _worst)]
        heads = [set(), *(head for _, head in _worst)]
        floor = k_formula(n)
        # m(uv) <= m(u) + K(|v|): a prefix of j letters needs m >= floor - K(n - j)
        while not (found := _search([floor - ks[n - j] for j in range(1, n + 1)], heads)):
            floor -= 1
        k = max(m for m, _ in found)
        row = WorstRow(n, k, tuple(sorted(bits for m, bits in found if m == k)))
        _worst.append((row, _heads(row)))
    return [row for row, _ in _worst[:n_max]]
