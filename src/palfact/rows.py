"""The exact row of one word length, the limits of the scan that makes it,
and the one door through which every row is read.

A row holds a length's histogram of m and its a-initial maximizers;
everything printed about a length is derived from those two fields.  Rows
are made by ``enumeration``, stored by ``cache`` and printed by ``cli``;
every command, claim and demo reads them through ``length_row`` or
``length_rows``.  Those serve the rows of the longest scan made so far in
the process (the memo).  Given a ``cache.ResultCache``, they return the
wanted rows from it when it holds them all, and otherwise store every row
of the memo's answer in it.  Cached rows never enter the memo.  Only a
scan, or a case analysis of Lemma 3 or 4, imports ``enumeration`` and numpy,
so the single-word commands and warm cache hits run without numpy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .words import Orbit, Word, orbit

if TYPE_CHECKING:
    from .cache import ResultCache

__all__ = ["PACKED_LIMIT", "SAMPLE_CAP", "LengthRow", "WorkerDied", "length_row", "length_rows"]

# Vectorised layers index words by int64 values; 32 keeps every layer and
# temporary comfortably addressable.
PACKED_LIMIT = 32

# Orbits a row lists as its samples; the K table prints the first one's
# representative.
SAMPLE_CAP = 16


@dataclass(frozen=True)
class LengthRow:
    """Exact enumeration results for one word length.

    ``counts`` maps each value k of m to the number of the 2^n words with
    m = k, in ascending k; ``maximizers`` lists every maximizer that starts
    with 'a' (the b-initial ones are their complements) as packed words in
    ascending order.  Everything else is derived from these two fields.
    """

    n: int
    counts: dict[int, int]
    maximizers: tuple[int, ...]

    @property
    def k(self) -> int:
        """K(n), the largest m over the words of length n."""
        return max(self.counts)

    @property
    def maximizer_count(self) -> int:
        """Words of length n attaining K(n), both initial letters."""
        return self.counts[self.k]

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
