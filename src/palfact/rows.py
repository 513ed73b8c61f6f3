"""The exact row of one word length, and the limits of the scan that makes it.

A row holds a length's histogram of m and its a-initial maximizers;
everything printed about a length is derived from those two fields.  Rows
are made by ``enumeration``, stored by ``cache`` and printed by ``cli``.
This module loads no numpy, so the commands that only read rows (the
single-word ones and warm cache hits) start without it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .words import Orbit, Word, orbit

__all__ = ["PACKED_LIMIT", "SAMPLE_CAP", "LengthRow", "WorkerDied"]

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
