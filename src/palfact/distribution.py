"""The distribution of m over all words of a given length.

Everything here is exact: histograms are integer counts summing to 2^n,
averages are rationals S(n)/2^n, and the counting inequality against the
palindrome-product bound a_k is decided on squared integers so that the
irrational factor sqrt(2) never enters a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import a_bound_squared
from .enumeration import LengthRow, _rows_upto

__all__ = [
    "MHistogram",
    "AverageRow",
    "CountingBoundReport",
    "histogram",
    "histogram_rows",
    "k_bar",
    "k_bar_rows",
    "counting_bound_check",
    "COUNTING_MIN_N",
]

# Shortest length for which the counting bound is asserted (see
# counting_bound_check).
COUNTING_MIN_N = 9


# A histogram x_k = #{w : len(w) = n, m(w) = k} is the counts of its length's row.
MHistogram = LengthRow


@dataclass(frozen=True)
class AverageRow:
    """Exact average asymmetry of a random word of length n."""

    n: int
    s: int

    @property
    def kbar(self) -> Fraction:
        return Fraction(self.s, 1 << self.n)

    @property
    def kbar_num(self) -> int:
        return self.kbar.numerator

    @property
    def kbar_den_pow2(self) -> int:
        return self.kbar.denominator.bit_length() - 1

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


def histogram(n: int) -> MHistogram:
    """Exact histogram of m over all 2^n words of length n."""
    return _rows_upto(n)[n]


def histogram_rows(n_max: int) -> list[MHistogram]:
    """Histograms for every length 1..n_max from one enumeration pass."""
    rows = _rows_upto(n_max)
    return [rows[n] for n in range(1, n_max + 1)]


def k_bar(n: int) -> AverageRow:
    """Exact average S(n)/2^n."""
    return AverageRow(n=n, s=histogram(n).s)


def k_bar_rows(n_max: int) -> list[AverageRow]:
    rows = _rows_upto(n_max)
    return [AverageRow(n=n, s=rows[n].s) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class CountingBoundEntry:
    k: int
    cumulative: int  # x_k + x_{k-2} + x_{k-4} + ...
    holds: bool


@dataclass(frozen=True)
class CountingBoundReport:
    n: int
    entries: tuple[CountingBoundEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.holds for e in self.entries)


def counting_bound_check(n: int) -> CountingBoundReport:
    """Check x_k + x_{k-2} + ... <= a_k = C(n-1, k-1) 2^((n+k)/2) for every
    k up to the enumerated maximum.

    The parity-cumulated sum counts words splittable into exactly k
    palindromes (a short block can always be re-split into three), so it
    is the quantity the product bound a_k actually dominates; this needs
    the maximum below n/2, hence n >= 9.  Compared via squared integers.
    """
    if n < COUNTING_MIN_N:
        raise ValueError(f"the counting bound is asserted only for n >= {COUNTING_MIN_N}, got {n}")
    hist = histogram(n)
    entries = []
    for k in range(1, hist.k + 1):
        cumulative = sum(hist.counts.get(j, 0) for j in range(k, 0, -2))
        holds = cumulative * cumulative <= a_bound_squared(n, k)
        entries.append(CountingBoundEntry(k=k, cumulative=cumulative, holds=holds))
    return CountingBoundReport(n=n, entries=tuple(entries))
