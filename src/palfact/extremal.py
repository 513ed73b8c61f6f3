"""Worst-case asymmetry: K(n) = max m(w) over words of length n.

The closed form floor(n/6) + floor((n+4)/6) + 1 holds for every length
except 11, where the single exceptional orbit of aababbaabab pushes the
maximum to 5.  This module enumerates K(n) exactly and lists the
maximizers grouped into symmetry orbits; ``lemmas.verify_theorem1`` checks
the closed form against the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import LengthRow, _rows_upto
from .words import orbit, word_from_bits

__all__ = [
    "ExtremalRow",
    "Orbit",
    "k_formula",
    "k_max",
    "k_max_rows",
    "worst_words",
]

EXCEPTIONAL_LENGTH = 11
EXCEPTIONAL_K = 5


def k_formula(n: int) -> int:
    """Closed form for K(n); the length-11 exception is built in."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n == EXCEPTIONAL_LENGTH:
        return EXCEPTIONAL_K
    return n // 6 + (n + 4) // 6 + 1


# One row of the K table, k with its maximizer count and sample orbit
# representatives, is its length's enumeration row.
ExtremalRow = LengthRow


@dataclass(frozen=True)
class Orbit:
    """A symmetry orbit (letter swap and reversal), sorted by text."""

    words: tuple[str, ...]

    @property
    def representative(self) -> str:
        return self.words[0]

    @property
    def size(self) -> int:
        return len(self.words)


def k_max(n: int) -> ExtremalRow:
    """Exact K(n) by enumerating all 2^n words (letter-swap reduced)."""
    return _rows_upto(n)[n]


def k_max_rows(n_max: int) -> list[ExtremalRow]:
    """All rows K(1)..K(n_max) from a single enumeration pass."""
    rows = _rows_upto(n_max)
    return [rows[n] for n in range(1, n_max + 1)]


def worst_words(n: int) -> list[Orbit]:
    """Every word attaining K(n), grouped into symmetry orbits.

    Orbits are sorted by their representative (the lexicographically least
    member); orbit sizes are computed, never assumed.
    """
    orbits: dict[str, Orbit] = {}
    for bits in _rows_upto(n)[n].maximizers:
        images = orbit(word_from_bits(bits, n))
        rep = images[0].text
        if rep not in orbits:
            orbits[rep] = Orbit(tuple(im.text for im in images))
    return [orbits[rep] for rep in sorted(orbits)]
