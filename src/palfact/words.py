"""Binary words over {a, b}: parsing, symmetries, palindromes, and the
standard word families used by the extremal constructions.

Words are stored bit-packed: bit ``t`` of ``bits`` is the symbol at
position ``t`` (a=0, b=1), position 0 being the leftmost letter.  Python
integers are unbounded, so there is no length cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Word",
    "WordError",
    "parse_word",
    "is_palindrome",
    "symmetries",
    "orbit",
    "family",
]

_A, _B = "a", "b"
_LETTERS_TO_DIGITS = str.maketrans("ab", "01")
_DIGITS_TO_LETTERS = str.maketrans("01", "ab")

FAMILY_SEED = "aabab"
FAMILY_BLOCK = "bbaaba"
FAMILY_V_TAIL = "bbaaababb"


class WordError(ValueError):
    """Raised for malformed word text or out-of-domain word arguments."""


def _reverse_bits(bits: int, length: int) -> int:
    # Linear: one string of the bits, reversed and parsed back.
    return int(format(bits, f"0{length}b")[::-1], 2) if length else 0


@dataclass(frozen=True)
class Word:
    """An immutable binary word."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise WordError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise WordError("stored bits exceed the declared length")

    @staticmethod
    def empty() -> "Word":
        return Word(0, 0)

    @property
    def text(self) -> str:
        if not self.length:
            return ""
        # format writes the highest position first; position 0 is leftmost.
        return format(self.bits, f"0{self.length}b")[::-1].translate(_DIGITS_TO_LETTERS)

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, pos: int) -> str:
        if not 0 <= pos < self.length:
            raise IndexError(pos)
        return _B if (self.bits >> pos) & 1 else _A

    def __add__(self, other: "Word") -> "Word":
        return Word(self.bits | (other.bits << self.length), self.length + other.length)

    def factor(self, start: int, stop: int) -> "Word":
        """The factor at positions ``start..stop`` (half-open)."""
        if not 0 <= start <= stop <= self.length:
            raise WordError(f"factor bounds [{start}, {stop}) outside word of length {self.length}")
        width = stop - start
        return Word((self.bits >> start) & ((1 << width) - 1), width)

    def reversed(self) -> "Word":
        return Word(_reverse_bits(self.bits, self.length), self.length)

    def complement(self) -> "Word":
        return Word(self.bits ^ ((1 << self.length) - 1), self.length)

    def reversed_complement(self) -> "Word":
        return self.reversed().complement()


def parse_word(text: str, *, allow_empty: bool = False) -> Word:
    """Parse ``a``/``b`` text (or its ``0``/``1`` alias) into a :class:`Word`.

    The two alphabets may not be mixed; the first offending character is
    reported by its 1-based position.
    """
    if not text:
        if allow_empty:
            return Word.empty()
        raise WordError("empty word (pass allow_empty=True to permit it)")
    alphabet = "ab" if text[0] in "ab" else "01"
    rest = text.lstrip(alphabet)
    if rest:
        pos = len(text) - len(rest) + 1
        ch = rest[0]
        if ch in "ab01":
            raise WordError(f"mixed alphabets: {ch!r} at position {pos}")
        raise WordError(f"invalid character {ch!r} at position {pos}")
    bits = int(text[::-1].translate(_LETTERS_TO_DIGITS), 2)
    return Word(bits, len(text))


def is_palindrome(w: Word) -> bool:
    """True iff the word equals its reversal (the empty word counts)."""
    return w.bits == _reverse_bits(w.bits, w.length)


class Symmetries(NamedTuple):
    reversal: Word
    complement: Word
    reversed_complement: Word


def symmetries(w: Word) -> Symmetries:
    """The three nontrivial images of ``w`` under letter swap and reversal."""
    reversal = w.reversed()
    return Symmetries(reversal, w.complement(), reversal.complement())


def orbit(w: Word) -> tuple[Word, ...]:
    """The distinct images of ``w`` under the four-element symmetry group,
    sorted by text."""
    images = {w.text: w}
    for im in symmetries(w):
        images.setdefault(im.text, im)
    return tuple(images[t] for t in sorted(images))


def family(kind: str, n: int) -> Word:
    """The named word families.

    * ``W``: aabab(bbaaba)^n, length 6n+5 (n >= 0).
    * ``U``: the length-n prefix of the periodic word aabab(bbaaba)^oo (n >= 1).
    * ``V``: aabab(bbaaba)^n bbaaababb, length 6n+14 (n >= 0).
    """
    if n < 0:
        raise WordError(f"family index must be nonnegative, got {n}")
    if kind == "W":
        return parse_word(FAMILY_SEED + FAMILY_BLOCK * n)
    if kind == "U":
        if n < 1:
            raise WordError("U(n) requires n >= 1")
        reps = max(1, -(-(n - len(FAMILY_SEED)) // len(FAMILY_BLOCK)))
        return parse_word((FAMILY_SEED + FAMILY_BLOCK * reps)[:n])
    if kind == "V":
        return parse_word(FAMILY_SEED + FAMILY_BLOCK * n + FAMILY_V_TAIL)
    raise WordError(f"unknown family kind {kind!r} (expected W, U or V)")
