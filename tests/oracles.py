"""Independent oracles for the test suite.

The cut-pattern and reachability oracles share no code with the package's
dynamic programs: palindromes are recognized by string reversal or bit
comparison, and minima are taken over explicitly enumerated cut patterns.

The quadratic single-word dynamic programs live here as references for the
package's palindromic-tree engine: ``PalTable`` (a push/pop triangular
palindrome table), ``IncrementalState`` (the recurrence for m over it, with
the same shortest-final-block witness), ``quadratic_reachable`` (the
block-count bitsets by a full scan of suffix starts) and
``longest_palindrome_by_centres``; ``reverse_bits_per_letter`` is the
per-letter reversal that ``palfact.words`` replaced.  The depth-first oracle
``dfs_scan`` evaluates m by push/pop of ``IncrementalState`` over every
word, so it shares no code with the layer DP in ``palfact.enumeration``,
the pruned search in ``palfact.rows`` or the single-word engine in
``palfact.factorization``.  ``state_histograms`` walks every word on the palindromic-suffix state of
``palfact.rows._step``, unpruned, so the histograms have a second engine
that shares no code with the layer DP.  ``decimal_bound_constants`` finds the bound
constants by bisection in 50-digit ``decimal`` arithmetic, with no float
and no polynomial solver.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from palfact.rows import LengthRow, WorstRow, _step
from palfact.words import Word, WordError


class PalTable:
    """Triangular palindrome table for a growing word, with exact rollback.

    ``is_pal(i, j)`` tells whether the factor at positions ``i..j``
    (inclusive) is a palindrome.  Appending a symbol computes one new
    column from the previous diagonal in O(length); popping removes it,
    restoring the prior state bit for bit.
    """

    def __init__(self) -> None:
        self._symbols: list[int] = []
        self._columns: list[list[bool]] = []

    def __len__(self) -> int:
        return len(self._symbols)

    @property
    def word(self) -> Word:
        bits = 0
        for t, s in enumerate(self._symbols):
            bits |= s << t
        return Word(bits, len(self._symbols))

    def push(self, symbol: int | str) -> None:
        if isinstance(symbol, str):
            if symbol not in "ab":
                raise WordError(f"invalid symbol {symbol!r}")
            symbol = 1 if symbol == "b" else 0
        elif symbol not in (0, 1):
            raise WordError(f"invalid symbol {symbol!r}")
        j = len(self._symbols)
        self._symbols.append(symbol)
        column = [False] * (j + 1)
        column[j] = True
        for i in range(j - 1, -1, -1):
            if self._symbols[i] == symbol and (i + 1 > j - 1 or self._columns[j - 1][i + 1]):
                column[i] = True
        self._columns.append(column)

    def pop(self) -> None:
        if not self._symbols:
            raise WordError("pop from empty table")
        self._symbols.pop()
        self._columns.pop()

    def is_pal(self, i: int, j: int) -> bool:
        """Palindrome test for the inclusive factor ``word[i..j]``."""
        if not 0 <= i <= j < len(self._symbols):
            raise IndexError((i, j))
        return self._columns[j][i]

    def snapshot(self) -> tuple:
        """Hashable copy of the full state, for rollback testing."""
        return (tuple(self._symbols), tuple(tuple(c) for c in self._columns))


class IncrementalState:
    """The recurrence for m over a growing word, with push/pop.

    Each :meth:`push_symbol` appends one symbol and updates the measure of
    the current prefix in O(length); :meth:`pop_symbol` undoes exactly one
    push.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._pal = PalTable()
        # dp[j] = m(prefix of length j); choice[j] = start of the final block
        # in the witness for that prefix (shortest minimizing suffix).
        self._dp: list[int] = [0]
        self._choice: list[int] = [0]

    @property
    def current_length(self) -> int:
        return len(self._pal)

    @property
    def current_m(self) -> int:
        if not len(self._pal):
            raise WordError("m is undefined on the empty word")
        return self._dp[-1]

    @property
    def current_word(self) -> Word:
        return self._pal.word

    def push_symbol(self, symbol: int | str) -> int:
        """Append one symbol; returns the measure of the extended prefix."""
        if len(self._pal) >= self.capacity:
            raise WordError(f"capacity {self.capacity} exceeded")
        self._pal.push(symbol)
        j = len(self._pal)
        best = j + 1
        arg = j - 1
        # Scan suffix starts from short suffixes to long ones; strict
        # improvement keeps the shortest minimizing suffix.
        for i in range(j - 1, -1, -1):
            if self._pal.is_pal(i, j - 1):
                cand = self._dp[i] + 1
                if cand < best:
                    best = cand
                    arg = i
        self._dp.append(best)
        self._choice.append(arg)
        return best

    def pop_symbol(self) -> None:
        if not len(self._pal):
            raise WordError("pop from empty state")
        self._pal.pop()
        self._dp.pop()
        self._choice.pop()

    def witness_cuts(self) -> tuple[int, ...]:
        """Block boundaries of the deterministic witness for the current prefix."""
        cuts = [len(self._pal)]
        while cuts[-1] > 0:
            cuts.append(self._choice[cuts[-1]])
        return tuple(reversed(cuts))


def quadratic_dp(text: str, k_max: int) -> tuple[int, tuple[int, ...], set[int]]:
    """m, the witness cuts and the block counts k <= k_max realizable by
    exactly k palindromes, for a nonempty word, by scanning every suffix
    start of every prefix (O(n^2) time, O(n) memory).

    The witness takes the shortest minimizing final block, recursively.
    """
    n = len(text)
    pal = [False] * n  # pal[i]: text[i..j] is a palindrome, for the current j
    dp = [0] * (n + 1)
    choice = [0] * (n + 1)
    # bit k of reach[j]: the length-j prefix splits into exactly k palindromes
    reach = [1] + [0] * n
    for j in range(n):
        for i in range(j + 1):
            pal[i] = text[i] == text[j] and (j - i < 2 or pal[i + 1])
        best, arg, acc = n + 1, j, 0
        for i in range(j, -1, -1):
            if pal[i]:
                acc |= reach[i] << 1
                if dp[i] + 1 < best:
                    best, arg = dp[i] + 1, i
        dp[j + 1], choice[j + 1], reach[j + 1] = best, arg, acc
    cuts = [n]
    while cuts[-1] > 0:
        cuts.append(choice[cuts[-1]])
    return dp[n], tuple(reversed(cuts)), {k for k in range(1, k_max + 1) if (reach[n] >> k) & 1}


def longest_palindrome_by_centres(text: str) -> int:
    """Length of the longest palindromic factor, by expanding every centre."""
    n = len(text)
    best = 1
    for center in range(n):
        for lo, hi in ((center - 1, center + 1), (center, center + 1)):
            while lo >= 0 and hi < n and text[lo] == text[hi]:
                lo -= 1
                hi += 1
            best = max(best, hi - lo - 1)
    return best


def parse_by_letters(text: str) -> tuple[int, int]:
    """(bits, length) of nonempty ``a``/``b`` or ``0``/``1`` text, one letter
    at a time; raises WordError with the position of the first bad letter."""
    alphabet = None
    bits = 0
    for pos, ch in enumerate(text):
        if ch in "ab":
            kind, bit = "letters", (1 if ch == "b" else 0)
        elif ch in "01":
            kind, bit = "digits", (1 if ch == "1" else 0)
        else:
            raise WordError(f"invalid character {ch!r} at position {pos + 1}")
        if alphabet is None:
            alphabet = kind
        elif alphabet != kind:
            raise WordError(f"mixed alphabets: {ch!r} at position {pos + 1}")
        bits |= bit << pos
    return bits, len(text)


def reverse_bits_per_letter(bits: int, length: int) -> int:
    """The packed word read backwards, one bit shifted per letter."""
    out = 0
    for _ in range(length):
        out = (out << 1) | (bits & 1)
        bits >>= 1
    return out


def complement_bits_per_letter(bits: int, length: int) -> int:
    """The packed word with every letter swapped, one bit at a time."""
    out = 0
    for t in range(length):
        out |= (((bits >> t) & 1) ^ 1) << t
    return out


def text_of(bits: int, length: int) -> str:
    return "".join("ab"[(bits >> t) & 1] for t in range(length))


def brute_force_m(text: str) -> int:
    """Minimum block count over all 2^(l-1) cut patterns."""
    n = len(text)
    best = n
    for pattern in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if (pattern >> i) & 1] + [n]
        blocks = [text[cuts[i] : cuts[i + 1]] for i in range(len(cuts) - 1)]
        if all(b == b[::-1] for b in blocks):
            best = min(best, len(blocks))
    return best


def _reads_both_ways(words: np.ndarray, length: int) -> np.ndarray:
    """Which of the packed words of the given length are palindromes,
    comparing each letter with its mirror."""
    mask = np.ones(words.shape, dtype=bool)
    for t in range(length // 2):
        mask &= ((words >> t) & 1) == ((words >> (length - 1 - t)) & 1)
    return mask


def _palindrome_mask(length: int) -> np.ndarray:
    """mask[v] = word v of the given length reads the same both ways."""
    return _reads_both_ways(np.arange(1 << length, dtype=np.int64), length)


def palindromic_completions(text: str, e: int) -> list[int]:
    """Every v < 2^e, ascending, for which ``text`` followed by the word v of
    e letters is a palindrome, found by trying each v."""
    tail = sum(1 << t for t, ch in enumerate(text) if ch == "b")
    words = tail | np.arange(1 << e, dtype=np.int64) << len(text)
    return np.flatnonzero(_reads_both_ways(words, len(text) + e)).tolist()


def brute_force_m_table(length: int) -> np.ndarray:
    """m for every word of one length, by scanning all cut patterns.

    For each pattern the words it factorizes form a product set of
    per-block palindromes, marked with tiled/repeated indicator arrays;
    the table is the elementwise minimum of the pattern sizes.
    """
    pal = {w: _palindrome_mask(w) for w in range(1, length + 1)}
    table = np.full(1 << length, length + 1, dtype=np.int64)
    for pattern in range(1 << (length - 1)):
        widths = []
        prev = 0
        for i in range(length - 1):
            if (pattern >> i) & 1:
                widths.append(i + 1 - prev)
                prev = i + 1
        widths.append(length - prev)
        valid = np.ones(1 << length, dtype=bool)
        offset = 0
        for w in widths:
            # block occupies bit positions offset..offset+w-1
            indicator = np.repeat(pal[w], 1 << offset)
            indicator = np.tile(indicator, 1 << (length - offset - w))
            valid &= indicator
            offset += w
        np.minimum(table, np.where(valid, len(widths), length + 1), out=table)
    return table


def reachable_k_bitsets(length: int) -> np.ndarray:
    """For every word of one length, the bitmask of block counts k such
    that the word is a product of exactly k palindromes.

    Built by breadth over cut positions: reach[j][v] has bit k set when
    the length-j prefix of v splits into exactly k palindromes.
    """
    reach = [np.zeros(1 << max(j, 0), dtype=np.int64) for j in range(length + 1)]
    reach[0][0] = 1  # empty prefix: zero blocks
    for j in range(1, length + 1):
        acc = np.zeros(1 << j, dtype=np.int64)
        for i in range(j):
            pal = _palindrome_mask(j - i)
            # word v of length j: prefix = low i bits, block = high j-i bits
            block_pal = np.repeat(pal, 1 << i)
            shifted = np.tile(reach[i] << 1, 1 << (j - i))
            acc |= np.where(block_pal, shifted, 0)
        reach[j] = acc
    return reach[length]


class _DfsAccumulator:
    """Counts and maximizers of one length over part of the prefix tree."""

    def __init__(self, n: int) -> None:
        self.counts = [0] * (n + 2)
        self.max_m = 0
        self.max_bits: list[int] = []

    def record(self, m: int, bits: int) -> None:
        self.counts[m] += 1
        if m > self.max_m:
            self.max_m, self.max_bits = m, []
        if m == self.max_m:
            self.max_bits.append(bits)

    def merge(self, other: "_DfsAccumulator") -> None:
        for k, c in enumerate(other.counts):
            self.counts[k] += c
        if other.max_m > self.max_m:
            self.max_m, self.max_bits = other.max_m, []
        if other.max_m == self.max_m:
            self.max_bits.extend(other.max_bits)


def _dfs_partition(n: int, prefix_bits: int, depth: int) -> _DfsAccumulator:
    acc = _DfsAccumulator(n)
    state = IncrementalState(capacity=n)
    for t in range(depth):
        state.push_symbol((prefix_bits >> t) & 1)

    def explore(length: int, bits: int) -> None:
        if length == n:
            acc.record(state.current_m, bits)
            return
        for sym in (0, 1):  # 'a' branch first: depth-first order is lexicographic
            state.push_symbol(sym)
            explore(length + 1, bits | (sym << length))
            state.pop_symbol()

    explore(depth, prefix_bits)
    return acc


def dfs_scan(n: int, *, prefix_depth: int = 8) -> tuple[LengthRow, WorstRow]:
    """The histogram row and the worst-case row of one length, by
    depth-first search over the whole prefix tree.

    The a-initial words are split at ``prefix_depth`` into disjoint
    subtrees, searched one after another in lexicographic order of their
    prefixes and merged, so the maximizers arrive in lexicographic order
    and the result does not depend on the depth.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    depth = max(1, min(prefix_depth, n))
    ext_bits = depth - 1
    total = _DfsAccumulator(n)
    for key in range(1 << ext_bits):
        bits = 0
        for t in range(ext_bits):
            bits |= ((key >> (ext_bits - 1 - t)) & 1) << (t + 1)
        total.merge(_dfs_partition(n, bits, depth))
    counts = {k: 2 * c for k, c in enumerate(total.counts) if c}
    return LengthRow(n, counts), WorstRow(n, total.max_m, tuple(sorted(total.max_bits)))


def state_histograms(n_max: int) -> dict[int, dict[int, int]]:
    """Per length 1..n_max, how many words have m = k, by k ascending: a
    depth-first walk over every a-initial word on ``rows._step``, counting
    m at every depth; the letter swap doubles each count."""
    counts = [[0] * (n + 1) for n in range(n_max + 1)]  # m <= n
    ms = [0, 1] + [0] * n_max  # m of the current word's prefixes, written in place

    def visit(j: int, r: int, p: int) -> None:
        counts[j][ms[j]] += 2
        if j < n_max:
            for c in (0, 1):
                q, ms[j + 1] = _step(j, r, p, ms, c)
                visit(j + 1, r << 1 | c, q)

    visit(1, 0, 3)  # the word a: its suffixes of 0 and 1 letters are palindromes
    return {n: {k: c for k, c in enumerate(counts[n]) if c} for n in range(1, n_max + 1)}


def _bisect(fn, lo: Decimal, hi: Decimal, tolerance: Decimal) -> Decimal:
    """A root of fn in [lo, hi], where fn changes sign."""
    lo_negative = fn(lo) < 0
    if lo_negative == (fn(hi) < 0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if (fn(mid) < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def decimal_bound_constants(digits: int = 50) -> tuple[Decimal, Decimal, tuple[Decimal, Decimal]]:
    """theta' (the root of f on (0, 1/3]), g(theta') and the two real roots
    of g', each by bisection to 10^(5 - digits) at ``digits`` digits.  g' is
    the quotient rule applied to g, not the quartic ``g_prime_roots`` solves;
    its roots are bracketed away from the poles of g at 2 - sqrt(2) and
    2 + sqrt(2)."""
    with localcontext() as ctx:
        ctx.prec = digits
        ln2, sqrt2 = Decimal(2).ln(), Decimal(2).sqrt()
        tolerance = Decimal(10) ** (5 - digits)

        def f(t: Decimal) -> Decimal:
            return (t - 1) / 2 * ln2 - t * t.ln() - (1 - t) * (1 - t).ln()

        def g(x: Decimal) -> Decimal:
            return x - sqrt2 * x * x * (1 - x) / (x * x - 4 * x + 2)

        def g_prime(x: Decimal) -> Decimal:
            num, num_d = x * x - x * x * x, 2 * x - 3 * x * x
            den, den_d = x * x - 4 * x + 2, 2 * x - 4
            return 1 - sqrt2 * (num_d * den - num * den_d) / (den * den)

        theta = _bisect(f, Decimal("1e-30"), Decimal(1) / 3, tolerance)
        roots = (
            _bisect(g_prime, Decimal("0.2"), Decimal("0.5"), tolerance),
            _bisect(g_prime, Decimal(4), Decimal(8), tolerance),
        )
        return theta, g(theta), roots
