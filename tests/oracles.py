"""Independent oracles for the test suite.

The cut-pattern and reachability oracles share no code with the package's
dynamic programs: palindromes are recognized by string reversal or bit
comparison, and minima are taken over explicitly enumerated cut patterns.
The depth-first oracle ``dfs_scan`` evaluates m by push/pop of the
package's ``IncrementalState``, so it is independent of the layer DP in
``palfact.enumeration`` but not of the single-word DP.
"""

from __future__ import annotations

import numpy as np

from palfact.enumeration import LengthRow
from palfact.factorization import IncrementalState


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


def _palindrome_mask(length: int) -> np.ndarray:
    """mask[v] = word v of the given length reads the same both ways."""
    mask = np.ones(1 << length, dtype=bool)
    v = np.arange(1 << length, dtype=np.int64)
    for t in range(length // 2):
        mask &= ((v >> t) & 1) == ((v >> (length - 1 - t)) & 1)
    return mask


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


def dfs_scan(n: int, *, prefix_depth: int = 8, sample_limit: int = 64) -> LengthRow:
    """The row of one length by depth-first search over the prefix tree.

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
    return LengthRow(
        n=n,
        counts={k: 2 * c for k, c in enumerate(total.counts) if c},
        max_m=total.max_m,
        max_count=2 * len(total.max_bits),
        sample_words=tuple(text_of(b, n) for b in total.max_bits[:sample_limit]),
        max_words_bits=tuple(sorted(total.max_bits)),
    )
