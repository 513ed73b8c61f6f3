"""Exhaustive evaluation of m over all binary words of bounded length.

Words of length n are identified with integers in [0, 2^n): bit t is the
symbol at position t (a=0, b=1), the leftmost letter in the lowest bit.

The workhorse is a layer-by-layer dynamic program: one uint8 array per
length holds m for every word of that length sharing a fixed prefix, and
the layer for length j is obtained from the shorter layers by minimising
over palindromic suffixes.  A suffix of length L occupies the top L bits,
so after reshaping the layer to (2^L, columns) each palindromic suffix
value selects one row and the update is a vectorised elementwise minimum.
Layers are built in cache-sized chunks of consecutive entries, each taken
through every palindromic suffix before the next one starts.

A scan up to n_max is sharded by prefix: with W workers and depth
d = max(1, n_max - 26 + ceil(log2 W)) every a-initial prefix of d letters
is extended by n_max - d symbols, and lengths 2..d come from the prefix a
extended by d - 1.  Only the lengths below a shard's top one are kept,
2^(n_max-d) bytes at most: the top layer feeds nothing but its own row,
so each of its chunks is counted as soon as it is built and then
overwritten.  Each layer is turned into row data in cache-sized chunks
(compare-and-count per value, maximizer indices only where a chunk
reaches the running maximum), and row data merge associatively: counts
add, and the larger maximum keeps its maximizer words (equal maxima
concatenate them).  Everything is exact integer arithmetic, so results do
not depend on the shard depth, the chunk sizes or the number of workers.

Reversal preserves m, so a shard's layers of length n >= 2d are counted one
block per reversal pair.  A block is the 2^(n-2d) contiguous entries whose
words share their last d letters; ``words.reversal_image`` maps it onto the
block named by the image of its 2d-letter ends.  Of two partner blocks, the
one whose ends pack to the lesser integer counts twice and the other not at
all (this keeps power-of-two worker batches level); a block that is its own
partner counts once.  The top layer skips a block unbuilt where blocks hold
whole layer chunks, a kept layer skips counting it where they hold whole row
chunks, and depth-1 scans have no two partner blocks.  ``_RowBuilder.row``
adds the skipped blocks' maximizers: the reversal images of those found.

A process runs its shards as one batch, which builds their layers in one
buffer and folds them into one set of row data.  With one usable CPU, or
one shard, the batch runs in-process.  Otherwise W = min(usable CPUs,
shard count) forked workers each run the batch of prefixes w, w + W,
w + 2W, ... (interleaved, so that the workers stay level when the cost of
a shard depends on its prefix), and the W results merge.  Each worker
holds at most 2^26 / W bytes of layers, so the layers held at once total
2^26 bytes at most, as with one process.

A length's row (``rows.LengthRow``) is its histogram of m and its
a-initial maximizers; K(n), the maximizer count, S(n), the exact average
kbar(n) and the symmetry orbits (``words.Orbit``) of the maximizers are
derived from those two fields.  This is the one module that imports numpy.
Callers read rows through ``rows.length_row`` and ``rows.length_rows``,
which import it and call ``scan_lengths`` only when their memo is too short.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import partial

import numpy as np

from .factorization import _prefix_measures
from .rows import PACKED_LIMIT, LengthRow, WorkerDied
from .words import Word, reversal_image

__all__ = [
    "palindrome_values",
    "extension_m",
    "scan_lengths",
]

# A scan on one process extends each prefix by at most this many symbols,
# so the layers a shard holds (every length but the top one) total at most
# 64 MiB.  W workers extend by ceil(log2 W) fewer, so the layers the W
# shards in flight hold still total at most 64 MiB.
_SHARD_BITS = 26

# Layers are built this many entries at a time: a chunk (1 MiB) stays in L2
# across the passes over its palindromic suffixes.  The top layer of a shard
# is never held whole: each chunk is counted into its row as soon as built.
_LAYER_CHUNK = 1 << 20

# Row extraction works on slices of this many layer entries: a slice and its
# bool mask (512 KiB together) stay in L2 across the per-value compare passes.
_ROW_CHUNK = 1 << 18


def _crossing_matches(prefix_sym: list[int], start: int, ext_len: int) -> np.ndarray | None:
    """Extensions v (of ext_len symbols) for which the factor running from
    ``start`` through the end of prefix+v is a palindrome.

    The factor covers the known prefix tail plus every extension symbol, so
    the palindrome conditions either constrain the prefix alone (possibly
    unsatisfiable), force individual extension bits, or tie extension bits
    in mirror pairs.  Returns None when the prefix part already fails.
    """
    p = len(prefix_sym)
    length = p - start + ext_len
    forced: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    free: list[int] = []
    for t in range((length + 1) // 2):
        tm = length - 1 - t
        pos, pos_m = start + t, start + tm
        if t == tm:
            if pos >= p:
                free.append(pos - p)
            continue
        if pos_m < p:
            if prefix_sym[pos] != prefix_sym[pos_m]:
                return None
        elif pos < p:
            forced[pos_m - p] = prefix_sym[pos]
        else:
            pairs.append((pos - p, pos_m - p))
    base = 0
    for idx, bit in forced.items():
        base |= bit << idx
    vals = np.array([base], dtype=np.int64)
    for idx in free:
        vals = np.concatenate([vals, vals | (1 << idx)])
    for lo, hi in pairs:
        vals = np.concatenate([vals, vals | ((1 << lo) | (1 << hi))])
    vals.sort()
    return vals


def palindrome_values(length: int) -> np.ndarray:
    """Sorted array of all palindromic words of the given length (the empty
    word, 0, at length 0)."""
    return _crossing_matches([], 0, length)


def _covering_factors(prefix: Word, e: int) -> list[tuple[np.ndarray, int]]:
    """Palindromic last factors that contain all e extension symbols.

    One entry per start of such a factor in the prefix, the prefix's end
    included (there the factor is the whole extension): the sorted
    extensions that make it a palindrome, and m of the prefix before it.
    """
    p = prefix.length
    prefix_sym = [(prefix.bits >> t) & 1 for t in range(p)]
    base = _prefix_measures(prefix)
    factors = []
    for start in range(p + 1):
        matches = _crossing_matches(prefix_sym, start, e)
        if matches is not None:
            factors.append((matches, base[start]))
    return factors


def _fill_chunk(
    out: np.ndarray,
    lo: int,
    e: int,
    covering: list[tuple[np.ndarray, int]],
    pal: list[np.ndarray],
    ext: list[np.ndarray],
) -> None:
    """Write m of the extensions lo .. lo + out.size - 1 of length e into ``out``.

    ``covering`` is ``_covering_factors`` for e, ``ext[s]`` the layer of
    length s for every s < e, and ``out.size`` a power of two dividing lo.
    Every candidate is a shorter measure plus one last factor, so the
    minimum is taken over the shorter measures and the one is added once.
    """
    size = out.size
    hi = lo + size
    out.fill(254)
    for values, before in covering:
        i, j = np.searchsorted(values, (lo, hi))
        sel = values[i:j] - lo
        out[sel] = np.minimum(out[sel], before)
    # Palindromic factor starting at extension offset s: the top e-s bits
    # (the row, the suffix value) are a palindrome, the low s bits index ext[s].
    for s in range(1, e):
        cols = 1 << s
        first = lo >> s
        i, j = np.searchsorted(pal[e - s], (first, ((hi - 1) >> s) + 1))
        if i == j:
            continue
        if cols >= size:
            # the chunk lies inside one row, whose suffix is a palindrome
            off = lo - (first << s)
            np.minimum(out, ext[s][off : off + size], out=out)
        else:
            sel = pal[e - s][i:j] - first
            view = out.reshape(size >> s, cols)
            view[sel] = np.minimum(view[sel], ext[s])
    out += 1


def extension_m(prefix: Word, ext_len: int, out: np.ndarray | None = None) -> list[np.ndarray]:
    """m over every extension of ``prefix`` by 1..ext_len symbols.

    Returns ``ext`` with ``ext[e][v] = m(prefix + word(v, e))`` for
    e = 1..ext_len (index 0 unused).  Layer e is the view
    ``out[2^e : 2^(e+1)]`` of one uint8 buffer of at least 2^(ext_len+1)
    bytes, ``out`` when given and a new one otherwise.
    """
    if out is None:
        out = np.empty(2 << ext_len, dtype=np.uint8)
    pal = [palindrome_values(L) for L in range(ext_len + 1)]
    ext: list[np.ndarray] = [None] * (ext_len + 1)  # type: ignore[list-item]
    for e in range(1, ext_len + 1):
        covering = _covering_factors(prefix, e)
        cur = out[1 << e : 2 << e]
        for lo in range(0, cur.size, _LAYER_CHUNK):
            _fill_chunk(cur[lo : lo + _LAYER_CHUNK], lo, e, covering, pal, ext)
        ext[e] = cur
    return ext


class _RowBuilder:
    """Row statistics for one length, merged over the layers of every shard."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.counts = [0] * 256
        self.k = 0
        self.max_bits: list[np.ndarray] = []
        # Whether some block counted for its skipped partner, whose
        # maximizers are then the reversal images of the block's.
        self.skipped = False

    def add_layer(
        self, layer: np.ndarray, prefix_bits: int, depth: int, hit: np.ndarray, first: int = 0, weight: int = 1
    ) -> None:
        """Fold in the layer of one shard, or its entries from ``first`` on,
        each counted ``weight`` times; ``hit`` is a bool scratch buffer."""
        self.skipped |= weight > 1
        for start in range(0, layer.size, _ROW_CHUNK):
            chunk = layer[start : start + _ROW_CHUNK]
            mask = hit[: chunk.size]
            low, top = int(chunk.min()), int(chunk.max())
            rest = chunk.size
            for k in range(low, top):
                np.equal(chunk, k, out=mask)
                seen = int(np.count_nonzero(mask))
                self.counts[k] += weight * seen
                rest -= seen
            self.counts[top] += weight * rest
            if top > self.k:
                self.k, self.max_bits = top, []
            if top == self.k:
                idx = np.flatnonzero(chunk == top) + (first + start)
                self.max_bits.append(prefix_bits | (idx << depth))

    def merge(self, other: _RowBuilder) -> None:
        """Fold in the statistics of other shards of the same length."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.skipped |= other.skipped
        if other.k > self.k:
            self.k, self.max_bits = other.k, []
        if other.k == self.k:
            self.max_bits += other.max_bits

    def row(self) -> LengthRow:
        found = set(np.concatenate(self.max_bits).tolist())
        if self.skipped:
            found.update([reversal_image(Word(bits, self.n)).bits for bits in found])
        return LengthRow(
            n=self.n,
            counts={k: 2 * c for k, c in enumerate(self.counts) if c},
            maximizers=tuple(sorted(found)),
        )


def _block_weights(prefix_bits: int, depth: int) -> list[int]:
    """How often each block of a shard's layers of length >= 2 * depth
    counts, by the block's last ``depth`` letters: 1 if it is its own
    partner, else 2 if its ends pack to the lesser integer and 0 if not."""
    weights = []
    for last in range(1 << depth):
        ends = prefix_bits | last << depth
        image = reversal_image(Word(ends, 2 * depth)).bits
        weights.append(1 if image == ends else 2 * (ends < image))
    return weights


def _counted_spans(size: int, span: int, depth: int, weights: list[int]) -> Iterator[tuple[int, int]]:
    """Start and weight of each ``span``-entry span of a shard's layer of
    ``size`` entries that is counted.  Where the layer's 2^depth blocks hold
    whole spans, a span has its block's weight; otherwise each counts once."""
    block = size >> depth
    for start in range(0, size, span):
        weight = weights[start // block] if block >= span else 1
        if weight:
            yield start, weight


def _scan_shards(prefixes: Iterable[int], depth: int, ext_len: int) -> dict[int, _RowBuilder]:
    """Row statistics of lengths depth+1 .. depth+ext_len over the words
    that start with any of the ``depth``-letter ``prefixes``.

    All shards build their layers in one buffer, so the process writes its
    layer memory once and then holds the same pages throughout the scan.
    Layers allocated and freed per shard went back to the heap instead, and
    how much of it stayed resident depended on which shards it happened to run.
    """
    builders = {depth + e: _RowBuilder(depth + e) for e in range(1, ext_len + 1)}
    end = 1 << ext_len
    buf = np.empty(end + min(_LAYER_CHUNK, end), dtype=np.uint8)
    # The top layer is only ever one chunk: built, counted, overwritten.
    top = buf[end:]
    hit = np.empty(_ROW_CHUNK, dtype=bool)
    pal = [palindrome_values(L) for L in range(ext_len + 1)]
    for prefix_bits in prefixes:
        prefix = Word(prefix_bits, depth)
        ext = extension_m(prefix, ext_len - 1, buf)
        covering = _covering_factors(prefix, ext_len)
        weights = _block_weights(prefix_bits, depth)
        for lo, weight in _counted_spans(end, top.size, depth, weights):
            _fill_chunk(top, lo, ext_len, covering, pal, ext)
            builders[depth + ext_len].add_layer(top, prefix_bits, depth, hit, first=lo, weight=weight)
        # The kept layers are all built; only their counting skips blocks.
        for e in range(1, ext_len):
            block = (1 << e) >> depth
            span = block if block >= _ROW_CHUNK else 1 << e
            for lo, weight in _counted_spans(1 << e, span, depth, weights):
                builders[depth + e].add_layer(ext[e][lo : lo + span], prefix_bits, depth, hit, first=lo, weight=weight)
    return builders


def _scan_sharded(n_max: int, depth: int, workers: int = 1) -> dict[int, LengthRow]:
    """Rows 1..n_max, the lengths above ``depth`` from ``workers`` batches of
    prefix shards, run on forked processes when there are several; raises
    ``WorkerDied`` when a worker process ends without its result."""
    depth = min(depth, n_max)
    rows = {1: LengthRow(1, {1: 2}, (0,))}
    if depth > 1:
        rows.update((n, b.row()) for n, b in _scan_shards((0,), 1, depth - 1).items())
    ext_len = n_max - depth
    if not ext_len:
        return rows
    batch = partial(_scan_shards, depth=depth, ext_len=ext_len)
    prefixes = range(0, 1 << depth, 2)  # bit 0 clear: the prefix starts with 'a'
    if workers > 1:
        # Imported here: a process that never runs two batches at once does
        # not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Forked workers inherit the imported modules, so a batch starts at
        # once.  Forking after numpy started its BLAS thread pool is safe
        # here: the kernel is elementwise ufuncs, searchsorted and sort,
        # and never calls BLAS, so no child waits on a lock a thread held.
        # The executor forks every worker before it starts its own threads.
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                merged, *others = pool.map(batch, [prefixes[w::workers] for w in range(workers)])
        except BrokenProcessPool as exc:
            raise WorkerDied("an enumeration worker process died (killed by a signal, e.g. out of memory)") from exc
    else:
        merged, others = batch(prefixes), []
    for other in others:
        for n, builder in merged.items():
            builder.merge(other[n])
    rows.update((n, builder.row()) for n, builder in merged.items())
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _plan(n_max: int) -> tuple[int, int]:
    """Shard depth and worker count of a scan up to n_max.

    W workers each hold at most 2^(_SHARD_BITS - ceil(log2 W)) bytes of
    layers, and W never exceeds the shard count that depth gives.
    """
    workers = _usable_cpus()
    while True:
        depth = max(1, n_max - _SHARD_BITS + (workers - 1).bit_length())
        shards = 1 << (depth - 1)
        if workers <= shards:
            return depth, workers
        workers = shards


def scan_lengths(n_max: int) -> dict[int, LengthRow]:
    """Exact per-length statistics of m for every length 1..n_max.

    Enumerates only words starting with 'a'; the letter-swap involution is
    fixed-point free, so all counts double exactly.  The shards run on W =
    min(usable CPUs, shard count) processes; each holds 2^min(n_max-1,
    26-ceil(log2 W)) bytes of layers plus one chunk, so the layers held at
    once total at most 2^26 bytes whatever n_max and W are.
    """
    if not 1 <= n_max <= PACKED_LIMIT:
        raise ValueError(f"length must be in 1..{PACKED_LIMIT}, got {n_max}")
    return _scan_sharded(n_max, *_plan(n_max))
