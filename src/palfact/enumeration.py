"""Exhaustive evaluation of m over all binary words of bounded length.

Words of length n are identified with integers in [0, 2^n): bit t is the
symbol at position t (a=0, b=1), the leftmost letter in the lowest bit.

The workhorse is a layer-by-layer dynamic program: one uint8 array per
length holds m for every word of that length sharing a fixed prefix, and
the layer for length j is obtained from the shorter layers by minimising
over palindromic suffixes.  A suffix of length L occupies the top L bits,
so after reshaping the layer to (2^L, columns) each palindromic suffix
value selects one row and the update is a vectorised elementwise minimum.
The palindromes of length L are one cached table: each half-word of
ceil(L/2) letters followed by its low floor(L/2) letters reversed.  The
last factors that cover all e letters of an extension and the prefix's
last q letters come from the same table: the palindromes of e - q letters
followed by those q letters reversed, or, where q > e, at most one extension.
Layers are built in cache-sized chunks of consecutive entries, each taken
through every palindromic suffix before the next one starts.

A scan up to n_max is sharded by prefix: every a-initial prefix of d letters
is extended by n_max - d symbols, and each a-initial word of j <= d letters
is counted from m of the prefix's first j letters, in the shard whose prefix
extends it by a's.  Layers of at most one chunk (2^20 entries) are built
whole.  Each longer one holds one chunk at a time: the layers past that
length are built depth first, chunk lo of layer e and then the two chunks of
layer e + 1 that extend it, lo and lo + 2^e, each counted into its row as
soon as it is built.  A chunk reads only its ancestors on that path, so a
shard holds 2^21 bytes plus 1 MiB for each longer layer (``_kept_layers``),
not 2^(n_max-d), and every chunk is still built once.  The top layer feeds
nothing but its own row: it is the last level.  Each layer is counted into
its length's histogram in cache-sized spans (``_count``: compare-and-count
per value), and histograms merge by adding.  Everything is exact integer
arithmetic, so results do not depend on the shard depth, the chunk sizes or
the worker count.

Reversal preserves m, so a shard's layers of length n >= 2d are counted one
block per reversal pair.  A block is the 2^(n-2d) contiguous entries whose
words share their last d letters; its partner is named by the reversal of
its 2d-letter ends, letter-swapped if b-initial.  Of two partner blocks, the
one whose ends pack to the lesser integer counts twice and the other not at
all; a block that is its own partner counts once.  Each shard keeps
2^(d-1) + 1 of its 2^d blocks (``_shard_work`` says why), so all shards do
the same work.  The top layer is built in chunks of at most 2^20 entries,
and where its blocks hold whole chunks a skipped block is never built.  A
kept layer is built in full, and counted one block at a time where a block
holds 2^14 entries or more (a chunk of a longer layer inherits its blocks'
weights).  Smaller blocks are counted whole, and depth-1 scans have no two
partner blocks.

``_plan`` fixes all of this before a scan starts, as a ``ScanPlan``: the
depth, the chunks and spans, the batches of prefixes (one per worker), the
bytes they allocate and the entries the scan will build and count.  The
depth is the deepest whose top blocks hold whole build chunks (depth 3 at
n = 26: 4 MiB of kept layers, and 0.81 of the entries built and 0.63
counted at depth 1).  Scans up to n = 26 run in one process, longer ones on
forked workers, each holding under 10 MiB of buffers up to n = 32.  Each
worker runs one batch, which builds its shards' layers in one buffer and
counts them into one histogram per length, and the histograms add; the
process that forks them builds no layer.

A length's row (``rows.LengthRow``) is its histogram of m; K(n), S(n) and
the exact average kbar(n) are derived from it.  This module alone imports
numpy.  Callers read rows through ``rows.length_row`` and
``rows.length_rows``, which import it and call ``scan_lengths`` only when
their memo is too short.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .factorization import _prefix_measures
from .rows import PACKED_LIMIT, LengthRow, WorkerDied
from .words import Word, is_palindrome

__all__ = [
    "palindrome_values",
    "extension_m",
    "scan_lengths",
]

# A scan of at most 2^_IN_PROCESS_BITS words runs in-process: at n = 26 two
# workers saved no wall time and cost more CPU.
_IN_PROCESS_BITS = 26

# Layers are built this many entries at a time: a chunk (1 MiB) stays in L2
# across the passes over its palindromic suffixes.  A shard holds a layer
# longer than this one chunk at a time, counted into its row as soon as built.
_LAYER_CHUNK = 1 << 20

# Row extraction works on slices of this many layer entries: a slice and its
# bool mask (512 KiB together) stay in L2 across the per-value compare passes.
_ROW_CHUNK = 1 << 18


@cache
def _reversed_words(depth: int) -> np.ndarray:
    """The reversal of every ``depth``-letter word, indexed by the word."""
    words = np.arange(1 << depth, dtype=np.int64)
    image = np.zeros_like(words)
    for t in range(depth):
        image |= (words >> t & 1) << (depth - 1 - t)
    return image


@cache
def palindrome_values(length: int) -> np.ndarray:
    """Sorted array of all palindromic words of the given length (the empty
    word, 0, at length 0), built once per length and read-only.

    Each is a half-word h of ceil(length / 2) letters followed by the
    reversal of its low floor(length / 2) letters."""
    half, low = (length + 1) // 2, length // 2
    halves = np.arange(1 << half, dtype=np.int64)
    values = np.sort(halves | _reversed_words(low)[halves & ((1 << low) - 1)] << half)
    values.flags.writeable = False
    return values


def _covering_factors(prefix: Word, e: int, measures: list[int]) -> list[tuple[np.ndarray, int]]:
    """Palindromic last factors that contain all e extension symbols.

    One entry per start s of such a factor in the prefix, in ascending
    order and the prefix's end included (there the factor is the whole
    extension): the sorted extensions that make it a palindrome, and m of
    the prefix before it, ``measures[s]`` (``_prefix_measures(prefix)``).
    Where the factor takes q = |prefix| - s <= e letters from the prefix,
    the extensions are the palindromes of e - q letters followed by those
    q letters reversed.  Where q > e, the one extension is the reversal of
    prefix[s : s + e], provided prefix[s + e :] is a palindrome.
    """
    p = prefix.length
    factors = []
    for s in range(p + 1):
        q = p - s
        if q <= e:
            values = palindrome_values(e - q)
            if q:
                values = values | prefix.factor(s, p).reversed().bits << (e - q)
        elif is_palindrome(prefix.factor(s + e, p)):
            values = np.array([prefix.factor(s, s + e).reversed().bits], dtype=np.int64)
        else:
            continue
        factors.append((values, measures[s]))
    return factors


def _fill_chunk(
    out: np.ndarray,
    lo: int,
    e: int,
    covering: list[tuple[np.ndarray, int]],
    ext: list[np.ndarray],
) -> None:
    """Write m of the extensions lo .. lo + out.size - 1 of length e into ``out``.

    ``covering`` holds the last factors that cover all e extension symbols
    (``_covering_factors``: palindrome table entries followed by a reversed
    prefix tail), ``out.size`` is a power of two dividing lo, and ``ext[s]``
    for every s < e is the layer of length s, or where that layer is longer
    than ``out``, one power-of-two chunk of it at least ``out.size`` long
    that holds entries lo mod 2^s onward.
    Every candidate is a shorter measure plus one last factor, so the
    minimum is taken over the shorter measures and the one is added once.
    """
    size = out.size
    hi = lo + size
    out.fill(254)
    for values, before in covering:
        i, j = values.searchsorted((lo, hi))
        if i < j:
            sel = values[i:j] - lo
            out[sel] = np.minimum(out[sel], before)
    # Palindromic factor starting at extension offset s: the top e-s bits
    # (the row, the suffix value) are a palindrome, the low s bits index ext[s].
    for s in range(1, e):
        cols = 1 << s
        first = lo >> s
        pal = palindrome_values(e - s)
        i, j = pal.searchsorted((first, ((hi - 1) >> s) + 1))
        if i == j:
            continue
        if cols >= size:
            # The chunk lies inside one row, whose suffix is a palindrome.
            # ext[s] is the whole layer or the one chunk of it that holds
            # entries lo mod 2^s onward.
            off = lo & (ext[s].size - 1)
            np.minimum(out, ext[s][off : off + size], out=out)
        else:
            sel = pal[i:j] - first
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
    measures = _prefix_measures(prefix)
    ext: list[np.ndarray] = [None] * (ext_len + 1)  # type: ignore[list-item]
    for e in range(1, ext_len + 1):
        covering = _covering_factors(prefix, e, measures)
        cur = out[1 << e : 2 << e]
        for lo in range(0, cur.size, _LAYER_CHUNK):
            _fill_chunk(cur[lo : lo + _LAYER_CHUNK], lo, e, covering, ext)
        ext[e] = cur
    return ext


def _count(counts: list[int], layer: np.ndarray, hit: np.ndarray, weight: int) -> None:
    """Add ``weight`` to counts[k] for every entry k of ``layer``; ``hit``
    is a bool scratch buffer of at least ``_ROW_CHUNK`` entries."""
    for start in range(0, layer.size, _ROW_CHUNK):
        chunk = layer[start : start + _ROW_CHUNK]
        mask = hit[: chunk.size]
        low, top = int(chunk.min()), int(chunk.max())
        rest = chunk.size
        for k in range(low, top):
            np.equal(chunk, k, out=mask)
            seen = int(np.count_nonzero(mask))
            counts[k] += weight * seen
            rest -= seen
        counts[top] += weight * rest


def _block_weights(prefix_bits: int, depth: int) -> np.ndarray:
    """How often each block of a shard's layers of length >= 2 * depth
    counts, by the block's last ``depth`` letters: 1 if it is its own
    partner, else 2 if its ends pack to the lesser integer and 0 if not.

    The partner's ends are the reversal image of the block's, taken here
    for all 2^depth blocks at once: the reversed last letters, then
    the reversed prefix, letter-swapped where that starts with b."""
    reversed_words = _reversed_words(depth)
    ends = prefix_bits | np.arange(1 << depth, dtype=np.int64) << depth
    image = reversed_words | int(reversed_words[prefix_bits]) << depth
    image ^= (image & 1) * ((1 << 2 * depth) - 1)
    return np.where(image == ends, 1, 2 * (ends < image))


def _counted_spans(
    lo: int, hi: int, size: int, span: int, depth: int, weights: np.ndarray
) -> Iterator[tuple[int, int]]:
    """Start and weight of each counted piece of entries lo .. hi - 1 of a
    shard's layer of ``size`` entries, cut into ``span``-entry spans (one
    piece where a span holds all of them).  Where the layer's 2^depth blocks
    hold whole spans, a piece has its block's weight; otherwise each counts
    once."""
    block = size >> depth
    for start in range(lo, hi, min(span, hi - lo)):
        weight = int(weights[start // block]) if block >= span else 1
        if weight:
            yield start, weight


@dataclass(frozen=True)
class ScanPlan:
    """What a scan up to ``n_max`` builds, counts and holds, fixed before it
    starts; ``_scan_shards`` and ``_scan_sharded`` only read it.

    The a-initial ``depth``-letter prefixes are extended by ``n_max - depth``
    symbols, split into ``batches``, one per worker process.  Kept layer e
    is counted ``spans[e]`` entries at a time, one block where that skips
    the block's reversal partner.  ``buffer_bytes`` sums over the workers
    what a batch holds: its kept layers (``_kept_layers``), the top chunk,
    and the scratch of one build chunk (the rows it gathers) and one row
    chunk (a bool mask).  ``built`` and ``counted`` are the layer entries
    the whole scan will build and count; the words of 1..depth letters are
    counted from the prefixes and are in neither.
    """

    n_max: int
    depth: int
    spans: tuple[int, ...]
    batches: tuple[tuple[int, ...], ...]
    buffer_bytes: int
    built: int
    counted: int

    @property
    def ext_len(self) -> int:
        return self.n_max - self.depth


def _shard_work(depth: int, spans: tuple[int, ...]) -> tuple[int, int]:
    """Layer entries each shard builds and counts under a plan's chunking:
    the kept layers are built in full, and the blocks whose weight is 0 are
    neither built in the top layer where they hold whole build chunks nor
    counted where spans are single blocks.

    Every shard keeps 2^(depth-1) + 1 blocks.  Let r be its prefix
    reversed, packed as a word.  ``_block_weights`` keeps the blocks whose
    last letters end in a and pack to at most r (r + 1 of them), and those
    whose last letters end in b and pack to at most r letter-swapped
    (2^(depth-1) - r of them)."""
    if not spans:
        return 0, 0  # n_max = depth: the prefixes are the words
    end = 1 << len(spans)
    block = end >> depth
    blocks = (1 << (depth - 1)) + 1
    top = blocks * block if block >= _LAYER_CHUNK else end
    kept = sum(blocks * span if span < 1 << e else 1 << e for e, span in enumerate(spans) if e)
    return end - 2 + top, kept + top


def _kept_layers(ext_len: int) -> tuple[int, int]:
    """The longest kept layer of a shard that is built whole, and the bytes
    of kept layers the shard holds.

    Layers up to one build chunk long are built whole, 2^(whole + 1) bytes
    in all (whole = -1 where ext_len = 0).  Each longer kept layer
    (e < ext_len) is held one build chunk at a time, in a window of its own."""
    whole = min(ext_len - 1, _LAYER_CHUNK.bit_length() - 1)
    return whole, (1 << whole + 1) + (ext_len - 1 - whole) * _LAYER_CHUNK


def _layout(n_max: int, depth: int, workers: int = 1) -> ScanPlan:
    """The plan of a scan up to ``n_max`` at the given shard depth and
    worker count (at most one worker per shard).

    The top layer is built in chunks of at most 2^20 entries, which skip
    their blocks' partners where blocks hold whole chunks.  A kept layer is
    counted one block at a time from a sixteenth of a row chunk (2^14
    entries) up; below that the calls cost what skipping saves, so such
    layers are counted in whole spans.
    """
    depth = min(depth, n_max)
    ext_len = n_max - depth
    spans = tuple(
        (1 << e) >> depth if (1 << e) >> depth >= max(1, _ROW_CHUNK >> 4) else 1 << e for e in range(ext_len)
    )
    # bit 0 clear: the prefix starts with 'a'
    prefixes = range(0, 1 << depth, 2)
    workers = min(workers, len(prefixes))
    built, counted = _shard_work(depth, spans)
    return ScanPlan(
        n_max=n_max,
        depth=depth,
        spans=spans,
        # Every shard does the same work, so interleaving balances the batches.
        batches=tuple(tuple(prefixes[w::workers]) for w in range(workers)),
        buffer_bytes=workers * (_kept_layers(ext_len)[1] + 2 * min(_LAYER_CHUNK, 1 << ext_len) + _ROW_CHUNK),
        built=len(prefixes) * built,
        counted=len(prefixes) * counted,
    )


def _scan_shards(plan: ScanPlan, prefixes: Iterable[int]) -> dict[int, list[int]]:
    """Per length 1..plan.n_max, how many of the words that start with any
    of the ``prefixes`` have m = k, at index k, as ``plan`` lays them out;
    lengths up to the depth from the prefixes' measures, the longer ones
    from their layers.

    The layers longer than one build chunk are built depth first: chunk lo
    of layer e is built and counted, and then the two chunks of layer e + 1
    that extend its words, lo and lo + 2^e.  A chunk reads only its
    ancestors on that path (layer s at entry lo mod 2^s), so each longer
    layer holds one chunk at a time, and every chunk is built once.
    All shards build their layers in one buffer, so the process writes its
    layer memory once and then holds the same pages throughout the scan.
    Layers allocated and freed per shard went back to the heap instead, and
    how much of it stayed resident depended on which shards it happened to run.
    """
    depth, ext_len = plan.depth, plan.ext_len
    counts = {n: [0] * 256 for n in range(1, plan.n_max + 1)}
    end = 1 << ext_len
    chunk = min(_LAYER_CHUNK, end)
    whole, kept = _kept_layers(ext_len)
    buf = np.empty(kept + chunk, dtype=np.uint8)
    # Layers whole + 1 .. ext_len - 1 have one chunk each; the top layer is
    # only ever one chunk: built, counted, overwritten.
    windows = [buf[lo : lo + chunk] for lo in range(1 << whole + 1, kept, chunk)]
    top = buf[kept:]
    hit = np.empty(_ROW_CHUNK, dtype=bool)
    for prefix_bits in prefixes:
        prefix = Word(prefix_bits, depth)
        measures = _prefix_measures(prefix)
        # the j-letter words that this prefix extends by a's (prefix_bits >> j == 0)
        for j in range(max(1, prefix_bits.bit_length()), depth + 1):
            counts[j][measures[j]] += 1
        if not ext_len:
            continue  # n_max = depth: the prefix is the whole word
        ext = extension_m(prefix, whole, buf) + windows
        covering = {e: _covering_factors(prefix, e, measures) for e in range(whole + 1, ext_len + 1)}
        weights = _block_weights(prefix_bits, depth)

        def count(e: int, lo: int) -> None:
            """Fold in ext[e], entries lo onward of layer e."""
            layer, span = ext[e], plan.spans[e]
            for start, weight in _counted_spans(lo, lo + layer.size, 1 << e, span, depth, weights):
                _count(counts[depth + e], layer[start - lo : start - lo + span], hit, weight)

        for e in range(1, whole + 1):
            count(e, 0)
        # A stack, so that everything below a chunk is done before the next
        # chunk of its layer overwrites the window it reads.
        stack = [(whole + 1, lo) for lo in range(0, 2 << whole, chunk)]
        while stack:
            e, lo = stack.pop()
            if e < ext_len:
                _fill_chunk(ext[e], lo, e, covering[e], ext)
                count(e, lo)
                stack += (e + 1, lo + (1 << e)), (e + 1, lo)
                continue
            for start, weight in _counted_spans(lo, lo + chunk, end, chunk, depth, weights):
                _fill_chunk(top, start, e, covering[e], ext)
                _count(counts[depth + e], top, hit, weight)
    return counts


def _scan_sharded(plan: ScanPlan) -> dict[int, LengthRow]:
    """Rows 1..plan.n_max from the plan's batches, run on forked processes
    when there are several; raises ``WorkerDied`` when a worker process
    ends without its result."""
    batch = partial(_scan_shards, plan)
    if len(plan.batches) > 1:
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
            with ProcessPoolExecutor(len(plan.batches), mp_context=multiprocessing.get_context("fork")) as pool:
                merged, *others = pool.map(batch, plan.batches)
        except BrokenProcessPool as exc:
            raise WorkerDied("an enumeration worker process died (killed by a signal, e.g. out of memory)") from exc
    else:
        merged, others = batch(plan.batches[0]), []
    for other in others:
        for n, counts in merged.items():
            merged[n] = [a + b for a, b in zip(counts, other[n])]
    # The letter swap pairs the a-initial words with the others.
    return {n: LengthRow(n, {k: 2 * c for k, c in enumerate(counts) if c}) for n, counts in merged.items()}


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _plan(n_max: int) -> ScanPlan:
    """The plan of a scan up to n_max: at the deepest depth whose top-layer
    blocks still hold whole build chunks, in-process up to 2^_IN_PROCESS_BITS
    words and otherwise on one worker per usable CPU, at most one per shard."""
    depth = max(1, (n_max - _LAYER_CHUNK.bit_length() + 1) // 2)
    return _layout(n_max, depth, _usable_cpus() if n_max > _IN_PROCESS_BITS else 1)


def scan_lengths(n_max: int) -> dict[int, LengthRow]:
    """Exact per-length statistics of m for every length 1..n_max.

    Enumerates only words starting with 'a'; the letter-swap involution is
    fixed-point free, so all counts double exactly.  ``_plan`` fixes the
    shards, batches and buffers before the scan starts: under 10 MiB of
    buffers per worker process whatever n_max and the CPU count are.
    """
    if not 1 <= n_max <= PACKED_LIMIT:
        raise ValueError(f"length must be in 1..{PACKED_LIMIT}, got {n_max}")
    return _scan_sharded(_plan(n_max))
