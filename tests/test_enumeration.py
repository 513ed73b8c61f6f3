from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_force_m_table,
    complement_bits_per_letter,
    brute_force_m,
    dfs_scan,
    palindromic_completions,
    reverse_bits_per_letter,
    text_of,
)
from palfact import enumeration
from palfact.enumeration import (
    _block_weights,
    _covering_factors,
    _layout,
    _plan,
    _scan_sharded,
    _scan_shards,
    _shard_work,
    extension_m,
    palindrome_values,
    scan_lengths,
)
from palfact.factorization import _prefix_measures, measure
from palfact.rows import PACKED_LIMIT, _rows_upto, length_rows, worst_rows
from palfact.words import Word, parse_word

ROOT = Path(__file__).resolve().parent.parent


class TestPalindromeValues:
    @pytest.mark.parametrize("length", range(13))
    def test_complete_and_sorted(self, length):
        vals = palindrome_values(length)
        expected = sorted(
            bits for bits in range(1 << length) if text_of(bits, length) == text_of(bits, length)[::-1]
        )
        assert vals.dtype == np.int64
        assert vals.tolist() == expected

    def test_table_is_read_only(self):
        vals = palindrome_values(9)
        with pytest.raises(ValueError):
            vals[0] = 1
        assert palindrome_values(9)[0] == 0

    def test_count_formula(self):
        for length in range(1, 16):
            assert palindrome_values(length).size == 1 << ((length + 1) // 2)


class TestCoveringFactors:
    """The palindromic last factors that cover a whole extension, for every
    prefix of at most 7 letters, against the extensions found by trying each."""

    @pytest.mark.parametrize("p", range(8))
    def test_every_start_matches_brute_force(self, p):
        for bits in range(1 << p):
            prefix = Word(bits, p)
            text = prefix.text
            before = [0] + [brute_force_m(text[:s]) for s in range(1, p + 1)]
            for e in range(10):
                factors = _covering_factors(prefix, e, _prefix_measures(prefix))
                expected = [
                    (completions, before[s])
                    for s in range(p + 1)
                    if (completions := palindromic_completions(text[s:], e))
                ]
                assert all(values.dtype == np.int64 for values, _ in factors)
                assert [(values.tolist(), m) for values, m in factors] == expected, (text, e)


class TestExtensionM:
    def test_empty_prefix_matches_scalar(self):
        layers = extension_m(Word.empty(), 10)
        for e in range(1, 11):
            for bits in range(1 << e):
                assert layers[e][bits] == measure(Word(bits, e))

    def test_empty_prefix_matches_cut_pattern_oracle(self):
        layers = extension_m(Word.empty(), 11)
        for e in range(1, 12):
            assert np.array_equal(layers[e].astype(np.int64), brute_force_m_table(e))

    @pytest.mark.parametrize("prefix", ["a", "ba", "bbaab", "aababba", "bbaabab"])
    def test_nonempty_prefix_matches_scalar(self, prefix):
        base = parse_word(prefix)
        layers = extension_m(base, 7)
        for e in range(1, 8):
            for bits in range(1 << e):
                assert layers[e][bits] == measure(base + Word(bits, e)), (prefix, e, bits)

    @pytest.mark.parametrize("prefix", ["", "a", "bbaab"])
    def test_layers_independent_of_layer_chunk(self, monkeypatch, prefix):
        base = parse_word(prefix) if prefix else Word.empty()
        whole = extension_m(base, 12)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 8)
        chunked = extension_m(base, 12)
        for e in range(1, 13):
            assert np.array_equal(chunked[e], whole[e]), e

    def test_full_size_shard_matches_eertree(self):
        """A production-size shard (an a-initial 4-letter prefix extended by
        26, as at n = 30) against the palindromic tree, an independent
        algorithm, on seeded entries of its longest layers."""
        prefix = parse_word("abba")
        layers = extension_m(prefix, 26)
        rng = random.Random(2010)
        for _ in range(5000):
            e = rng.randrange(20, 27)
            v = rng.randrange(1 << e)
            assert layers[e][v] == measure(prefix + Word(v, e)), (e, v)

    def test_layers_are_views_of_a_given_buffer(self):
        base = parse_word("bbaab")
        out = np.zeros(2 << 9, dtype=np.uint8)
        layers = extension_m(base, 9, out)
        fresh = extension_m(base, 9)
        for e in range(1, 10):
            assert layers[e].base is out
            assert np.array_equal(out[1 << e : 2 << e], fresh[e]), e

    def test_layer_sizes_and_dtype(self):
        layers = extension_m(parse_word("ab"), 5)
        for e in range(1, 6):
            assert layers[e].dtype == np.uint8
            assert layers[e].size == 1 << e


class TestScanLengths:
    def test_small_rows(self):
        rows = scan_lengths(3)
        assert rows[1].counts == {1: 2}
        assert rows[2].counts == {1: 2, 2: 2}
        assert rows[3].counts == {1: 4, 2: 4}

    def test_counts_against_full_tables(self, m_tables_14):
        rows = scan_lengths(12)
        for n in range(1, 13):
            table = m_tables_14[n]
            expected = {int(k): int(c) for k, c in enumerate(np.bincount(table)) if c}
            assert rows[n].counts == expected
            assert rows[n].k == int(table.max())

    def test_totals(self):
        rows = scan_lengths(14)
        for n, row in rows.items():
            assert sum(row.counts.values()) == 1 << n
            assert all(c % 2 == 0 for c in row.counts.values())

    def test_range_validation(self):
        with pytest.raises(ValueError):
            scan_lengths(0)
        with pytest.raises(ValueError):
            scan_lengths(PACKED_LIMIT + 1)

    def test_memo_answers_shorter_lengths_from_one_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr("palfact.rows._memo", {})
        monkeypatch.setattr(enumeration, "scan_lengths", lambda n: calls.append(n) or scan_lengths(n))
        assert _rows_upto(9)[5] == scan_lengths(5)[5]
        assert _rows_upto(4)[4] == scan_lengths(4)[4]
        assert calls == [9]
        assert sorted(_rows_upto(12)) == list(range(1, 13))
        assert calls == [9, 12]
        with pytest.raises(ValueError):
            _rows_upto(0)


@pytest.fixture(scope="module")
def oracles_14():
    """Per length 1..14: m of every word from the cut-pattern oracle, and the DFS row."""
    return {n: (brute_force_m_table(n), dfs_scan(n)) for n in range(1, 15)}


class TestSharding:
    """Rows must not depend on the prefix depth the scan is sharded at."""

    # Row chunks of 3 and 64 entries also let kept layers skip blocks.  At
    # n_max = 1, and n_max = 2 at depth 2, the prefixes are the words and no
    # shard builds a layer.
    @pytest.mark.parametrize("n_max", [1, 2, 7, 12, 18])
    @pytest.mark.parametrize("row_chunk", [3, 64])
    def test_rows_independent_of_shard_depth(self, monkeypatch, n_max, row_chunk):
        unsharded = _scan_sharded(_layout(n_max, 1))
        assert sorted(unsharded) == list(range(1, n_max + 1))
        monkeypatch.setattr(enumeration, "_ROW_CHUNK", row_chunk)
        for depth in range(1, 7):
            assert _scan_sharded(_layout(n_max, depth)) == unsharded, depth

    # Many layer chunks per shard: chunks holding several palindromic suffix
    # rows, chunks inside one suffix row (s >= log2 chunk), and covering
    # factors cut at chunk bounds, in the kept layers and the streamed top one.
    # For depths 3..6 at chunk 2^3: n = 2d - 1 has no top-layer blocks and
    # builds every chunk, n = 2d + 2 builds whole chunks of two 4-entry
    # blocks, and n = 2d + 3 builds one chunk-sized block at a time and skips
    # the partners.  At chunk 2^8, depth 4 builds whole chunks of several
    # blocks at n = 12, 13 and 15, and chunk-sized blocks at n = 16.
    @pytest.mark.parametrize(
        ("n_max", "layer_chunk"),
        sorted(
            {(7, 1 << 3), (12, 1 << 3), (18, 1 << 8)}
            | {(n, 1 << 8) for n in (7, 12, 13, 15, 16)}
            | {(n, 1 << 3) for d in range(3, 7) for n in (2 * d - 1, 2 * d + 2, 2 * d + 3)}
        ),
    )
    def test_rows_independent_of_layer_chunk(self, monkeypatch, n_max, layer_chunk):
        unsharded = _scan_sharded(_layout(n_max, 1))
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", layer_chunk)
        for depth in range(1, 7):
            assert _scan_sharded(_layout(n_max, depth)) == unsharded, depth

    # Layers longer than one chunk are built depth first, each in a window
    # of one chunk: every kept chunk must still be built once, a top chunk
    # only where its block counts, and each chunk right after the chunks of
    # the longer layers it reads (layer s at entry lo mod 2^s).
    @pytest.mark.parametrize("layer_chunk", [1 << 3, 1 << 5])
    def test_each_chunk_is_built_once(self, monkeypatch, layer_chunk):
        expected = {n: _scan_sharded(_layout(n, 1)) for n in range(11, 15)}
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", layer_chunk)
        fill, built = enumeration._fill_chunk, []

        def recorded(out, lo, e, *args):
            built.append((e, lo))
            fill(out, lo, e, *args)

        monkeypatch.setattr(enumeration, "_fill_chunk", recorded)
        for n, rows in expected.items():
            for depth in range(1, 5):
                plan = _layout(n, depth)
                end = 1 << plan.ext_len
                block, top_chunk = end >> depth, min(layer_chunk, end)
                kept = Counter(
                    (e, lo) for e in range(1, plan.ext_len) for lo in range(0, 1 << e, min(layer_chunk, 1 << e))
                )
                assert 1 << max(e for e, _ in kept) > layer_chunk, (n, depth)
                for prefix in range(0, 1 << depth, 2):
                    built.clear()
                    _scan_shards(plan, (prefix,))
                    weights = _block_weights(prefix, depth)
                    top = Counter(
                        (plan.ext_len, lo)
                        for lo in range(0, end, top_chunk)
                        if top_chunk > block or weights[lo // block]
                    )
                    assert Counter(built) == kept + top, (n, depth, prefix)
                    window = {}
                    for e, lo in built:
                        for s, at in window.items():
                            if s < e:
                                assert at == lo % (1 << s) // layer_chunk * layer_chunk, (n, depth, e, lo, s)
                        if 1 << e > layer_chunk:
                            window[e] = lo
                assert _scan_sharded(plan) == rows, (n, depth)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_rows_independent_of_row_chunk(self, monkeypatch, depth):
        whole = _scan_sharded(_layout(14, depth))
        monkeypatch.setattr(enumeration, "_ROW_CHUNK", 64)
        assert _scan_sharded(_layout(14, depth)) == whole

    def test_shards_share_one_buffer_until_the_batch_ends(self, monkeypatch):
        buffers = []

        def recorded(prefix, ext_len, out=None):
            buffers.append(out)
            return extension_m(prefix, ext_len, out)

        monkeypatch.setattr(enumeration, "extension_m", recorded)
        _scan_shards(_layout(11, 3), range(0, 8, 2))
        assert len(buffers) == 4
        assert buffers[0] is not None
        assert all(out is buffers[0] for out in buffers)
        # nothing outlives the batch: the buffer goes with the last reference
        freed = weakref.ref(buffers[0])
        buffers.clear()
        assert freed() is None

    def test_batch_equals_merged_single_prefix_batches(self):
        prefixes = range(0, 16, 2)
        batch = _scan_shards(_layout(14, 4), prefixes)
        singles = [_scan_shards(_layout(14, 4), (prefix,)) for prefix in prefixes]
        # rows 1..4 from the prefixes' measures, 5..14 from their layers
        assert sorted(batch) == list(range(1, 15))
        for n, counts in batch.items():
            assert counts == [sum(column) for column in zip(*(single[n] for single in singles))], n

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_sharded_rows_match_oracles(self, depth, oracles_14):
        rows = _scan_sharded(_layout(14, depth))
        for n in range(1, 15):
            row, (table, (dfs, _)) = rows[n], oracles_14[n]
            expected = {int(k): int(c) for k, c in enumerate(np.bincount(table)) if c}
            assert row.counts == expected, (depth, n)
            assert list(row.counts) == sorted(row.counts)
            assert row.k == int(table.max())
            assert dfs == row


def _reversal_partner(bits: int, length: int) -> int:
    """The a-initial one of the reversal and its letter swap, by the
    per-letter oracles."""
    image = reverse_bits_per_letter(bits, length)
    return complement_bits_per_letter(image, length) if image & 1 else image


class TestReversalBlocks:
    """A shard's layers of length >= 2d split by the word's last d letters
    into 2^d blocks; of each pair of blocks that are each other's reversal
    images, one is counted twice and the other skipped."""

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_each_pair_is_built_once(self, depth):
        weights = {prefix: _block_weights(prefix, depth) for prefix in range(0, 1 << depth, 2)}
        assert sum(map(sum, weights.values())) == 1 << (2 * depth - 1)
        built, partners_of_skipped = set(), Counter()
        for prefix, row in weights.items():
            assert len(row) == 1 << depth
            for last, weight in enumerate(row):
                ends = prefix | last << depth
                image = _reversal_partner(ends, 2 * depth)
                partner = image & ((1 << depth) - 1), image >> depth
                if image == ends:
                    assert weight == 1, (prefix, last)
                elif weight:
                    assert weight == 2, (prefix, last)
                    built.add((prefix, last))
                else:
                    partners_of_skipped[partner] += 1
        assert set(partners_of_skipped) == built
        assert set(partners_of_skipped.values()) <= {1}

    # _shard_work predicts every shard's work from this count.
    @pytest.mark.parametrize("depth", range(1, 13))
    def test_every_shard_keeps_the_same_number_of_blocks(self, depth):
        kept = {int(np.count_nonzero(_block_weights(prefix, depth))) for prefix in range(0, 1 << depth, 2)}
        assert kept == {(1 << (depth - 1)) + 1}

    # Small chunks, so that every depth's blocks are built and counted alone.
    @pytest.mark.parametrize(("depth", "workers"), [(d, w) for d in range(1, 11) for w in range(1, 9)])
    def test_batches_are_balanced_by_work(self, monkeypatch, depth, workers):
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << 8)
        monkeypatch.setattr(enumeration, "_ROW_CHUNK", 1 << 6)
        plan = _layout(2 * depth + 8, depth, workers)
        kept = {p: int(np.count_nonzero(_block_weights(p, depth))) for p in range(0, 1 << depth, 2)}
        assert sorted(p for batch in plan.batches for p in batch) == list(kept)
        assert len(plan.batches) == min(workers, len(kept))
        assert max(map(len, plan.batches)) - min(map(len, plan.batches)) <= 1
        loads = [sum(kept[p] for p in batch) for batch in plan.batches]
        assert max(loads) <= sum(loads) / len(loads) + max(kept.values()), loads
        assert plan.built == len(kept) * _shard_work(depth, plan.spans)[0]

    def test_top_layer_builds_only_counted_blocks(self, monkeypatch):
        # n = 2d + log2(chunk): one chunk per block, built only if it counts
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << 3)
        fill, built = enumeration._fill_chunk, Counter()

        def recorded(out, lo, e, *args):
            built[e] += 1
            fill(out, lo, e, *args)

        monkeypatch.setattr(enumeration, "_fill_chunk", recorded)
        prefixes = range(0, 1 << 4, 2)
        _scan_shards(_layout(11, 4), prefixes)
        assert built[7] == sum(weight > 0 for prefix in prefixes for weight in _block_weights(prefix, 4)) == 72


class TestWorkers:
    """Shards on forked workers give the rows of one process."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 2)

    # Build chunks of 2^(n_max - 9) entries put the scan at depth 4, and
    # _IN_PROCESS_BITS = n_max - 1 lets it fork: one CPU runs the 8 shards
    # in-process, two CPUs on two workers.
    @pytest.mark.parametrize("n_max", [12, 15, 18])
    def test_rows_equal_in_process_scan(self, monkeypatch, n_max):
        monkeypatch.setattr(enumeration, "_IN_PROCESS_BITS", n_max - 1)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << (n_max - 9))
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 1)
        plan = _plan(n_max)
        assert (plan.depth, len(plan.batches)) == (4, 1)
        in_process = scan_lengths(n_max)
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 2)
        plan = _plan(n_max)
        assert (plan.depth, len(plan.batches)) == (4, 2)
        assert scan_lengths(n_max) == in_process == _scan_sharded(_layout(n_max, 1))

    def test_shards_reach_different_maxima(self, monkeypatch, two_cpus):
        # The a-initial maximizers of length 11, aababbaabab and ababbaababb,
        # are each other's reversal images, in the blocks whose first and last
        # three letters are (aab, bab) and (aba, abb).  With blocks of one
        # 32-entry chunk only shard aab builds the pair's block, and counts
        # it twice; the merged histogram must keep its top value.
        monkeypatch.setattr(enumeration, "_IN_PROCESS_BITS", 10)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << 5)
        plan = _plan(11)
        assert (plan.depth, len(plan.batches), 1 << (plan.ext_len - plan.depth)) == (3, 2, 1 << 5)
        shards = {text_of(prefix, 3): _scan_shards(_layout(11, 3), (prefix,))[11] for prefix in range(0, 8, 2)}
        top = {text: max(k for k, c in enumerate(counts) if c) for text, counts in shards.items()}
        assert top == {"aaa": 4, "aba": 4, "aab": 5, "abb": 4}
        assert shards["aab"][5] == 2
        rows = scan_lengths(11)
        assert rows == _scan_sharded(_layout(11, 1))
        assert (rows[11].k, rows[11].counts[5]) == (5, 4)

    # Build chunks of 2^(n_max - 2 depth) entries put the scan at the given
    # depth, and _IN_PROCESS_BITS = n_max - 1 lets it fork: three workers
    # split 16 shards 6, 5, 5, as at n = 30 on three CPUs.
    @pytest.mark.parametrize(("cpus", "depth"), [(1, 3), (2, 4), (3, 5)])
    def test_rows_independent_of_worker_count(self, monkeypatch, cpus, depth):
        n_max = 15
        monkeypatch.setattr(enumeration, "_IN_PROCESS_BITS", n_max - 1)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << (n_max - 2 * depth))
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
        plan = _plan(n_max)
        assert (plan.depth, len(plan.batches)) == (depth, cpus)
        assert scan_lengths(n_max) == _scan_sharded(_layout(n_max, 1))

    # Every scan runs at the deepest depth whose top blocks hold whole 2^20-
    # entry chunks (depth 1 up to n = 21), n <= 26 in-process and longer ones
    # on two workers.
    @pytest.mark.parametrize(
        ("n_max", "plan"),
        [(26, (3, 1)), (27, (3, 2)), (30, (5, 2)), (32, (6, 2))]
        + [(21, (1, 1)), (24, (2, 1)), (29, (4, 2)), (31, (5, 2))],
    )
    def test_two_cpus_split_the_layer_budget(self, two_cpus, n_max, plan):
        got = _plan(n_max)
        assert (got.depth, len(got.batches)) == plan

    # A worker holds layers 1..20 whole and a 1 MiB chunk of each longer
    # one, whatever the plan: at most 2^21 + 5 * 2^20 bytes of kept layers
    # (n = 32 on one CPU, depth 6), plus the top chunk and the scratch.
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_buffers_stay_under_10_mib_a_worker(self, monkeypatch, cpus):
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
        for n_max in range(21, 33):
            plan = _plan(n_max)
            assert plan.buffer_bytes <= len(plan.batches) * (10 << 20), (n_max, plan.depth, len(plan.batches))

    # n = 30 runs at depth 5 on any CPU count, on at most its 16 shards.
    # Each plan is (depth, W).
    @pytest.mark.parametrize(
        ("cpus", "plan"),
        [(1, (5, 1)), (3, (5, 3)), (4, (5, 4))] + [(64, (5, 16)), (8, (5, 8))],
    )
    def test_plan_at_n30(self, monkeypatch, cpus, plan):
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
        got = _plan(30)
        assert (got.depth, len(got.batches)) == plan

    @pytest.mark.parametrize("n_max", range(24, 33))
    def test_workers_do_no_more_work_than_one_process(self, monkeypatch, n_max):
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 1)
        alone = _plan(n_max)
        for cpus in (2, 3, 4):
            monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
            plan = _plan(n_max)
            assert plan.built <= alone.built, (cpus, plan.depth)
            assert plan.counted <= alone.counted, (cpus, plan.depth)

    # The depth comes from the blocks alone, so the CPU count only splits the
    # shards; from n = 22 on every top block holds whole build chunks.
    @pytest.mark.parametrize("cpus", range(1, 9))
    def test_work_does_not_depend_on_the_cpu_count(self, monkeypatch, cpus):
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 1)
        alone = {n_max: _plan(n_max) for n_max in range(1, 33)}
        monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
        for n_max, one in alone.items():
            plan = _plan(n_max)
            assert (plan.depth, plan.spans, plan.built, plan.counted) == (
                one.depth,
                one.spans,
                one.built,
                one.counted,
            ), n_max
            assert len(plan.batches) == (1 if n_max <= 26 else min(cpus, 1 << (plan.depth - 1))), n_max
            if n_max >= 22:
                assert 1 << (plan.ext_len - plan.depth) >= enumeration._LAYER_CHUNK, n_max

    # Every layer is built in a worker: the forking parent only merges rows.
    # Build chunks of 2^3 entries put n = 12 at depth 4, on two workers.
    def test_parent_builds_no_layer(self, monkeypatch, two_cpus):
        parent, calls, in_parent = os.getpid(), multiprocessing.Value("q", 0), multiprocessing.Value("q", 0)
        fill_chunk = enumeration._fill_chunk

        def recorded(*args):
            with calls.get_lock():
                calls.value += 1
                in_parent.value += os.getpid() == parent
            fill_chunk(*args)

        monkeypatch.setattr(enumeration, "_IN_PROCESS_BITS", 0)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", 1 << 3)
        expected = _scan_sharded(_layout(12, 1))
        monkeypatch.setattr(enumeration, "_fill_chunk", recorded)
        plan = _plan(12)
        assert (plan.depth, len(plan.batches)) == (4, 2)
        assert scan_lengths(12) == expected
        assert calls.value > 0
        assert in_parent.value == 0

    # Small chunks, so that blocks are built and counted alone from small n
    # on and scans run deeper than depth 1; _IN_PROCESS_BITS = 0, so that W
    # workers run where there are W shards.  The workers are forked, so the
    # counters are shared memory.
    @pytest.mark.parametrize(("layer_chunk", "row_chunk"), [(1 << 3, 1 << 3), (1 << 5, 1 << 8), (1 << 8, 1 << 6)])
    def test_counters_equal_the_plan(self, monkeypatch, layer_chunk, row_chunk):
        built, counted = multiprocessing.Value("q", 0), multiprocessing.Value("q", 0)
        fill_chunk, count = enumeration._fill_chunk, enumeration._count

        def counted_fill(out, *args):
            with built.get_lock():
                built.value += out.size
            fill_chunk(out, *args)

        def counted_count(counts, layer, *args):
            with counted.get_lock():
                counted.value += layer.size
            count(counts, layer, *args)

        monkeypatch.setattr(enumeration, "_fill_chunk", counted_fill)
        monkeypatch.setattr(enumeration, "_count", counted_count)
        monkeypatch.setattr(enumeration, "_LAYER_CHUNK", layer_chunk)
        monkeypatch.setattr(enumeration, "_ROW_CHUNK", row_chunk)
        monkeypatch.setattr(enumeration, "_IN_PROCESS_BITS", 0)
        for n_max in (1, 5, 9, 12, 14):
            expected = _scan_sharded(_layout(n_max, 1))
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(enumeration, "_usable_cpus", lambda: cpus)
                plan = _plan(n_max)
                built.value = counted.value = 0
                assert _scan_sharded(plan) == expected, (n_max, cpus)
                assert (built.value, counted.value) == (plan.built, plan.counted), (n_max, plan)


def _check_worst(worst, counts):
    """The pruned search's row of one length against the scan's histogram:
    K is the histogram's top value, and the listed words, a-initial,
    distinct and each of measure K, number half its top count, so with
    their letter swaps they are the whole top bin."""
    k, n = max(counts), worst.n
    assert (worst.k, worst.maximizer_count) == (k, counts[k]), n
    assert len(set(worst.maximizers)) == len(worst.maximizers), n
    assert all(b % 2 == 0 and 0 <= b < 1 << n for b in worst.maximizers), n
    assert all(measure(Word(b, n)) == k for b in worst.maximizers), n


def _check_golden(rows, lengths):
    """Rows against ``tests/data/rows_27_32.json``: the histogram and
    maximizer count of n = 27..32, generated once with ``scan_lengths(32)``
    while every shard still held its top layer whole; and the pruned
    search's rows against the golden histograms."""
    for n, counts in _golden_worst(lengths).items():
        assert sum(counts.values()) == 1 << n
        assert rows[n].counts == counts, n


def _golden_worst(lengths):
    """The histograms of ``tests/data/rows_27_32.json`` for ``lengths``, by
    n, with the pruned search's rows checked against their top bins."""
    golden = json.loads((ROOT / "tests" / "data" / "rows_27_32.json").read_text())
    worst = worst_rows(max(lengths))
    histograms = {}
    for n in lengths:
        counts = histograms[n] = {int(k): c for k, c in golden[str(n)]["counts"].items()}
        assert counts[max(counts)] == golden[str(n)]["maximizer_count"], n
        _check_worst(worst[n - 1], counts)
    return histograms


class TestGoldenRows:
    def test_rows_27_to_30(self):
        # the n = 30 pass of test_acceptance's criterion 9, unless run alone
        _check_golden(_rows_upto(30), range(27, 31))

    def test_worst_rows_31_and_32(self):
        # the pruned search alone; the scan of these lengths is opt-in below
        _golden_worst((31, 32))

    @pytest.mark.skipif(not os.environ.get("PALFACT_LONG_TESTS"), reason="~12 s; set PALFACT_LONG_TESTS=1")
    def test_rows_31_and_32(self):
        _check_golden(scan_lengths(32), (31, 32))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
def test_scan_never_holds_the_top_layer():
    """A scan holds its plan's buffers and little else.  A shard builds
    layers 1..20 whole, 2^21 bytes, and holds each longer layer one 1 MiB
    chunk at a time, the top one included: at n = 26 (depth 3, layers up to
    22 kept) each process holds 4 MiB of layers, and at n = 27 (depth 3,
    up to 23) 5 MiB whatever the CPU count.  Every
    process that runs a batch reports how far its peak RSS grew (VmHWM, its
    own peak: ru_maxrss would start from the peak of the test process that
    spawned it).  The growth summed over them stays below the plan's buffer
    bytes plus 6 MiB per process: each grew 2.3-4.7 MiB beyond its buffers
    (numpy temporaries and the library pages it faults in), measured with
    one to four workers.  Forked workers inherit the wrapper that reports it."""
    code = (
        "import os, re, sys\n"
        "from palfact import enumeration\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)) * 1024\n"
        "before = {}\n"
        "scan_shards = enumeration._scan_shards\n"
        "def measured(*args, **kwargs):\n"
        "    before.setdefault(os.getpid(), peak())\n"
        "    builders = scan_shards(*args, **kwargs)\n"
        "    os.write(1, f'{os.getpid()} {peak() - before[os.getpid()]}\\n'.encode())\n"
        "    return builders\n"
        "enumeration._scan_shards = measured\n"
        "n = int(sys.argv[1])\n"
        "plan = enumeration._plan(n)\n"
        "print(enumeration._kept_layers(plan.ext_len)[1], plan.buffer_bytes, flush=True)\n"
        "enumeration.scan_lengths(n)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for n, layer_bytes in ((26, 4 << 20), (27, 5 << 20)):
        argv = [sys.executable, "-c", code, str(n)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        (layers, buffer_bytes), *lines = [list(map(int, line.split())) for line in proc.stdout.splitlines()]
        assert layers <= layer_bytes, n
        growth = {}
        for pid, grown in lines:
            growth[pid] = max(growth.get(pid, 0), grown)
        assert growth
        assert sum(growth.values()) < buffer_bytes + len(growth) * (6 << 20), n


class TestCrossEngine:
    """The pruned search and the layer scan share no code; each certifies
    the other's K and maximizer count."""

    def test_worst_rows_match_the_scan_to_26(self):
        for row, worst in zip(length_rows(26), worst_rows(26)):
            _check_worst(worst, row.counts)


class TestDfsBackend:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_matches_vectorized(self, n):
        assert dfs_scan(n) == (scan_lengths(n)[n], worst_rows(n)[-1])

    def test_prefix_depth_independent(self):
        assert dfs_scan(10, prefix_depth=3) == dfs_scan(10, prefix_depth=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            dfs_scan(0)
