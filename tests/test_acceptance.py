"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict
lines; every tolerance is pinned here, nothing is deferred.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import EXCEPTIONAL_WORD, K_TABLE, KBAR_TABLE
from oracles import brute_force_m_table, dfs_scan, reachable_k_bitsets, text_of
from palfact.asymptotics import bounds_report
from palfact.cli import dispatch
from palfact.enumeration import _layout, _scan_sharded, scan_lengths
from palfact.factorization import measure, min_factorization
from palfact.lemmas import k_formula, standard_runs, subadditivity_check, verify_counting_bound
from palfact.rows import SAMPLE_CAP, _rows_upto, length_row, length_rows, worst_rows
from palfact.words import Word


def criterion(cid: str, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {cid}: FAIL: {description} ({exc!r})")
                raise
            elapsed = time.perf_counter() - start
            extra = f"; {detail}" if detail else ""
            print(f"criterion {cid}: PASS: {description} ({elapsed:.1f}s{extra})")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def rows25():
    return length_rows(25)


@pytest.fixture(scope="module")
def row21():
    return length_row(21)


@criterion("1", "worst-case table reproduced exactly for n = 1..25, and 26..30 under --allow-long")
def test_criterion_1_k_table(rows25, capsys):
    start = time.perf_counter()
    assert [row.k for row in rows25] == K_TABLE[:25]
    assert rows25[7].k == 4  # K(8)
    assert rows25[19].k == 8  # K(20)
    assert rows25[24].k == 9  # K(25)
    assert time.perf_counter() - start < 600
    code = dispatch(["--format", "csv", "kmax", "--max-n", "30", "--allow-long"])
    out = capsys.readouterr().out
    assert code == 0
    tail = [int(line.split(",")[1]) for line in out.strip().splitlines()[26:]]
    assert tail == K_TABLE[25:] == [10, 10, 10, 10, 11]
    return "K(30)=11"


@criterion("2", "closed form equals the enumeration for n = 1..25 with the single length-11 exception")
def test_criterion_2_formula(rows25):
    for row in rows25:
        assert k_formula(row.n) == row.k, f"n={row.n}"
    assert k_formula(11) == 5 == rows25[10].k
    assert 11 // 6 + (11 + 4) // 6 + 1 == 4  # the uniform branch alone would give 4
    return "25 rows, zero tolerance"


@criterion("3", "length 11 has exactly one extremal orbit, containing aababbaabab, all members at m=5")
def test_criterion_3_uniqueness():
    orbits = list(worst_rows(11)[-1].orbits())
    assert len(orbits) == 1
    orb = orbits[0]
    assert EXCEPTIONAL_WORD in orb.words
    assert orb.size == 4
    for word in orb.words:
        assert min_factorization(word).m == 5
    return f"orbit size {orb.size}"


@criterion("4", "average table reproduced to two decimals for n = 1..21 with the exact length-21 identity")
def test_criterion_4_kbar_table():
    start = time.perf_counter()
    rows = length_rows(21)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    for row in rows:
        assert row.kbar_text == KBAR_TABLE[row.n][0], f"n={row.n}"
    s21 = rows[20].s
    assert s21 == 8939688
    assert s21 * 7 * 2**18 == 372487 * 21 * 2**21
    return f"S(21)={s21}, enumerated in {elapsed:.2f}s"


@criterion("5", "bound constants: theta', g(theta'), exact upper fraction, critical points of g")
def test_criterion_5_bounds(row21):
    start = time.perf_counter()
    report = bounds_report(row21)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert abs(report.theta_prime - 0.09488) <= 1e-4
    assert abs(report.g_at_theta_prime - 0.08781) <= 1e-4
    assert report.upper_bound == Fraction(372487, 7 * 2**18)
    x1, x2 = report.g_prime_roots
    assert abs(x1 - 0.313) <= 5e-3
    assert abs(x2 - 5.83) <= 5e-2
    return f"theta'={report.theta_prime:.6f}, lower={report.g_at_theta_prime:.6f}"


@criterion(
    "6",
    "claim suite: seed witnesses, three case analyses, block powers, both families, tuple inequality, "
    "closed form, subadditivity, counting bound",
)
def test_criterion_6_lemma_suite():
    start = time.perf_counter()
    reports = [claim() for claim in standard_runs(ksum_trials=10_000, seed=42).values()]
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    params = {report.lemma_id: report.params for report in reports}
    assert list(params) == [
        "lemma1", "lemma2", "lemma3", "lemma4", "lemma7", "lemma8", "lemma9",
        "ksum", "theorem1", "subadditivity", "counting",
    ]
    assert [params[name] for name in ("lemma1", "lemma7", "lemma8", "lemma9")] == [
        {"n_max": 8},
        {"n_max": 10},
        {"t_max": 6},
        {"n_max": 5},
    ]
    for report in reports:
        assert report.passed, f"{report.lemma_id}: {report.counterexamples[:3]}"
    total = sum(report.cases for report in reports)
    return f"{len(reports)} reports, {total} cases"


@criterion("7", "parity-cumulated histogram never exceeds the palindrome-product bound for n = 9..16")
def test_criterion_7_counting_inequality():
    report = verify_counting_bound(16)
    assert report.passed, report.counterexamples
    assert report.params == {"n_range": "9..16"}
    assert report.cases == sum(length_row(n).k for n in range(9, 17))
    return f"{report.cases} squared-integer comparisons"


@criterion("8", "property suite: oracle equivalence, symmetry invariance, subadditivity, parity, partition independence")
def test_criterion_8_property_suite(m_tables_14):
    # oracle equivalence against enumerated cut patterns, all lengths <= 12
    for n in range(1, 13):
        oracle = brute_force_m_table(n)
        assert np.array_equal(m_tables_14[n].astype(np.int64), oracle)
        for bits in range(1 << n):
            assert min_factorization(Word(bits, n)).m == oracle[bits]
    # invariance under reversal and complement, all lengths <= 14
    for n in range(1, 15):
        table = m_tables_14[n]
        rev = np.zeros(1 << n, dtype=np.int64)
        v = np.arange(1 << n, dtype=np.int64)
        for t in range(n):
            rev |= ((v >> t) & 1) << (n - 1 - t)
        assert np.array_equal(table[rev], table)
        assert np.array_equal(table[v ^ ((1 << n) - 1)], table)
    # subadditivity of m for all concatenations with total length <= 12
    for lu in range(1, 12):
        for lv in range(1, 12 - lu + 1):
            concat = m_tables_14[lu + lv].reshape(1 << lv, 1 << lu).astype(np.int16)
            outer = m_tables_14[lv].astype(np.int16)[:, None] + m_tables_14[lu].astype(np.int16)[None, :]
            assert np.all(concat <= outer)
    # subadditivity of the exact averages over the computed range
    assert subadditivity_check(21).passed
    # parity reachability: 2k < l makes k+2 reachable, all lengths <= 14
    for n in range(1, 15):
        masks = reachable_k_bitsets(n)
        low = (1 << ((n - 1) // 2 + 1)) - 1
        assert np.all(((masks & low) << 2) & ~masks == 0)
    # results do not depend on how the search is partitioned: shard depth of
    # the engine, prefix depth of the depth-first oracle, whose histogram and
    # maximizers equal the engine's and the pruned search's
    whole = scan_lengths(12)
    for depth in range(1, 5):
        assert _scan_sharded(_layout(12, depth)) == whole
    assert dfs_scan(12, prefix_depth=3) == dfs_scan(12, prefix_depth=8) == (whole[12], worst_rows(12)[-1])
    return "five property families"


_SWAP = str.maketrans("ab", "ba")


@criterion(
    "9",
    "every maximizer row for n = 1..30 re-measured: a-initial, ascending, m = K, the scan's whole top bin, "
    "orbits and samples agree",
)
def test_criterion_9_maximizers_certified():
    rows = _rows_upto(30)  # one scan, shared with the golden rows 27..30
    checked = 0
    for n, row in enumerate(worst_rows(30), start=1):
        bits = row.maximizers
        assert all(b % 2 == 0 for b in bits), n
        assert all(a < b for a, b in zip(bits, bits[1:])), n
        assert all(measure(Word(b, n)) == row.k for b in bits), n
        # distinct words of measure K, as many as the scan counts at K: the set is the top bin
        assert row.k == rows[n].k and 2 * len(bits) == row.maximizer_count == rows[n].counts[row.k], n
        assert sum(orb.size for orb in row.orbits()) == row.maximizer_count, n
        # Brute force: the least member of every orbit, over every maximizer.
        texts = [text_of(b, n) for b in bits]
        texts += [t.translate(_SWAP) for t in texts]
        reps = sorted({min(t, t[::-1], t.translate(_SWAP), t[::-1].translate(_SWAP)) for t in texts})
        assert tuple(orb.representative for orb in row.sample_orbits) == tuple(reps[:SAMPLE_CAP]), n
        checked += len(bits)
    return f"{checked} a-initial maximizers"
