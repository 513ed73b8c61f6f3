"""Machine-checkable claims behind the closed form for K(n).

The induction that pins down K(n) leans on a handful of statements that
are finite computations: explicit factorization witnesses for the seed
family, three exhaustive case analyses over bounded suffix spaces, the
absence of long palindromes in (bbaaba)^n, exact measures along the prefix
family u_n and the capped family V(n), and a rearrangement inequality on
histogram-style tuples.  Three more are checked against the enumeration
rows through the length they are given: Theorem 1's closed form
``k_formula``, subadditivity of the exact averages, and the counting
bound.  Each claim has one public checker (``verify_lemma1`` through
``verify_lemma4``, ``verify_lemma7`` through ``verify_lemma9``,
``ksum_property`` and the three row claims) that replays it from scratch
and returns a report carrying concrete counterexamples when (and only
when) it fails; ``standard_runs`` is the whole suite, in the order
``verify all`` prints it.  The words a case analysis may leave unresolved
are listed as text, and a failing word is excused only if its text is on
the list.

The three claims read off the rows get them from ``rows.length_rows``,
which loads numpy only to scan.  The case analyses of Lemmas 3 and 4 are
pruned depth-first searches on the palindromic-suffix state of ``rows``,
and Lemma 3 prunes with the K(n) that ``rows.worst_rows`` certifies, not
with ``k_formula``; neither builds a layer, so neither loads numpy.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .asymptotics import a_bound_squared
from .factorization import longest_palindromic_factor, measure
from .rows import PACKED_LIMIT, _push, _search, _state, length_rows, worst_rows
from .words import FAMILY_BLOCK, FAMILY_SEED, Word, family, parse_word

__all__ = [
    "COUNTING_MIN_N",
    "M_CONSTANTS",
    "LemmaReport",
    "k_formula",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_lemma4",
    "verify_lemma7",
    "verify_lemma8",
    "verify_lemma9",
    "ksum_property",
    "verify_theorem1",
    "subadditivity_check",
    "verify_counting_bound",
    "standard_runs",
]

# The additive constants m_0..m_5 paired with suffix lengths 0..5 of the
# block bbaaba; they drive every bound in the induction.
M_CONSTANTS = (2, 3, 3, 3, 4, 4)

EXCEPTIONAL_LENGTH = 11
EXCEPTIONAL_K = 5

# Shortest length for which the counting bound is asserted (see
# verify_counting_bound).
COUNTING_MIN_N = 9

_BLOCK_PREFIXES = ("", "b", "bb", "bba", "bbaa", "bbaab")

# Explicit factorization witnesses for the length-5 seed word and its five
# extended forms; checked literally before any bound is trusted.
_SEED_WITNESSES = {
    "": ("aa", "bab"),
    "b": ("a", "aba", "bb"),
    "bb": ("a", "aba", "bbb"),
    "bba": ("aa", "b", "abbba"),
    "bbaa": ("aa", "b", "abbba", "a"),
    "bbaab": ("a", "aba", "bb", "baab"),
}


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one replayed claim.

    A failing report always carries at least one concrete counterexample;
    reports are bit-for-bit reproducible for identical parameters.
    """

    lemma_id: str
    params: dict[str, Any]
    cases: int
    counterexamples: tuple[Any, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def k_formula(n: int) -> int:
    """Closed form for K(n), floor(n/6) + floor((n+4)/6) + 1, except at
    length 11, where the single exceptional orbit of aababbaabab pushes the
    maximum to 5."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n == EXCEPTIONAL_LENGTH:
        return EXCEPTIONAL_K
    return n // 6 + (n + 4) // 6 + 1


def verify_lemma1(n_max: int) -> LemmaReport:
    """Upper bounds along the seed family.

    Checks (i) the six literal witnesses for n=0, and (ii) that
    m(aabab(bbaaba)^n s) <= 2n + m_{len(s)} for every n <= n_max and every
    block prefix s, with m computed independently by dynamic programming.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    bad: list[Any] = []
    cases = 0
    for suffix, blocks in _SEED_WITNESSES.items():
        cases += 1
        target = FAMILY_SEED + suffix
        glued = "".join(blocks)
        all_pal = all(b == b[::-1] for b in blocks)
        if glued != target or not all_pal or len(blocks) != M_CONSTANTS[len(suffix)]:
            bad.append({"witness_for": target, "blocks": blocks})
    for n in range(n_max + 1):
        stem = family("W", n).text
        for suffix in _BLOCK_PREFIXES:
            cases += 1
            word = stem + suffix
            bound = 2 * n + M_CONSTANTS[len(suffix)]
            got = measure(word)
            if got > bound:
                bad.append({"word": word, "m": got, "bound": bound})
    return LemmaReport("lemma1", {"n_max": n_max}, cases, tuple(bad))


# The three length-13 stems the case analyses quantify over, and the
# exceptional words each analysis is allowed to leave unresolved.
_STEMS = (
    FAMILY_BLOCK * 2 + "b",
    FAMILY_BLOCK + "bbaaaba",
    "bbaaabababbaa",
)
_LEMMA2_EXCEPTIONS = (
    FAMILY_BLOCK * 3 + "b",
    FAMILY_BLOCK * 2 + "bbaaaba",
    FAMILY_BLOCK + "bbaaabababbaa",
)
_LEMMA4_EXCEPTIONS_FOR_18 = (
    FAMILY_SEED + FAMILY_BLOCK * 2 + "b",
    FAMILY_SEED + FAMILY_BLOCK + "bbaaaba",
    FAMILY_SEED + "bbaaabababbaa",
)


def _ext_text(v: int, length: int) -> str:
    return Word(v, length).text


def verify_lemma2() -> LemmaReport:
    """Stems extended by every length-6 word: some prefix split v'w' with
    len(v') < 6 satisfies m_{len(v')} + m(w') < (5+len(v')+len(w'))/3, or
    satisfies it weakly with len(v')+len(w')+5 divisible by 6, or the word
    is one of three listed exceptions.  Rational comparisons are cleared
    to integers."""
    m_of = functools.cache(measure)

    def fires(word: str, a: int, b: int) -> bool:
        lhs = 3 * (M_CONSTANTS[a] + m_of(word[a : a + b]))
        rhs = 5 + a + b
        return lhs < rhs or (lhs == rhs and (a + b + 5) % 6 == 0)

    words = [stem + _ext_text(u_bits, 6) for stem in _STEMS for u_bits in range(1 << 6)]
    bad = [
        {"word": word}
        for word in words
        if word not in _LEMMA2_EXCEPTIONS
        and not any(fires(word, a, b) for a in range(1, 6) for b in range(1, len(word) - a + 1))
    ]
    return LemmaReport("lemma2", {"stems": len(_STEMS), "suffix_length": 6}, len(words), tuple(bad))


def verify_lemma3() -> LemmaReport:
    """Stems extended by every word u of length 12..17: some exact split
    w = v'w' with len(v') < 5 has m_{len(v')} + m(w') <= floor(17/2 + len(u)/4).
    The two words named as the lemma's exceptions reach this bound exactly,
    so the check excuses no word.  A depth-first search over u settles a
    length lu for all words extending u' once min_a(m_a + m(stem[a:]u')) +
    K(lu - len(u')) meets the bound, K certified by ``worst_rows``."""
    ks = [0, *(row.k for row in worst_rows(17))]
    bad = []
    for stem in _STEMS:
        failing = []

        def visit(tails: list, u_len: int, bits: int, lengths: list[int]) -> None:
            best = min(M_CONSTANTS[a] + ms[-1] for a, (_, _, _, ms) in enumerate(tails, 1))
            lengths = [lu for lu in lengths if best + ks[lu - u_len] > (34 + lu) // 4]
            if lengths and lengths[0] == u_len:
                failing.append((u_len, bits))
                lengths = lengths[1:]
            if lengths:
                for c in (0, 1):
                    visit([_push(tail, c) for tail in tails], u_len + 1, bits | c << u_len, lengths)

        # one state per split point a: the word stem[a:] + u'
        visit([_state(stem[a:]) for a in range(1, 5)], 0, 0, list(range(12, 18)))
        bad += [{"word": stem + _ext_text(bits, lu)} for lu, bits in sorted(failing)]
    cases = len(_STEMS) * sum(1 << lu for lu in range(12, 18))
    return LemmaReport("lemma3", {"stems": len(_STEMS), "suffix_lengths": "12..17"}, cases, tuple(bad))


def verify_lemma4() -> LemmaReport:
    """Every a-initial word of length 18 has a prefix w' with
    3 m(w') < len(w'), or one with 3 m(w') <= len(w') and len(w') divisible
    by 6, or is one of three listed family words.  A depth-first search
    settles every extension of a word's first such prefix at once."""
    # the least m with which a prefix of j letters is no such w'
    need = [-(-j // 3) + (j % 6 == 0) for j in range(1, 19)]
    words = (_ext_text(bits, 18) for bits in sorted(bits for _, bits in _search(need)))
    bad = [{"word": word} for word in words if word not in _LEMMA4_EXCEPTIONS_FOR_18]
    return LemmaReport("lemma4", {"length": 18}, 1 << 17, tuple(bad))


def verify_lemma7(n_max: int) -> LemmaReport:
    """(bbaaba)^n never contains a palindromic factor of length >= 5.

    Checked as longest factor <= 4 for n <= n_max, plus the reduction
    target used in the proof: (bbaaba)^2 has no palindromic factor of
    length 5 or 6.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    bad = []
    cases = 0
    for n in range(1, n_max + 1):
        cases += 1
        word = parse_word(FAMILY_BLOCK * n)
        longest = longest_palindromic_factor(word)
        if longest > 4:
            bad.append({"n": n, "longest_palindromic_factor": longest})
    square = FAMILY_BLOCK * 2
    for length in (5, 6):
        for start in range(len(square) - length + 1):
            cases += 1
            piece = square[start : start + length]
            if piece == piece[::-1]:
                bad.append({"factor": piece, "start": start})
    return LemmaReport("lemma7", {"n_max": n_max}, cases, tuple(bad))


# Suffix-measure recurrences along the prefix family: at length 6t+5+r the
# only palindromic final blocks have the two listed lengths.
_U_RECURRENCES = {0: (1, 3), 1: (1, 3), 2: (1, 2), 3: (1, 4), 4: (1, 2), 5: (1, 4)}


def verify_lemma8(t_max: int) -> LemmaReport:
    """Exact measures along the prefix family u_n.

    Checks the three base values m(u_8)=3, m(u_9)=4, m(u_10)=4, the closed
    form m(u_{6t+5+r}) = 2t + m_r for 1 <= t <= t_max, and that the same
    values satisfy the two-term minimum recurrences the closed form is
    derived from.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    top = 6 * t_max + 10
    m_u = {n: measure(family("U", n)) for n in range(1, top + 1)}
    bad = []
    cases = 0
    for n, expected in ((8, 3), (9, 4), (10, 4)):
        cases += 1
        if m_u[n] != expected:
            bad.append({"n": n, "m": m_u[n], "expected": expected})
    for t in range(1, t_max + 1):
        for r in range(6):
            n = 6 * t + 5 + r
            cases += 1
            expected = 2 * t + M_CONSTANTS[r]
            if m_u[n] != expected:
                bad.append({"n": n, "m": m_u[n], "expected": expected})
            drop_a, drop_b = _U_RECURRENCES[r]
            cases += 1
            recurred = min(m_u[n - drop_a], m_u[n - drop_b]) + 1
            if m_u[n] != recurred:
                bad.append({"n": n, "m": m_u[n], "recurrence": recurred})
    return LemmaReport("lemma8", {"t_max": t_max}, cases, tuple(bad))


def verify_lemma9(n_max: int) -> LemmaReport:
    """m(aabab(bbaaba)^n bbaaababb) = 2n + 6 for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    bad = []
    for n in range(n_max + 1):
        got = measure(family("V", n))
        if got != 2 * n + 6:
            bad.append({"n": n, "m": got, "expected": 2 * n + 6})
    return LemmaReport("lemma9", {"n_max": n_max}, n_max + 1, tuple(bad))


def _ksum_pair(draw: Callable[[int], int]) -> tuple[list[int], list[int]]:
    """Tuples x and a meeting the premise of ``ksum_property``, from draws
    ``draw(b)`` in 0..b-1: a, then x clamped below a, then the rest of x."""
    p = 1 + draw(8)
    l = p + draw(9)
    a = [draw(21) for _ in range(p + 1)]
    x = [draw(a[k] + 1) for k in range(p)]
    deficit = sum(a) - sum(x)
    slots = l + 1 - p
    cuts = sorted(draw(deficit + 1) for _ in range(slots - 1))
    edges = [0, *cuts, deficit]
    x += [edges[i + 1] - edges[i] for i in range(slots)]
    assert len(x) == l + 1 and sum(x) == sum(a) and all(x[k] <= a[k] for k in range(p))
    return x, a


def ksum_property(trials: int, seed: int) -> LemmaReport:
    """Randomized check of the weighted-sum comparison.

    For nonnegative tuples x_1..x_{l+1} and a_1..a_{p+1} with l >= p, equal
    totals and x_k <= a_k for k <= p, the conclusion sum k x_k >= sum k a_k
    must hold.  Tuples are drawn by ``_ksum_pair`` from a seeded generator.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    # randrange(b + 1) draws what randint(0, b) draws, without its extra call.
    draw = rng.randrange
    bad = []
    for _ in range(trials):
        x, a = _ksum_pair(draw)
        lhs = sum((k + 1) * v for k, v in enumerate(x))
        rhs = sum((k + 1) * v for k, v in enumerate(a))
        if lhs < rhs:
            bad.append({"x": tuple(x), "a": tuple(a)})
    return LemmaReport("ksum", {"trials": trials, "seed": seed}, trials, tuple(bad))


def verify_theorem1(n_max: int) -> LemmaReport:
    """Theorem 1: the closed form k_formula equals the enumerated K(n) for
    every n <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rows = length_rows(n_max) if n_max else []
    bad = [
        {"n": row.n, "enumerated": row.k, "formula": k_formula(row.n)}
        for row in rows
        if row.k != k_formula(row.n)
    ]
    return LemmaReport("theorem1", {"n_max": n_max}, len(rows), tuple(bad))


def subadditivity_check(n_max: int) -> LemmaReport:
    """kbar(i+j) <= kbar(i) + kbar(j) for all i+j <= n_max, exactly.

    The params also carry the least ratio kbar(n)/n over the computed range
    (an upper bound for its limit) as "num/den", and the n attaining it.
    """
    if not 2 <= n_max <= PACKED_LIMIT:
        raise ValueError(f"n_max must be in 2..{PACKED_LIMIT}, got {n_max}")
    rows = length_rows(n_max)
    kbar = {row.n: row.kbar for row in rows}
    pairs = [(i, total - i) for total in range(2, n_max + 1) for i in range(1, total // 2 + 1)]
    bad = [{"i": i, "j": j} for i, j in pairs if kbar[i + j] > kbar[i] + kbar[j]]
    best = min(rows, key=lambda row: (row.ratio, row.n))
    params = {
        "n_max": n_max,
        "min_ratio_n": best.n,
        "min_ratio": f"{best.ratio.numerator}/{best.ratio.denominator}",
    }
    return LemmaReport("subadditivity", params, len(pairs), tuple(bad))


def verify_counting_bound(n_max: int) -> LemmaReport:
    """x_k + x_{k-2} + ... <= a_k = C(n-1, k-1) 2^((n+k)/2) for every
    length n from COUNTING_MIN_N through n_max and every k up to K(n); one
    case per length and k, a counterexample names both.

    The parity-cumulated sum counts words splittable into exactly k
    palindromes (a short block can always be re-split into three), so it
    is the quantity the product bound a_k actually dominates; this needs
    the maximum below n/2, hence n >= 9.  The bound is tight at k = 1 for
    odd n, where x_1 = a_1.  Compared via squared integers.
    """
    if n_max < COUNTING_MIN_N:
        raise ValueError(f"the counting bound starts at n = {COUNTING_MIN_N}, got n_max = {n_max}")
    bad = []
    cases = 0
    for row in length_rows(n_max)[COUNTING_MIN_N - 1 :]:
        for k in range(1, row.k + 1):
            cases += 1
            cumulative = sum(row.counts.get(j, 0) for j in range(k, 0, -2))
            if cumulative * cumulative > a_bound_squared(row.n, k):
                bad.append({"n": row.n, "k": k})
    return LemmaReport("counting", {"n_range": f"{COUNTING_MIN_N}..{n_max}"}, cases, tuple(bad))


def standard_runs(
    ksum_trials: int = 10_000, seed: int = 42, max_n: int = 20
) -> dict[str, Callable[[], LemmaReport]]:
    """The claim suite in report order, keyed by ``verify`` target: the
    lemmas at their standard parameters, then the claims checked against
    the enumeration up to length max_n.  Each run starts only when called,
    and looks its checker up then."""
    return {
        "lemma1": lambda: verify_lemma1(8),
        "lemma2": lambda: verify_lemma2(),
        "lemma3": lambda: verify_lemma3(),
        "lemma4": lambda: verify_lemma4(),
        "lemma7": lambda: verify_lemma7(10),
        "lemma8": lambda: verify_lemma8(6),
        "lemma9": lambda: verify_lemma9(5),
        "ksum": lambda: ksum_property(ksum_trials, seed),
        "theorem1": lambda: verify_theorem1(max_n),
        "subadditivity": lambda: subadditivity_check(max_n),
        "counting": lambda: verify_counting_bound(max_n),
    }
