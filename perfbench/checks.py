"""Output checks for the palfact benchmark.

Each check takes what one command printed and returns a list of problems;
an empty list means the output is right.  Expected values are pinned here
or computed by the small oracles below, never by palfact itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

# K(1..30) and the number of words of each length attaining it.
K_TABLE = (1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 8, 9, 9, 10, 10, 10, 10, 11)
MAXIMIZER_COUNTS = (
    2, 2, 4, 12, 24, 12, 28, 4, 16, 60, 4, 24, 140, 2, 32,
    230, 1112, 36, 332, 4, 56, 542, 3572, 50, 712, 2, 64, 958, 8696, 50,
)
# kbar(n) = S(n)/2^n to two decimals, n = 1..21, and S(21) exactly.
KBAR_TEXT = (
    "1.00", "1.50", "1.50", "1.75", "1.75", "2.06", "2.09", "2.33", "2.46", "2.61", "2.75",
    "2.91", "3.05", "3.20", "3.36", "3.50", "3.66", "3.81", "3.96", "4.11", "4.26",
)
S_21 = 8939688
UPPER_EXACT = {"num": 372487, "den": "7*2^18"}
THETA_PRIME = 0.0948820786
LOWER_BOUND = 0.0878100985
VERIFY_CLAIMS = frozenset(
    ("lemma1", "lemma2", "lemma3", "lemma4", "lemma7", "lemma8", "lemma9",
     "ksum", "theorem1", "subadditivity", "counting")
)

SEED = "aabab"
BLOCK = "bbaaba"
V_TAIL = "bbaaababb"
# m(aabab (bbaaba)^t p) = 2t + M_SUFFIX[len(p)] for t >= 1 and p a proper prefix of bbaaba.
M_SUFFIX = (2, 3, 3, 3, 4, 4)


def closed_form(n: int) -> int:
    """floor(n/6) + floor((n+4)/6) + 1, without the n = 11 exception."""
    return n // 6 + (n + 4) // 6 + 1


def m_oracle(word: str) -> int:
    """Least number of palindromic blocks, by the quadratic prefix DP."""
    n = len(word)
    best = [0] + [n + 1] * n
    for j in range(1, n + 1):
        for i in range(j):
            piece = word[i:j]
            if piece == piece[::-1] and best[i] + 1 < best[j]:
                best[j] = best[i] + 1
    return best[n]


def family_word(kind: str, n: int) -> tuple[str, int]:
    """A word of the W/U/V families with its known measure.

    W(n) = aabab(bbaaba)^n, U(n) its length-n prefixes, V(n) = W(n) bbaaababb.
    The measures hold for W with n >= 1, U with n >= 11 and V with n >= 0.
    """
    if kind == "W":
        return SEED + BLOCK * n, 2 * n + 2
    if kind == "V":
        return SEED + BLOCK * n + V_TAIL, 2 * n + 6
    t, r = divmod(n - len(SEED), len(BLOCK))
    return (SEED + BLOCK * (t + 1))[:n], 2 * t + M_SUFFIX[r]


def _json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except ValueError:
        problems.append("output is not JSON")
        return None


def kmax_csv(text: str, n_max: int = 30) -> list[str]:
    """``--format csv kmax --max-n N``: the pinned K table and maximizer counts;
    K equals the closed form everywhere except n = 11."""
    lines = text.splitlines()
    if not lines or lines[0] != "n,K,maximizer_count":
        return ["missing csv header"]
    expected = [f"{n},{K_TABLE[n - 1]},{MAXIMIZER_COUNTS[n - 1]}" for n in range(1, n_max + 1)]
    problems = [f"row {want!r} printed as {got!r}" for want, got in zip(expected, lines[1:]) if want != got]
    if len(lines) - 1 != n_max:
        problems.append(f"{len(lines) - 1} rows, expected {n_max}")
    for n in range(1, n_max + 1):
        if (K_TABLE[n - 1] == closed_form(n)) != (n != 11):
            problems.append(f"closed form disagrees with K({n}) where it should not")
    return problems


def verify_all(text: str, n_max: int) -> list[str]:
    """``--format json verify all``: every claim passes with nonzero cases."""
    problems: list[str] = []
    reports = _json(text, problems)
    if not isinstance(reports, list):
        return problems or ["verify output is not a list"]
    seen = set()
    for rep in reports:
        name = rep.get("lemma")
        seen.add(name)
        cases = rep.get("params", {}).get("cases")
        if rep.get("verdict") != "pass" or rep.get("counterexamples"):
            problems.append(f"{name}: verdict {rep.get('verdict')!r}")
        if not isinstance(cases, int) or cases <= 0:
            problems.append(f"{name}: {cases!r} cases")
    if seen != VERIFY_CLAIMS:
        problems.append(f"claims {sorted(map(str, seen))}, expected {sorted(VERIFY_CLAIMS)}")
    theorem = [rep for rep in reports if rep.get("lemma") == "theorem1"]
    if theorem and theorem[0].get("params", {}).get("n_max") != n_max:
        problems.append("theorem1 checked the wrong range")
    return problems


def worst(text: str, n: int) -> list[str]:
    """``--format json worst --n N``: K(N), and orbits of words that each
    attain it, closed under reversal and letter swap, covering every maximizer."""
    problems: list[str] = []
    doc = _json(text, problems)
    if not isinstance(doc, dict):
        return problems or ["worst output is not an object"]
    k = K_TABLE[n - 1]
    if doc.get("n") != n or doc.get("K") != k:
        problems.append(f"n, K = {doc.get('n')}, {doc.get('K')}; expected {n}, {k}")
    orbits = doc.get("orbits") or []
    total = 0
    for orb in orbits:
        words = orb.get("words", [])
        total += len(words)
        swap = str.maketrans("ab", "ba")
        closed = {w[::-1] for w in words} | {w.translate(swap) for w in words}
        if words != sorted(words) or orb.get("representative") != words[0] or orb.get("size") != len(words):
            problems.append(f"malformed orbit {orb.get('representative')!r}")
        if not closed <= set(words):
            problems.append(f"orbit {orb.get('representative')!r} is not closed under the symmetries")
        problems += [f"m({w}) = {m_oracle(w)}, not {k}" for w in words if len(w) != n or m_oracle(w) != k]
    if total != MAXIMIZER_COUNTS[n - 1]:
        problems.append(f"{total} maximizers listed, expected {MAXIMIZER_COUNTS[n - 1]}")
    return problems


def kbar(text: str, n_max: int) -> tuple[list[str], int | None]:
    """``--format json kbar --max-n N``: consistent exact rows, the pinned
    two-decimal averages and S(21).  Also returns S(N) for later checks."""
    problems: list[str] = []
    rows = _json(text, problems)
    if not isinstance(rows, list) or [r.get("n") for r in rows] != list(range(1, n_max + 1)):
        return problems or ["kbar rows are not n = 1..N"], None
    for row in rows:
        n, s = row["n"], row.get("S")
        if not isinstance(s, int) or Fraction(row.get("kbar_num", 0), 1 << row.get("kbar_den_pow2", 0)) != Fraction(s, 1 << n):
            problems.append(f"kbar({n}) disagrees with S({n})")
        if n <= len(KBAR_TEXT) and row.get("kbar_decimal") != KBAR_TEXT[n - 1]:
            problems.append(f"kbar({n}) = {row.get('kbar_decimal')}, expected {KBAR_TEXT[n - 1]}")
    if n_max >= 21 and rows[20].get("S") != S_21:
        problems.append(f"S(21) = {rows[20].get('S')}, expected {S_21}")
    return problems, rows[-1].get("S")


def histogram(text: str, n: int, s_n: int | None) -> list[str]:
    """``--format json histogram --n N``: counts summing to 2^N, the top count
    at K(N), and the same S(N) that kbar printed."""
    problems: list[str] = []
    doc = _json(text, problems)
    if not isinstance(doc, dict) or not isinstance(doc.get("counts"), dict):
        return problems or ["histogram output has no counts"]
    counts = {int(k): v for k, v in doc["counts"].items()}
    if doc.get("n") != n or sum(counts.values()) != 1 << n:
        problems.append(f"histogram of n = {doc.get('n')} sums to {sum(counts.values())}, not 2^{n}")
    if max(counts, default=0) != K_TABLE[n - 1] or counts.get(K_TABLE[n - 1]) != MAXIMIZER_COUNTS[n - 1]:
        problems.append("histogram top bin disagrees with the K table")
    if s_n is not None and sum(k * v for k, v in counts.items()) != s_n:
        problems.append(f"histogram gives S({n}) = {sum(k * v for k, v in counts.items())}, kbar gave {s_n}")
    return problems


def bounds(text: str) -> list[str]:
    """``--format json bounds``: the exact upper bound 372487/(7*2^18) and
    the two numeric constants."""
    problems: list[str] = []
    doc = _json(text, problems)
    if not isinstance(doc, dict):
        return problems or ["bounds output is not an object"]
    if doc.get("upper_exact") != UPPER_EXACT:
        problems.append(f"upper_exact = {doc.get('upper_exact')}, expected {UPPER_EXACT}")
    for key, want in (("theta_prime", THETA_PRIME), ("lower", LOWER_BOUND), ("upper", 372487 / (7 * 2**18))):
        got = doc.get(key)
        if not isinstance(got, float) or abs(got - want) > 1e-9:
            problems.append(f"{key} = {got!r}, expected {want}")
    return problems


def factor(word: str, known: tuple[str, int] | None, text: str) -> list[str]:
    """``--format json factor WORD``: the witness is a list of palindromes
    that concatenates to the word, with consistent cuts and m; m matches
    ``known`` = ("eq", m) or ("le", bound) where the measure is known."""
    problems: list[str] = []
    doc = _json(text, problems)
    if not isinstance(doc, dict):
        return problems or ["factor output is not an object"]
    m, blocks, cuts = doc.get("m"), doc.get("blocks"), doc.get("cuts")
    if doc.get("word") != word:
        problems.append("echoed word differs from the input")
    if not isinstance(blocks, list) or "".join(blocks) != word:
        return problems + ["blocks do not concatenate to the word"]
    if any(not b or b != b[::-1] for b in blocks):
        problems.append("a block is not a nonempty palindrome")
    bounds_ = [0]
    for b in blocks:
        bounds_.append(bounds_[-1] + len(b))
    if m != len(blocks) or cuts != bounds_:
        problems.append(f"m = {m!r} and cuts disagree with {len(blocks)} blocks")
    if known is not None:
        relation, value = known
        if (relation == "eq" and m != value) or (relation == "le" and not (isinstance(m, int) and m <= value)):
            problems.append(f"m = {m!r}, expected {'' if relation == 'eq' else '<= '}{value}")
    return problems
