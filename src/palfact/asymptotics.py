"""Numeric machinery behind the bounds on the limit average ratio.

The limit of kbar(n)/n exists by subadditivity and lies strictly between
two computable constants.  The upper bound is the exact rational
kbar(21)/21; the lower bound is g(theta') where theta' is the unique root
of an entropy-style function f on (0, 1/3].  The counting skeleton is the
sequence a_k = C(n-1, k-1) 2^((n+k)/2), an upper bound on the number of
words expressible as a product of k palindromes; every comparison against
it is carried out on squared integers since n+k may be odd.

Everything here is stdlib arithmetic.  theta' and the critical points of
g come from one bisection in ``decimal`` and are correctly rounded, so
only a scan for the n = 21 row, never this module, loads numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable

from .rows import LengthRow

__all__ = [
    "F_AT_ZERO",
    "UPPER_BOUND_EXACT",
    "CountingBounds",
    "AsymptoticsReport",
    "f_theta",
    "g_theta",
    "g_prime",
    "theta_prime",
    "g_prime_roots",
    "a_bound_squared",
    "a_bound_float",
    "counting_bounds",
    "bounds_report",
]

F_AT_ZERO = -math.log(2) / 2

# Known exact value of kbar(21)/21; bounds_report recomputes it from the
# enumeration and treats any mismatch as an enumeration bug.
UPPER_BOUND_EXACT = Fraction(372487, 7 * 2**18)

SQRT2 = math.sqrt(2)


def f_theta(theta: float) -> float:
    """f(theta) = ((theta-1)/2) ln 2 - theta ln theta - (1-theta) ln(1-theta),
    continuously extended to f(0) = -(ln 2)/2."""
    if not 0 <= theta < 1:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if theta == 0:
        return F_AT_ZERO
    return ((theta - 1) / 2) * math.log(2) - theta * math.log(theta) - (1 - theta) * math.log(1 - theta)


def g_theta(theta: float) -> float:
    """g(theta) = theta - sqrt(2) theta^2 (1-theta) / (theta^2 - 4 theta + 2)."""
    den = theta * theta - 4 * theta + 2
    if abs(den) < 1e-12:
        raise ValueError(f"g is singular at theta = {theta}")
    return theta - SQRT2 * theta * theta * (1 - theta) / den


def g_prime(theta: float) -> float:
    """Closed-form derivative of g (quotient rule on the rational part)."""
    den = theta * theta - 4 * theta + 2
    if abs(den) < 1e-12:
        raise ValueError(f"g' is singular at theta = {theta}")
    num = theta * theta - theta**3
    num_d = 2 * theta - 3 * theta * theta
    den_d = 2 * theta - 4
    return 1 - SQRT2 * (num_d * den - num * den_d) / (den * den)


def _root(fn: Callable[[Decimal], Decimal], lo: Decimal, hi: Decimal) -> float:
    """The root of ``fn`` on [lo, hi], where ``fn`` changes sign, rounded to
    the nearest float.  The bracket is halved at the caller's ``decimal``
    precision until it is below 10^-40, far below the spacing of floats at
    either bound constant."""
    lo_negative = fn(lo) < 0
    if lo_negative == (fn(hi) < 0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > Decimal("1e-40"):
        mid = (lo + hi) / 2
        if (fn(mid) < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def theta_prime() -> float:
    """The unique root of f on (0, 1/3], correctly rounded.

    f(0) < 0 < f(1/3), and f'(theta) = (ln 2)/2 + ln((1-theta)/theta) > 0
    there, so the root is unique.  f is bisected at 50 decimal digits on
    [10^-30, 1/3], since ``Decimal.ln`` has no value at 0.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def f(t: Decimal) -> Decimal:
            return (t - 1) / 2 * ln2 - t * t.ln() - (1 - t) * (1 - t).ln()

        return _root(f, Decimal("1e-30"), Decimal(1) / 3)


def g_prime_roots() -> tuple[float, float]:
    """The two real critical points of g, correctly rounded.

    Setting g'(x) = 0 and clearing the denominator (x^2 - 4x + 2)^2 gives
    the quartic

        (1+s) x^4 - 8 (1+s) x^3 + (20+10s) x^2 - (16+4s) x + 4 = 0,  s = sqrt(2),

    whose two real roots are the critical points, one in [0.2, 0.5] and
    one in [4, 8].  Each is bisected at 50 decimal digits, then verified
    against g' directly.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(2).sqrt()
        coeffs = (1 + s, -8 * (1 + s), 20 + 10 * s, -(16 + 4 * s), 4)

        def quartic(x: Decimal) -> Decimal:
            return sum(c * x ** (4 - i) for i, c in enumerate(coeffs))

        roots = (_root(quartic, Decimal("0.2"), Decimal("0.5")), _root(quartic, Decimal(4), Decimal(8)))
    for r in roots:
        if abs(g_prime(r)) > 1e-6:
            raise ArithmeticError(f"candidate critical point {r} does not annihilate g'")
    return roots


def a_bound_squared(n: int, k: int) -> int:
    """The exact square of a_k = C(n-1, k-1) 2^((n+k)/2)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    c = math.comb(n - 1, k - 1)
    return c * c * (1 << (n + k))


def a_bound_float(n: int, k: int) -> float:
    """Float rendering of a_k (exact when n+k is even)."""
    return math.comb(n - 1, k - 1) * 2.0 ** ((n + k) / 2)


def _cumulative_le(acc_int: int, acc_half: int, limit: int) -> bool:
    """Exact test of acc_int + acc_half*sqrt(2) <= limit on integers."""
    rest = limit - acc_int
    if rest < 0:
        return False
    return 2 * acc_half * acc_half <= rest * rest


@dataclass(frozen=True)
class CountingBounds:
    """The bound sequence a_k, the ratio sequence delta_k, the threshold p
    where the cumulative a_k first passes 2^n, and theta_n = p/(n-1)."""

    n: int
    a: tuple[float, ...]  # a_1..a_n
    a_squared: tuple[int, ...]
    delta: tuple[float, ...]  # delta_1..delta_{n-1}
    p: int
    theta_n: float


def counting_bounds(n: int) -> CountingBounds:
    """Evaluate the counting skeleton at length n.

    The threshold p satisfies sum_{k<=p} a_k <= 2^n < sum_{k<=p+1} a_k,
    decided exactly by tracking the integer and sqrt(2) parts of the
    cumulative sum separately.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n < 9:
        warnings.warn(f"the counting bounds are asserted for n >= 9; n={n} is informational", stacklevel=2)
    a_sq = tuple(a_bound_squared(n, k) for k in range(1, n + 1))
    a_f = tuple(a_bound_float(n, k) for k in range(1, n + 1))
    delta = tuple(k / (SQRT2 * (n - k)) for k in range(1, n))
    limit = 1 << n
    acc_int = acc_half = 0
    p = None
    for k in range(1, n + 1):
        c = math.comb(n - 1, k - 1)
        if (n + k) % 2 == 0:
            acc_int += c << ((n + k) // 2)
        else:
            acc_half += c << ((n + k - 1) // 2)
        if not _cumulative_le(acc_int, acc_half, limit):
            p = k - 1
            break
    if not p:
        raise ArithmeticError(f"no threshold p found for n={n}")
    return CountingBounds(n=n, a=a_f, a_squared=a_sq, delta=delta, p=p, theta_n=p / (n - 1))


@dataclass(frozen=True)
class AsymptoticsReport:
    """Both bound constants with the ingredients that produce them."""

    theta_prime: float
    g_at_theta_prime: float
    g_prime_roots: tuple[float, float]
    upper_bound: Fraction
    f0: float

    @property
    def lower_text(self) -> str:
        return f"{self.g_at_theta_prime:.5f}"

    @property
    def upper_text(self) -> str:
        return f"{float(self.upper_bound):.4f}"


def bounds_report(row21: LengthRow) -> AsymptoticsReport:
    """Assemble both bounds from the enumeration row of length 21.

    ``row21`` is that ``LengthRow``, or any object with its exact
    ``kbar``; the derived upper bound has to reproduce the pinned fraction
    exactly, otherwise the enumeration is broken and an ArithmeticError is
    raised.
    """
    upper = Fraction(row21.kbar) / 21
    if upper != UPPER_BOUND_EXACT:
        raise ArithmeticError(
            f"enumerated upper bound {upper} differs from the pinned exact value {UPPER_BOUND_EXACT}"
        )
    tp = theta_prime()
    return AsymptoticsReport(
        theta_prime=tp,
        g_at_theta_prime=g_theta(tp),
        g_prime_roots=g_prime_roots(),
        upper_bound=upper,
        f0=f_theta(0.0),
    )
