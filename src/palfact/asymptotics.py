"""Numeric machinery behind the bounds on the limit average ratio.

The limit of kbar(n)/n exists by subadditivity and lies strictly between
two computable constants.  The upper bound is the exact rational
kbar(21)/21; the lower bound is g(theta') where theta' is the unique root
of an entropy-style function f on (0, 1/3].  The counting skeleton is the
sequence a_k = C(n-1, k-1) 2^((n+k)/2), an upper bound on the number of
words expressible as a product of k palindromes; every comparison against
it is carried out on squared integers since n+k may be odd.

Everything here is stdlib arithmetic (``decimal`` for the critical points
of g), so only a scan for the n = 21 row, never this module, loads numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

__all__ = [
    "F_AT_ZERO",
    "UPPER_BOUND_EXACT",
    "CountingBounds",
    "AsymptoticsReport",
    "f_theta",
    "f_prime",
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


def f_prime(theta: float) -> float:
    """f'(theta) = (ln 2)/2 - ln theta + ln(1-theta); positive on (0, 1/3]."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return math.log(2) / 2 - math.log(theta) + math.log(1 - theta)


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


def _grid(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced points from ``start`` to ``stop``, the same
    floats as ``numpy.linspace``: i * step + start, the last one ``stop``."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def theta_prime(tolerance: float = 1e-10) -> float:
    """The unique root of f on (0, 1/3], by bisection: the result lies at or
    below the root and within ``tolerance`` of it.

    Monotonicity (f' > 0) is spot-checked on a sample grid so the
    bracketing argument actually applies.  Bisection also stops once the
    bracket is two adjacent floats, so a tolerance below their spacing
    cannot loop forever; the result is then the float just below the root.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    for theta in _grid(1e-6, 1 / 3, 101):
        if f_prime(theta) <= 0:
            raise ArithmeticError(f"f' is not positive at {theta}; bisection premise fails")
    lo, hi = 0.0, 1 / 3
    if not f_theta(lo) < 0 < f_theta(hi):
        raise ArithmeticError("f does not change sign on [0, 1/3]")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if f_theta(mid) < 0:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return mid if f_theta(mid) < 0 else lo


def g_prime_roots() -> tuple[float, float]:
    """The two real critical points of g, correctly rounded.

    Setting g'(x) = 0 and clearing the denominator (x^2 - 4x + 2)^2 gives
    the quartic

        (1+s) x^4 - 8 (1+s) x^3 + (20+10s) x^2 - (16+4s) x + 4 = 0,  s = sqrt(2),

    whose two real roots are the critical points, one in [0.2, 0.5] and
    one in [4, 8].  Each is bisected at 50 decimal digits to within
    10^-40, far below the spacing of floats there, then rounded to the
    nearest float and verified against g' directly.
    """
    roots = []
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(2).sqrt()
        coeffs = (1 + s, -8 * (1 + s), 20 + 10 * s, -(16 + 4 * s), 4)

        def quartic(x: Decimal) -> Decimal:
            return sum(c * x ** (4 - i) for i, c in enumerate(coeffs))

        for lo, hi in ((Decimal("0.2"), Decimal("0.5")), (Decimal(4), Decimal(8))):
            lo_negative = quartic(lo) < 0
            if lo_negative == (quartic(hi) < 0):
                raise ArithmeticError(f"the quartic does not change sign on [{lo}, {hi}]")
            while hi - lo > Decimal("1e-40"):
                mid = (lo + hi) / 2
                if (quartic(mid) < 0) == lo_negative:
                    lo = mid
                else:
                    hi = mid
            roots.append(float((lo + hi) / 2))
    for r in roots:
        if abs(g_prime(r)) > 1e-6:
            raise ArithmeticError(f"candidate critical point {r} does not annihilate g'")
    return roots[0], roots[1]


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
    tolerance: float

    @property
    def lower_text(self) -> str:
        return f"{self.g_at_theta_prime:.5f}"

    @property
    def upper_text(self) -> str:
        return f"{float(self.upper_bound):.4f}"


def bounds_report(avg_rows: Sequence, tolerance: float = 1e-10) -> AsymptoticsReport:
    """Assemble both bounds from enumeration data through length 21.

    ``avg_rows`` must contain the n=21 row (a ``LengthRow``, or any
    object with ``n`` and exact ``kbar``); the derived upper bound has to
    reproduce the pinned fraction exactly, otherwise the enumeration is
    broken and an ArithmeticError is raised.
    """
    row21 = next((row for row in avg_rows if row.n == 21), None)
    if row21 is None:
        raise ValueError("avg_rows must include the n=21 row")
    upper = Fraction(row21.kbar) / 21
    if upper != UPPER_BOUND_EXACT:
        raise ArithmeticError(
            f"enumerated upper bound {upper} differs from the pinned exact value {UPPER_BOUND_EXACT}"
        )
    tp = theta_prime(tolerance)
    return AsymptoticsReport(
        theta_prime=tp,
        g_at_theta_prime=g_theta(tp),
        g_prime_roots=g_prime_roots(),
        upper_bound=upper,
        f0=f_theta(0.0),
        tolerance=tolerance,
    )
