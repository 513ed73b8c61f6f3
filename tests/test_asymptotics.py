from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from oracles import decimal_bound_constants

from palfact import asymptotics
from palfact.asymptotics import (
    F_AT_ZERO,
    UPPER_BOUND_EXACT,
    a_bound_float,
    a_bound_squared,
    bounds_report,
    counting_bounds,
    f_theta,
    g_prime,
    g_prime_roots,
    g_theta,
    theta_prime,
)
from palfact.enumeration import palindrome_values
from palfact.factorization import reachable_k
from palfact.lemmas import k_formula
from palfact.rows import length_row
from palfact.words import Word


def f_derivative(theta: float) -> float:
    return math.log(2) / 2 + math.log((1 - theta) / theta)


class TestF:
    def test_value_at_zero(self):
        assert abs(f_theta(0.0) - (-0.346574)) < 1e-6
        assert f_theta(0.0) == F_AT_ZERO == -math.log(2) / 2

    def test_limit_is_continuous(self):
        assert abs(f_theta(1e-9) - F_AT_ZERO) < 1e-6

    def test_positive_at_one_third(self):
        val = f_theta(1 / 3)
        assert abs(val - 0.405465) < 1e-5
        assert val > 0

    def test_near_root(self):
        assert abs(f_theta(0.09488)) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            f_theta(-0.1)
        with pytest.raises(ValueError):
            f_theta(1.0)

    # theta_prime's uniqueness argument: f' = (ln 2)/2 + ln((1-theta)/theta).
    def test_derivative_positive_on_bracket(self):
        for theta in (1e-6, 0.01, 0.1, 0.2, 1 / 3):
            assert f_derivative(theta) > 0

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for theta in (0.05, 0.1, 0.3):
            fd = (f_theta(theta + h) - f_theta(theta - h)) / (2 * h)
            assert abs(fd - f_derivative(theta)) < 1e-5


class TestG:
    def test_zero_at_zero(self):
        assert g_theta(0.0) == 0.0

    def test_value_near_root_of_f(self):
        assert abs(g_theta(0.09488) - 0.08781) < 5e-5

    def test_value_at_one_third(self):
        assert abs(g_theta(1 / 3) - 0.199) < 1e-3

    def test_singularity_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            g_theta(2 - math.sqrt(2))

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for x in (0.05, 0.2, 0.31, 1.0, 5.0):
            fd = (g_theta(x + h) - g_theta(x - h)) / (2 * h)
            assert abs(fd - g_prime(x)) < 1e-4


class TestThetaPrime:
    def test_matches_published_digits(self):
        assert abs(theta_prime() - 0.09488) < 1e-4

    def test_bracketing(self):
        root = theta_prime()
        assert f_theta(root - 1e-6) < 0 < f_theta(root + 1e-6)

    def test_g_at_root(self):
        assert abs(g_theta(theta_prime()) - 0.08781) < 1e-4

    def test_in_open_interval(self):
        root = theta_prime()
        assert 0 < root < 1 / 3

    def test_premise_failure_is_reported(self):
        # Bisection needs a sign change on the bracket.
        with localcontext() as ctx:
            ctx.prec = 50
            with pytest.raises(ArithmeticError, match="no sign change on"):
                asymptotics._root(lambda t: t * t - Decimal(2), Decimal(-1), Decimal(1))
            assert asymptotics._root(lambda t: t * t - Decimal(2), Decimal(0), Decimal(2)) == math.sqrt(2)


class TestGPrimeRoots:
    def test_published_locations(self):
        x1, x2 = g_prime_roots()
        assert abs(x1 - 0.313) < 5e-3
        assert abs(x2 - 5.83) < 5e-2

    def test_g_increases_then_decreases_on_the_bracket(self):
        x1, _ = g_prime_roots()
        assert g_theta(0.1) < g_theta(0.3)  # rising before x1
        assert g_theta(x1) > g_theta(1 / 3)  # falling after x1

    def test_minimum_on_bracket_is_at_theta_prime(self):
        tp = theta_prime()
        assert g_theta(tp) == min(g_theta(tp), g_theta(1 / 3))


class TestDecimalOracle:
    """The bound constants against bisection at 50 decimal digits."""

    def test_theta_prime_and_lower_bound(self):
        theta, lower, _ = decimal_bound_constants()
        tp = theta_prime()
        assert (tp, g_theta(tp)) == (float(theta), float(lower))

    def test_theta_prime_is_correctly_rounded(self):
        theta, _, _ = decimal_bound_constants()
        assert theta_prime() == float(theta)

    def test_g_prime_roots(self):
        _, _, roots = decimal_bound_constants()
        for got, want in zip(g_prime_roots(), roots):
            assert abs(Decimal(got) - want) <= Decimal("1e-12")

    def test_g_prime_roots_are_correctly_rounded(self):
        _, _, roots = decimal_bound_constants()
        assert g_prime_roots() == tuple(float(root) for root in roots)


class TestCountingBounds:
    def test_n9_threshold(self):
        cb = counting_bounds(9)
        assert cb.p == 2
        assert cb.theta_n == 0.25
        assert cb.a[0] == 32.0
        assert abs(cb.a[1] - 362.038672) < 1e-5
        assert cb.a[2] == 1792.0

    def test_threshold_inequalities_exact(self):
        # sum_{k<=p} a_k <= 2^n < sum_{k<=p+1} a_k, via squared integers
        for n in range(9, 18):
            cb = counting_bounds(n)
            acc_int = acc_half = 0
            for k in range(1, cb.p + 2):
                c = math.comb(n - 1, k - 1)
                if (n + k) % 2 == 0:
                    acc_int += c << ((n + k) // 2)
                else:
                    acc_half += c << ((n + k - 1) // 2)
                if k == cb.p:
                    assert (1 << n) - acc_int >= 0
                    assert 2 * acc_half**2 <= ((1 << n) - acc_int) ** 2
            over = (1 << n) - acc_int
            assert over < 0 or 2 * acc_half**2 > over**2

    def test_delta_example(self):
        cb = counting_bounds(10)
        assert abs(cb.delta[1] - 2 / (math.sqrt(2) * 8)) < 1e-12

    def test_delta_strictly_increasing(self):
        cb = counting_bounds(15)
        for lo, hi in zip(cb.delta, cb.delta[1:]):
            assert lo < hi

    def test_delta_below_inverse_sqrt2_up_to_k_max(self):
        for n in range(9, 17):
            cb = counting_bounds(n)
            for k in range(1, k_formula(n) + 1):
                assert cb.delta[k - 1] < 1 / math.sqrt(2)

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            counting_bounds(5)

    def test_a_bound_consistency(self):
        for n in (9, 12):
            for k in range(1, n + 1):
                assert abs(a_bound_float(n, k) ** 2 - a_bound_squared(n, k)) < 1e-6 * a_bound_squared(n, k)


class TestProductsOfKPalindromes:
    def test_palindrome_count_of_length_5(self):
        assert palindrome_values(5).size == 8 == 2**3

    def test_reachable_counts_below_a_bound(self):
        # exact count of words that are products of exactly k palindromes
        for n in (9, 10, 11):
            counts = [0] * (n + 1)
            for bits in range(1 << n):
                for k in reachable_k(Word(bits, n), n):
                    counts[k] += 1
            for k in range(1, n + 1):
                assert counts[k] ** 2 <= a_bound_squared(n, k)


@pytest.fixture(scope="module")
def row21():
    return length_row(21)


class TestBoundsReport:
    def test_exact_upper_bound(self, row21):
        report = bounds_report(row21)
        assert report.upper_bound == UPPER_BOUND_EXACT == Fraction(372487, 7 * 2**18)
        assert report.upper_text == "0.2030"

    def test_lower_bound(self, row21):
        report = bounds_report(row21)
        assert abs(report.g_at_theta_prime - 0.08781) < 1e-4
        assert report.lower_text == "0.08781"
        assert report.g_at_theta_prime < float(report.upper_bound)

    def test_f0_reported(self, row21):
        assert bounds_report(row21).f0 == F_AT_ZERO

    def test_wrong_enumeration_hard_fails(self):
        class FakeRow:
            n = 21
            kbar = Fraction(1, 2)

        with pytest.raises(ArithmeticError):
            bounds_report(FakeRow())
