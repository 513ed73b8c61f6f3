from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
    f_prime,
    f_theta,
    g_prime,
    g_prime_roots,
    g_theta,
    theta_prime,
)
from palfact.enumeration import palindrome_values
from palfact.factorization import reachable_k
from palfact.lemmas import k_formula
from palfact.rows import length_rows
from palfact.words import Word


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

    def test_derivative_positive_on_bracket(self):
        for theta in (1e-6, 0.01, 0.1, 0.2, 1 / 3):
            assert f_prime(theta) > 0

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for theta in (0.05, 0.1, 0.3):
            fd = (f_theta(theta + h) - f_theta(theta - h)) / (2 * h)
            assert abs(fd - f_prime(theta)) < 1e-5


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
        assert abs(theta_prime(1e-8) - 0.09488) < 1e-4

    def test_bracketing(self):
        root = theta_prime(1e-10)
        assert f_theta(root - 1e-6) < 0 < f_theta(root + 1e-6)

    def test_bracketing_at_ten_tolerances(self):
        tolerance = 1e-10
        root = theta_prime(tolerance)
        eps = 10 * tolerance
        assert f_theta(root - eps) < 0 < f_theta(root + eps)

    def test_g_at_root(self):
        assert abs(g_theta(theta_prime(1e-10)) - 0.08781) < 1e-4

    def test_in_open_interval(self):
        root = theta_prime(1e-10)
        assert 0 < root < 1 / 3

    def test_tolerance_validation(self):
        for tolerance in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                theta_prime(tolerance)

    def test_tolerance_below_float_spacing_terminates(self):
        # Adjacent floats near theta' are ~1e-17 apart, so hi - lo can never
        # fall below 1e-300; the bisection must stop on a collapsed bracket.
        root = theta_prime(1e-300)
        assert abs(root - theta_prime(1e-15)) <= 1e-15
        assert abs(root - theta_prime(1e-10)) <= 1e-10

    def test_monotonicity_grid_is_linspace(self, monkeypatch):
        # The premise check samples f' in plain Python at numpy's points.
        seen = []
        monkeypatch.setattr(asymptotics, "f_prime", lambda theta: seen.append(theta) or f_prime(theta))
        theta_prime(1e-10)
        grid = np.linspace(1e-6, 1 / 3, 101)
        assert len(seen) == grid.size
        for got, want in zip(seen, grid):
            assert type(got) is float and got == want

    def test_premise_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "f_prime", lambda theta: -1.0 if theta == 1 / 3 else f_prime(theta))
        with pytest.raises(ArithmeticError, match="premise"):
            theta_prime(1e-10)


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
        tp = theta_prime(1e-10)
        assert g_theta(tp) == min(g_theta(tp), g_theta(1 / 3))


class TestDecimalOracle:
    """The bound constants against bisection at 50 decimal digits."""

    def test_theta_prime_and_lower_bound(self):
        theta, lower, _ = decimal_bound_constants()
        tolerance = 1e-10
        tp = theta_prime(tolerance)
        assert abs(Decimal(tp) - theta) <= Decimal(tolerance)
        assert abs(Decimal(g_theta(tp)) - lower) <= Decimal(tolerance)

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5])
    def test_coarse_tolerance_stays_below_the_root(self, tolerance):
        # g increases on (0, 0.3125), so a theta above the root would print
        # a lower bound above the paper's g(theta')
        theta, lower, _ = decimal_bound_constants()
        tp = theta_prime(tolerance)
        assert theta - Decimal(tolerance) <= Decimal(tp) <= theta
        assert Decimal(g_theta(tp)) <= lower

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
def rows():
    return length_rows(21)


class TestBoundsReport:
    def test_exact_upper_bound(self, rows):
        report = bounds_report(rows)
        assert report.upper_bound == UPPER_BOUND_EXACT == Fraction(372487, 7 * 2**18)
        assert report.upper_text == "0.2030"

    def test_lower_bound(self, rows):
        report = bounds_report(rows)
        assert abs(report.g_at_theta_prime - 0.08781) < 1e-4
        assert report.lower_text == "0.08781"
        assert report.g_at_theta_prime < float(report.upper_bound)

    def test_f0_reported(self, rows):
        assert bounds_report(rows).f0 == F_AT_ZERO

    def test_missing_row_rejected(self, rows):
        with pytest.raises(ValueError):
            bounds_report([row for row in rows if row.n != 21])

    def test_wrong_enumeration_hard_fails(self):
        class FakeRow:
            n = 21
            kbar = Fraction(1, 2)

        with pytest.raises(ArithmeticError):
            bounds_report([FakeRow()])
