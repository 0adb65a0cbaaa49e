"""Tests for Newstead polynomial values and Witten volumes.

Bernoulli numbers and the main-equality values are cross-checked with
sympy's bernoulli(), keeping the in-module recurrence independent.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.newstead import (
    NewsteadMonomial,
    bernoulli,
    conjecture_scan,
    n0,
    normalized_value,
    unnormalize,
    witten_volume,
)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


@pytest.mark.parametrize("n", range(0, 21))
def test_bernoulli_matches_sympy(n):
    ref = sympy.bernoulli(n)
    if n == 1:
        ref = sympy.Rational(-1, 2)  # pin the B_1 convention
    assert bernoulli(n) == Fraction(int(ref.p), int(ref.q))


def test_bernoulli_convolution_identity():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    from math import comb

    for m in range(1, 41):
        total = sum(Fraction(comb(m + 1, j)) * bernoulli(j) for j in range(m + 1))
        assert total == 0


# ---------------------------------------------------------------------------
# main equality values
# ---------------------------------------------------------------------------


def test_n0_frozen_values():
    assert n0(3, 0) == -8
    assert n0(3, 1) == Fraction(128, 3)
    assert n0(0, 0) == -1


def test_n0_kappa_zero_flag():
    # the kappa = 0 convention: -1, not the +1 of a unit normalization
    assert n0(0, 0) == -1
    assert conjecture_scan(9).kappa_zero_flagged == ((0, 0), (0, 1), (0, 2), (0, 3))


def test_n0_requires_divisible_alpha():
    with pytest.raises(ValueError):
        n0(2, 0)
    with pytest.raises(ValueError):
        n0(-3, 0)
    with pytest.raises(ValueError):
        n0(3, -1)


@given(st.integers(0, 6), st.integers(0, 6))
def test_n0_matches_sympy_formula(kappa, n):
    from math import factorial

    b = sympy.bernoulli(2 * kappa)
    expected = (
        Fraction(-4) ** (n + kappa)
        * Fraction(factorial(n + 3 * kappa), factorial(n + kappa + 1))
        * factorial(2 * kappa)
        * (4**kappa - 2)
        * Fraction(int(b.p), int(b.q))
    )
    assert n0(3 * kappa, n) == expected


def test_n0_never_zero():
    for kappa in range(6):
        for n in range(6):
            assert n0(3 * kappa, n) != 0


# ---------------------------------------------------------------------------
# monomials, reduction, unnormalization
# ---------------------------------------------------------------------------


def test_monomial_degree():
    assert NewsteadMonomial(3, 0, 0).degree == 3
    assert NewsteadMonomial(1, 1, 1).degree == 6
    assert NewsteadMonomial(0, 0, 2).degree == 6


def test_normalized_value_off_grading_is_zero():
    assert normalized_value(NewsteadMonomial(1, 0, 0)) == 0
    assert normalized_value(NewsteadMonomial(0, 1, 0)) == 0


def test_normalized_value_gamma_reduction():
    for a, b in [(3, 0), (4, 1), (6, 0), (5, 2)]:
        base = normalized_value(NewsteadMonomial(a, b, 0))
        for c in (1, 2, 3):
            assert normalized_value(NewsteadMonomial(a, b, c)) == base


def test_normalized_value_outside_family():
    with pytest.raises(ValueError):
        normalized_value(NewsteadMonomial(1, 4, 0))  # alpha < beta


def test_unnormalize_genus2():
    # N_2(alpha^3) = 2! * N^0(alpha^3) = -16
    assert unnormalize(2, NewsteadMonomial(3, 0, 0)) == -16


def test_unnormalize_degree_guard():
    with pytest.raises(ValueError):
        unnormalize(2, NewsteadMonomial(6, 0, 0))


def test_genus_recurrence():
    # N_g(gamma * z) = g * N_{g-1}(z), exact for representable monomials
    for a, b in [(3, 0), (4, 1), (6, 0), (7, 1), (5, 2)]:
        z = NewsteadMonomial(a, b, 0)
        g = z.degree // 3 + 1
        gz = NewsteadMonomial(a, b, 1)
        assert unnormalize(g + 1, gz) == (g + 1) * unnormalize(g, z)


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40)
def test_gamma_powers_never_change_n0(kappa, n, c):
    base = NewsteadMonomial(n + 3 * kappa, n, 0)
    lifted = NewsteadMonomial(n + 3 * kappa, n, c)
    assert normalized_value(lifted) == normalized_value(base)
    assert normalized_value(base) == n0(3 * kappa, n)


# ---------------------------------------------------------------------------
# Witten volumes
# ---------------------------------------------------------------------------


def test_witten_volume_frozen():
    assert witten_volume(2) == -8
    assert witten_volume(3) == -21504


def test_witten_volume_is_n0_top():
    for g in range(2, 9):
        assert witten_volume(g) == n0(3 * (g - 1), 0)


def test_witten_volume_sign_constant():
    # (-4)^kappa alternates and so does B_{2 kappa}; the product does not
    for g in range(2, 9):
        assert witten_volume(g) < 0


def test_witten_volume_genus_bound():
    with pytest.raises(ValueError):
        witten_volume(1)


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------


def test_conjecture_scan_clean():
    report = conjecture_scan(30)
    assert report.bound_holds
    assert report.zeros == ()
    assert report.entries > 0
    assert all(k == 0 for k, _ in report.kappa_zero_flagged)


def test_conjecture_scan_degree_guard():
    with pytest.raises(ValueError):
        conjecture_scan(31)
