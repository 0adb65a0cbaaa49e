"""Newstead polynomial values in exact rational arithmetic.

The normalized form N^0 lives on monomials alpha^a beta^b gamma^c with
deg = a + 2b + 3c; gamma acts trivially on N^0 and alpha*beta = omega
reduces everything to the two-parameter family N^0(alpha^{3k} omega^n),
evaluated by the closed main equality with Bernoulli numbers.  The
kappa = 0 specialization evaluates to -1 rather than the +1 a unit
normalization would suggest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .su2reps import _check_int

_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n):
    """Bernoulli number B_n, exact, with the B_1 = -1/2 convention."""
    _check_int(n, "index")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        total = sum(comb(m + 1, j) * _BERNOULLI[j] for j in range(m))
        _BERNOULLI.append(-total / (m + 1))
    return _BERNOULLI[n]


def n0(a, n):
    """N^0(alpha^a omega^n) as an exact rational."""
    if _check_int(a, "alpha exponent") % 3:
        raise ValueError("alpha exponent must be a multiple of 3")
    _check_int(n, "omega exponent")
    kappa = a // 3
    return (
        Fraction(-4) ** (n + kappa)
        * Fraction(factorial(n + 3 * kappa), factorial(n + kappa + 1))
        * factorial(2 * kappa)
        * (4**kappa - 2)
        * bernoulli(2 * kappa)
    )


@dataclass(frozen=True)
class NewsteadMonomial:
    """Exponents of alpha^a beta^b gamma^c with deg = a + 2b + 3c."""

    alpha: int
    beta: int
    gamma: int = 0

    def __post_init__(self):
        for x in (self.alpha, self.beta, self.gamma):
            _check_int(x, "exponent")

    @property
    def degree(self):
        return self.alpha + 2 * self.beta + 3 * self.gamma

    def reduced(self):
        """Omega form (3*kappa, n) after dropping gamma; needs alpha >= beta."""
        if self.alpha < self.beta:
            raise ValueError(
                "alpha < beta is outside the omega-reduced family; the "
                "Newstead conjecture predicts zero but no value is computed"
            )
        return self.alpha - self.beta, self.beta


def normalized_value(monomial):
    """N^0 on a monomial: zero off the 3Z grading, gamma dropped."""
    if monomial.degree % 3:
        return Fraction(0)
    a, n = monomial.reduced()
    return n0(a, n)


def unnormalize(g, monomial):
    """N_g = g! * N^0 on a monomial of degree exactly 3g-3."""
    _check_int(g, "genus", 1)
    if monomial.degree != 3 * g - 3:
        raise ValueError(
            f"degree {monomial.degree} does not match 3g-3 = {3 * g - 3}"
        )
    return factorial(g) * normalized_value(monomial)


def witten_volume(g):
    """vol(M_g^ss) = N^0(alpha^(3g-3)); negative for every g >= 2."""
    _check_int(g, "genus", 2)
    return n0(3 * (g - 1), 0)


@dataclass(frozen=True)
class ConjectureReport:
    """Scan of the reduced family against the Newstead bound."""

    max_degree: int
    entries: int
    bound_holds: bool
    zeros: tuple
    kappa_zero_flagged: tuple


def conjecture_scan(max_deg):
    """Check N^0(alpha^m beta^k) != 0 => k <= (m+2k)/3 on all values.

    In reduced coordinates the monomial alpha^{3 kappa} omega^n is
    alpha^{n+3 kappa} beta^n, so the bound reads n <= n + kappa and can
    only fail for a negative kappa; the scan also records zero values
    (none occur: 4^kappa - 2 and B_{2 kappa} never vanish together with
    the factorials) and the kappa = 0 convention cases.
    """
    _check_int(max_deg, "degree bound")
    if max_deg > 30:
        raise ValueError("scan supported up to degree 30")
    zeros = []
    flagged = []
    entries = 0
    bound_holds = True
    for kappa in range(max_deg // 3 + 1):
        for n in range(max_deg // 3 - kappa + 1):
            entries += 1
            value = n0(3 * kappa, n)
            m, k = n + 3 * kappa, n
            if value != 0 and not 3 * k <= m + 2 * k:
                bound_holds = False
            if value == 0:
                zeros.append((kappa, n))
            if kappa == 0:
                flagged.append((kappa, n))
    return ConjectureReport(max_deg, entries, bound_holds, tuple(zeros), tuple(flagged))
