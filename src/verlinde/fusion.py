"""SU(2) level-k fusion ring and Verlinde numbers.

Labels are twice-spin integers 0..k.  Fusion is the Clebsch-Gordan
decomposition truncated by the level; equivalently the quotient of the
representation ring by the ideal generated by the label k+1, which
ideal_check verifies symbolically.  The exact rank of a block space is an
integer product of fusion matrices with powers of the handle operator
H = sum_a N_a^2.  Verlinde numbers come out of three routes (character
sums, the trigonometric closed form, and weight counts) and every call
checks its route against that exact rank: the weight count exactly, the
float routes within a derived forward-error bound.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import multi_theta
from .su2reps import _check_label, check_labels, check_level
from .weights import InvariantViolation, count_weights


def clebsch_gordan(n1, n2):
    """Labels in V_{n1} (x) V_{n2}, descending from n1+n2 to |n1-n2|."""
    if n1 < 0 or n2 < 0:
        raise ValueError("labels must be nonnegative")
    return list(range(n1 + n2, abs(n1 - n2) - 1, -2))


def fuse(k, n1, n2):
    """Level-k fusion product, descending label list."""
    check_level(k)
    check_labels(k, (n1, n2))
    top = n1 + n2 if n1 + n2 <= k else 2 * k - n1 - n2
    return list(range(top, abs(n1 - n2) - 1, -2))


@dataclass(frozen=True)
class FusionRing:
    """Structure constants N^c_ab of the level-k fusion ring."""

    level: int

    def __post_init__(self):
        check_level(self.level)

    @property
    def labels(self):
        return tuple(range(self.level + 1))

    def N(self, a, b, c):
        check_labels(self.level, (a, b, c))
        return _fusion_matrices(self.level)[0][a][b][c]

    def fuse(self, a, b):
        return fuse(self.level, a, b)

    def multiplication_rows(self):
        """Rows (a, b, c1 c2 ...) of the multiplication table."""
        rows = []
        for a, b in itertools.combinations_with_replacement(self.labels, 2):
            rows.append((a, b, " ".join(str(c) for c in fuse(self.level, a, b))))
        return rows


# -- rank functionals ---------------------------------------------------------


@lru_cache(maxsize=None)
def _fusion_matrices(k):
    # N_a[b][c] = N^c_ab as int lists, and the handle operator H = sum_a N_a^2
    n = k + 1
    mats = []
    for a in range(n):
        m = [[0] * n for _ in range(n)]
        for b in range(n):
            for c in fuse(k, a, b):
                m[b][c] = 1
        mats.append(m)
    handle = [[0] * n for _ in range(n)]
    for a in range(n):
        for i in range(n):
            for x in fuse(k, a, i):
                for j in fuse(k, a, x):
                    handle[i][j] += 1
    return mats, handle


def _row_times(row, m):
    out = [0] * len(row)
    for x, line in zip(row, m):
        if x:
            for j, y in enumerate(line):
                out[j] += x * y
    return out


def rk(g, N, k):
    """Rank of the conformal block space: genus g, boundary labels N.

    Equal to (H^g N_{n_1} ... N_{n_r})_{00} with H = sum_a N_a^2 the
    handle operator: each handle glues a label and its dual, each
    boundary label fuses in, and the unit channel is read off at the end.
    """
    check_level(k)
    if isinstance(g, bool) or not isinstance(g, int) or g < 0:
        raise ValueError("genus must be a nonnegative integer")
    labels = tuple(N)
    check_labels(k, labels)
    mats, handle = _fusion_matrices(k)
    row = [1] + [0] * k
    for _ in range(g):
        row = _row_times(row, handle)
    for n in labels:
        row = _row_times(row, mats[n])
    return row[0]


# -- characters ---------------------------------------------------------------


def character(k, n, m):
    """chi_n(m) = sin((m+1) n pi/(k+2)) / sin(n pi/(k+2))."""
    check_level(k)
    _check_label(n)
    if not 1 <= n <= k + 1:
        raise ValueError(f"character index must lie in 1..{k + 1}")
    check_labels(k, (m,))
    theta = n * math.pi / (k + 2)
    return math.sin((m + 1) * theta) / math.sin(theta)


def chi_c(k, n):
    """Casimir character value (k+2) / (2 sin^2(n pi/(k+2)))."""
    check_level(k)
    _check_label(n)
    if not 1 <= n <= k + 1:
        raise ValueError(f"character index must lie in 1..{k + 1}")
    return (k + 2) / (2.0 * math.sin(n * math.pi / (k + 2)) ** 2)


# -- Verlinde numbers ---------------------------------------------------------


RouteWitness = namedtuple("RouteWitness", "g k route value exact bound")

# forward-error growth per factor of the power, in units of (k+2) eps; see
# verlinde_route for the derivation
_ERROR_SLOPE = {"characters": 8, "closed": 3}


class UnresolvedRoute(Exception):
    """A float route whose error bound is too wide to pin down the integer.

    The route agrees with the exact rank within its bound, but the bound
    is at least 1/2, so the route does not determine the Verlinde number.
    `witness` is the RouteWitness; `witness.exact` is the exact value.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def verlinde_route(g, k, via):
    """Route value of the Verlinde number and its forward-error bound.

    `weights` counts admissible weights on the genus-g multi-theta graph:
    an exact integer, bound 0.  The float routes sum k+1 positive terms
    T_n = S_n^(g-1), with S_n = sum_m chi_n(m)^2 (`characters`) or
    S_n = chi_c(k, n) (`closed`); the bound is

        eps * ((g-1) * c * (k+2) + 3/2) * sum_n |T_n|,

    eps = 2u the machine epsilon, c = 8 for characters and 3 for closed.

    Derivation, to first order in the unit roundoff u = eps/2 (the
    neglected terms are smaller by a factor of about (g-1) c (k+2) eps).
    Both routes evaluate theta = n*pi/(k+2) with relative error 3u (pi,
    the product, the quotient).  At the nodes theta_n, |theta cot theta|
    <= k+1, and in exact arithmetic d ln S/d theta = -2 cot theta for the
    closed form and -3 cot theta for the character sum.

    closed: theta moves S_n by 6(k+1)u; the sine's 1 ulp (2u) becomes 4u
    in the square; squaring and dividing into k+2 add u each.  Relative
    error of S_n: 6(k+2)u = 3(k+2) eps.

    characters: theta moves S_n by 9(k+1)u.  The argument (m+1)*theta
    adds u, so sin((m+1) theta) is off by (m+1) theta u absolutely, plus
    its 1 ulp.  Divided by sin theta and weighted by 2|chi_n(m)| in the
    sum of squares, Cauchy-Schwarz against sum_m (m+1)^2, with
    sin^2 theta_n = (k+2) / (2 S_n), bounds the first part by
    2 pi sqrt((k+1)(2k+3)/3) u S_n <= 5.2(k+1.25) u S_n.  The two sines'
    ulps (4u each), the quotient (2u), the square and fsum (u each) add
    12u S_n.  Total: (14.2k + 27.5)u <= 16(k+2)u = 8(k+2) eps.

    Both: pow multiplies the relative error by g-1 and adds 1 ulp, and
    fsum rounds the total once (u).  Against positive terms this sums to
    the bound above.
    """
    check_level(k)
    if isinstance(g, bool) or not isinstance(g, int) or g < 1:
        raise ValueError("genus must be an integer >= 1")
    if via == "weights":
        if g < 2:
            raise ValueError("the weights route needs genus >= 2")
        return count_weights(multi_theta(g), k), 0.0
    if via == "characters":
        terms = [
            math.fsum(character(k, n, m) ** 2 for m in range(k + 1)) ** (g - 1)
            for n in range(1, k + 2)
        ]
    elif via == "closed":
        terms = [chi_c(k, n) ** (g - 1) for n in range(1, k + 2)]
    else:
        raise ValueError("via must be one of characters, closed, weights")
    # the terms are positive, so their sum is also sum_n |T_n|
    value = math.fsum(terms)
    scale = (g - 1) * _ERROR_SLOPE[via] * (k + 2) + 1.5
    return value, sys.float_info.epsilon * scale * value


def verlinde(g, k, via="characters"):
    """Verlinde number rk_g(empty), checked along the requested route.

    Returns the exact rank rk(g, (), k).  Raises InvariantViolation when
    the route value differs from it by more than the route's error bound
    (see verlinde_route), and UnresolvedRoute when it agrees but the bound
    is 1/2 or more.  g = 1 gives k+1 (the closed formulas start at genus 2).
    """
    value, bound = verlinde_route(g, k, via)
    exact = rk(g, (), k)
    witness = RouteWitness(g, k, via, value, exact, bound)
    err = abs(Fraction(value) - exact)
    if err > bound:
        raise InvariantViolation(
            f"verlinde({g},{k}) via {via} is off the exact rank by {float(err):.3g},"
            f" beyond its error bound {bound:.3g}",
            witness=witness,
        )
    if bound >= 0.5:
        raise UnresolvedRoute(
            f"verlinde({g},{k}) via {via}: error bound {bound:.3g} >= 1/2,"
            " so the route cannot resolve the integer at this magnitude",
            witness,
        )
    return exact


# -- ideal reduction ----------------------------------------------------------


@dataclass(frozen=True)
class IdealReport:
    """Outcome of reducing all products modulo the ideal (V_{k+1})."""

    level: int
    pairs: int
    all_match: bool
    mismatches: tuple


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mul_x(p):
    return [0] + list(p)


def _char_polys(top):
    polys = [[1], [0, 1]]
    while len(polys) <= top:
        nxt = _poly_add(_poly_mul_x(polys[-1]), [-c for c in polys[-2]])
        polys.append(nxt)
    return polys


def _poly_mod(p, q):
    # remainder of p by monic q over the integers
    p = list(p)
    dq = len(q) - 1
    while len(p) - 1 >= dq and any(p):
        lead = p[-1]
        if lead == 0:
            p.pop()
            continue
        shift = len(p) - 1 - dq
        for i, c in enumerate(q):
            p[shift + i] -= lead * c
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return p


def _to_basis(p, polys, k):
    # expand p in the basis p_0..p_k; returns None if it does not fit
    p = list(p)
    coeffs = {}
    for d in range(len(p) - 1, -1, -1):
        if d >= len(p):
            continue
        c = p[d]
        if c == 0:
            continue
        if d > k:
            return None
        coeffs[d] = c
        for i, pc in enumerate(polys[d]):
            p[i] -= c * pc
    if any(p):
        return None
    return coeffs


def ideal_check(k):
    """Verify fuse == Clebsch-Gordan reduced modulo (V_{k+1}).

    Products p_a * p_b are expanded symbolically, reduced by polynomial
    division with the monic generator p_{k+1}, and re-expanded in the
    basis p_0..p_k; the multiset of basis labels must equal fuse(a, b).
    """
    check_level(k)
    if k > 12:
        raise ValueError("symbolic reduction supported for levels up to 12")
    polys = _char_polys(2 * k + 2)
    gen = polys[k + 1]
    mismatches = []
    pairs = 0
    for a in range(k + 1):
        for b in range(a, k + 1):
            pairs += 1
            product = [0]
            for c in clebsch_gordan(a, b):
                product = _poly_add(product, polys[c])
            # sanity: the CG sum really is the polynomial product
            direct = [0] * (a + b + 1)
            for i, pa in enumerate(polys[a]):
                for j, pb in enumerate(polys[b]):
                    direct[i + j] += pa * pb
            while len(direct) > 1 and direct[-1] == 0:
                direct.pop()
            if product != direct:
                mismatches.append((a, b, "clebsch-gordan sum"))
                continue
            rem = _poly_mod(product, gen)
            coeffs = _to_basis(rem, polys, k)
            reduced = []
            if coeffs is not None and all(c >= 0 for c in coeffs.values()):
                for d, c in sorted(coeffs.items(), reverse=True):
                    reduced.extend([d] * c)
            else:
                reduced = None
            if reduced != sorted(fuse(k, a, b), reverse=True):
                mismatches.append((a, b, "ideal reduction"))
    return IdealReport(k, pairs, not mismatches, tuple(mismatches))
