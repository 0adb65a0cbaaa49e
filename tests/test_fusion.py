"""Tests for the level-k fusion ring and Verlinde numbers.

The ideal reduction is double-checked with sympy polynomial arithmetic,
independently of the module's own integer polynomial division.  The
handle-operator rank is checked against a memoised recursion over label
multisets, kept here as the oracle.
"""

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import fusion
from verlinde.fusion import (
    FusionRing,
    UnresolvedRoute,
    character,
    chi_c,
    clebsch_gordan,
    fuse,
    ideal_check,
    rk,
    verlinde,
    verlinde_route,
)
from verlinde.weights import InvariantViolation


# ---------------------------------------------------------------------------
# Clebsch-Gordan and fusion rules
# ---------------------------------------------------------------------------


def test_clebsch_gordan_examples():
    assert clebsch_gordan(1, 1) == [2, 0]
    assert clebsch_gordan(2, 1) == [3, 1]
    for n in range(6):
        assert clebsch_gordan(0, n) == [n]
        assert clebsch_gordan(n, 0) == [n]


@given(st.integers(0, 12), st.integers(0, 12))
def test_clebsch_gordan_dimension(n1, n2):
    # dim(V_a (x) V_b) is preserved by the decomposition
    parts = clebsch_gordan(n1, n2)
    assert sum(c + 1 for c in parts) == (n1 + 1) * (n2 + 1)
    assert parts == sorted(parts, reverse=True)
    assert all((c - abs(n1 - n2)) % 2 == 0 for c in parts)


def test_fuse_examples():
    assert fuse(1, 1, 1) == [0]
    assert fuse(2, 1, 1) == [2, 0]
    assert fuse(2, 2, 2) == [0]


def test_fuse_range_errors():
    with pytest.raises(ValueError):
        fuse(2, 3, 0)
    with pytest.raises(ValueError):
        fuse(2, -1, 0)
    with pytest.raises(ValueError):
        fuse(2, 0, 5)
    with pytest.raises(ValueError):
        fuse(0, 0, 0)


def _fuse_many(k, labels):
    acc = Counter({0: 1})
    for n in labels:
        nxt = Counter()
        for m, mult in acc.items():
            for c in fuse(k, m, n):
                nxt[c] += mult
        acc = nxt
    return acc


@pytest.mark.parametrize("k", range(1, 9))
def test_fuse_commutative_and_associative(k):
    labels = range(k + 1)
    for a, b in itertools.combinations_with_replacement(labels, 2):
        assert sorted(fuse(k, a, b)) == sorted(fuse(k, b, a))
    for a, b, c in itertools.combinations_with_replacement(labels, 3):
        left = Counter()
        for m in fuse(k, a, b):
            left.update(fuse(k, m, c))
        right = Counter()
        for m in fuse(k, b, c):
            right.update(fuse(k, a, m))
        assert left == right


@pytest.mark.parametrize("k", range(1, 7))
def test_structure_constants_symmetric(k):
    ring = FusionRing(k)
    for a, b, c in itertools.product(range(k + 1), repeat=3):
        base = ring.N(a, b, c)
        assert base in (0, 1)
        for x, y, z in itertools.permutations((a, b, c)):
            assert ring.N(x, y, z) == base


def test_unit_and_duality():
    ring = FusionRing(3)
    for a in range(4):
        assert ring.N(0, a, a) == 1
        for b in range(4):
            assert rk(0, (a, b), 3) == (1 if a == b else 0)


# ---------------------------------------------------------------------------
# rank functionals
# ---------------------------------------------------------------------------


def test_rk_base_cases():
    assert rk(0, (), 2) == 1
    assert rk(0, (1, 1), 2) == 1
    assert rk(0, (1,), 2) == 0
    assert rk(1, (), 3) == 4  # k+1 labels glued into one handle


def test_rk_matches_weight_counts():
    assert rk(2, (), 1) == 4
    assert rk(2, (), 2) == 10
    assert rk(3, (), 1) == 8
    assert rk(3, (), 2) == 36


def test_rk_splitting_rule():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 4)
        g1, g2 = rng.randint(0, 2), rng.randint(0, 2)
        n1 = tuple(rng.randint(0, k) for _ in range(rng.randint(0, 2)))
        n2 = tuple(rng.randint(0, k) for _ in range(rng.randint(0, 2)))
        whole = rk(g1 + g2, n1 + n2, k)
        split = sum(
            rk(g1, n1 + (n,), k) * rk(g2, n2 + (n,), k) for n in range(k + 1)
        )
        assert whole == split


@lru_cache(maxsize=None)
def _rk_cached(g, labels, k):
    # oracle: glue one handle at a time as a label pair (n, n), then fold
    # the genus-0 fusion product and read off the unit multiplicity
    if g == 0:
        acc = {0: 1}
        for n in labels:
            nxt = {}
            for m, mult in acc.items():
                for c in fuse(k, m, n):
                    nxt[c] = nxt.get(c, 0) + mult
            acc = nxt
        return acc.get(0, 0)
    return sum(_rk_cached(g - 1, tuple(sorted(labels + (n, n))), k) for n in range(k + 1))


@pytest.mark.parametrize("k", range(1, 7))
def test_rk_matches_recursion_oracle(k):
    for g in range(5):
        for size in range(4):
            for labels in itertools.combinations_with_replacement(range(k + 1), size):
                assert rk(g, labels, k) == _rk_cached(g, labels, k)


def test_rk_rejects_bad_labels():
    with pytest.raises(ValueError):
        rk(0, (5,), 2)
    with pytest.raises(ValueError):
        rk(-1, (), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rk(2, (1.5,), 3),
        lambda: rk(2, (True,), 3),
        lambda: fuse(3, 1.5, 1),
        lambda: fuse(3, 1, True),
        lambda: FusionRing(3).N(1.0, 1, 0),
        lambda: character(3, 1, 0.5),
        lambda: character(3, 1, False),
    ],
    ids=[
        "rk-float", "rk-bool", "fuse-float", "fuse-bool", "N-float",
        "character-float", "character-bool",
    ],
)
def test_labels_are_ints_in_range(call):
    # twice-spin labels are ints in 0..k; floats and bools are not labels
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_unit():
    for k in range(1, 7):
        for n in range(1, k + 2):
            assert character(k, n, 0) == pytest.approx(1.0)


def test_character_level1_value():
    assert character(1, 1, 1) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1.5, 2.0, True])
def test_character_index_must_be_an_int(n):
    # a float or bool index names no character, even inside 1..k+1
    with pytest.raises(ValueError):
        character(3, n, 0)
    with pytest.raises(ValueError):
        chi_c(3, n)


@pytest.mark.parametrize("k", range(1, 9))
def test_chi_c_closed_matches_direct(k):
    for n in range(1, k + 2):
        direct = math.fsum(character(k, n, m) ** 2 for m in range(k + 1))
        closed = (k + 2) / (2 * math.sin(n * math.pi / (k + 2)) ** 2)
        assert abs(direct - closed) < 1e-12 * closed
        assert chi_c(k, n) == pytest.approx(closed)


@pytest.mark.parametrize("k", range(1, 9))
def test_characters_diagonalize_fusion(k):
    ring = FusionRing(k)
    for n in range(1, k + 2):
        for a, b in itertools.combinations_with_replacement(range(k + 1), 2):
            lhs = character(k, n, a) * character(k, n, b)
            rhs = sum(character(k, n, c) for c in fuse(k, a, b))
            assert abs(lhs - rhs) < 1e-10


def test_character_kills_boundary_label():
    # the character index n corresponds to the vanishing of label k+1
    for k in range(1, 6):
        for n in range(1, k + 2):
            top = math.sin((k + 2) * n * math.pi / (k + 2))
            assert abs(top) < 1e-12


# ---------------------------------------------------------------------------
# Verlinde numbers
# ---------------------------------------------------------------------------


def test_verlinde_frozen_values():
    assert verlinde(2, 1) == 4
    assert verlinde(2, 2) == 10
    assert verlinde(2, 3) == 20
    assert verlinde(3, 1) == 8
    assert verlinde(3, 2) == 36


@pytest.mark.parametrize("k", range(1, 11))
def test_verlinde_genus2_closed_polynomial(k):
    assert verlinde(2, k, via="closed") == (k + 2) * ((k + 2) ** 2 - 1) // 6


@pytest.mark.parametrize("via", ["characters", "closed", "weights"])
@pytest.mark.parametrize("g,k", [(2, 5), (3, 3)])
def test_verlinde_routes_agree(g, k, via):
    assert verlinde(g, k, via=via) == rk(g, (), k)


def test_route_bound_holds():
    # the derived bound covers the float error over g <= 10, k <= 20; the
    # largest error/bound ratio seen is 0.16 (closed route, g = 8, k = 12)
    worst = 0.0
    for via in ("characters", "closed"):
        for g in range(1, 11):
            for k in range(1, 21):
                value, bound = verlinde_route(g, k, via)
                err = abs(Fraction(value) - rk(g, (), k))
                assert err <= bound
                worst = max(worst, err / bound)
    assert worst < 0.25


def test_route_bound_at_tested_points():
    # wherever a test compares a float route, its bound is within 1e-6
    points = [(g, k) for g in (1, 2, 3) for k in range(1, 11)]
    for via in ("characters", "closed"):
        for g, k in points:
            assert verlinde_route(g, k, via)[1] <= 1e-6
    for k in range(1, 41):
        assert verlinde_route(2, k, "closed")[1] <= 1e-6


def test_route_bound_scales_with_value():
    # eps times (g-1) c (k+2) + 3/2 times the sum of the positive terms
    value, bound = verlinde_route(6, 10, "characters")
    assert bound == sys.float_info.epsilon * (5 * 8 * 12 + 1.5) * value
    value, bound = verlinde_route(6, 10, "closed")
    assert bound == sys.float_info.epsilon * (5 * 3 * 12 + 1.5) * value
    assert verlinde_route(3, 3, "weights") == (rk(3, (), 3), 0.0)


@pytest.mark.parametrize("via", ["characters", "closed", "weights"])
@pytest.mark.parametrize("g,k", [(2, 5), (3, 3), (6, 10), (6, 12)])
def test_perturbed_exact_value_raises(monkeypatch, g, k, via):
    exact = rk(g, (), k)
    monkeypatch.setattr(fusion, "rk", lambda *args: exact + 1)
    with pytest.raises(InvariantViolation) as info:
        verlinde(g, k, via=via)
    w = info.value.witness
    assert (w.g, w.k, w.route, w.exact) == (g, k, via, exact + 1)
    assert w == (g, k, via, w.value, exact + 1, w.bound)
    assert abs(w.value - exact) <= w.bound < 0.5


def test_large_values_resolve_or_report_unresolved():
    assert verlinde(6, 10, via="characters") == 11546375776
    assert verlinde(6, 10, via="closed") == 11546375776
    assert verlinde(8, 10, via="weights") == 92509204759936
    for via in ("characters", "closed"):
        with pytest.raises(UnresolvedRoute) as info:
            verlinde(8, 10, via=via)
        w = info.value.witness
        assert w.exact == 92509204759936 == rk(8, (), 10)
        assert w.bound >= 0.5
        assert abs(w.value - w.exact) <= w.bound


def test_verlinde_genus1_convention():
    for k in (1, 2, 5):
        assert verlinde(1, k) == k + 1


def test_verlinde_bad_arguments():
    with pytest.raises(ValueError):
        verlinde(0, 2)
    with pytest.raises(ValueError):
        verlinde(2, 2, via="guess")


# ---------------------------------------------------------------------------
# ideal reduction
# ---------------------------------------------------------------------------


def _sympy_fuse(k, a, b):
    # independent reduction in Z[x]/(p_{k+1}) using sympy
    import sympy

    x = sympy.Symbol("x")
    p = [sympy.Integer(1), x]
    for _ in range(2 * k + 4):
        p.append(sympy.expand(x * p[-1] - p[-2]))
    rem = sympy.rem(sympy.expand(p[a] * p[b]), p[k + 1], x)
    out = []
    for c in range(k, -1, -1):
        coeff = sympy.Poly(rem, x).coeff_monomial(x**c) if rem != 0 else 0
        if coeff:
            out.extend([c] * int(coeff))
            rem = sympy.expand(rem - coeff * p[c])
    assert rem == 0
    return sorted(out, reverse=True)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fuse_is_ideal_reduction(k):
    for a in range(k + 1):
        for b in range(a, k + 1):
            assert sorted(fuse(k, a, b), reverse=True) == _sympy_fuse(k, a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_ideal_check_reports_clean(k):
    report = ideal_check(k)
    assert report.all_match
    assert report.pairs == (k + 1) * (k + 2) // 2
    assert report.mismatches == ()


def test_ideal_check_level_bound():
    with pytest.raises(ValueError):
        ideal_check(13)
