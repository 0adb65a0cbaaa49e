"""Theta functions with characteristics and the coherent state transforms."""

import cmath
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from verlinde.gauge import Connection, haar_su2, spin_network, spin_network_value
from verlinde.graphs import dumbbell_graph, multi_theta, theta_graph
from verlinde.su2reps import casimir, rep_matrix
from verlinde.thetacst import (
    _BLOCK_ROWS,
    _MAX_RADIUS,
    FourierSeries,
    PeriodMatrix,
    ThetaCharacteristic,
    _point,
    _shell,
    _shell_size,
    _small_shell,
    _walk,
    abelian_cst,
    chord_edges,
    delta_distribution,
    evaluate_series,
    nonabelian_cst,
    nonabelian_theta,
    pw_evaluate,
    spin_network_blocks,
    su2_laplacian_block,
    theta_char,
)


def random_omega(g, rng):
    a = rng.normal(size=(g, g))
    b = rng.normal(size=(g, g))
    return PeriodMatrix((a + a.T) / 2 + 1j * (b @ b.T + g * np.eye(g)))


def random_sl2c(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def jt(kind, u, q):
    return complex(mpmath.jtheta(kind, mpmath.mpc(u), mpmath.mpc(q)))


# -- period matrices ----------------------------------------------------------


def test_period_matrix_validation():
    with pytest.raises(ValueError):
        PeriodMatrix([[1j, 0.2], [0.3, 1j]])  # not symmetric
    with pytest.raises(ValueError):
        PeriodMatrix([[-1j]])  # Im not positive definite
    with pytest.raises(ValueError):
        PeriodMatrix([[1j, 2j], [2j, 1j]])  # indefinite imaginary part
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PeriodMatrix([[complex(bad, 1.0)]])
    pm = PeriodMatrix([[0.5 + 2j]])
    assert pm.genus == 1


def test_theta_characteristic_validation():
    ThetaCharacteristic(2, (1, 0))
    with pytest.raises(ValueError):
        ThetaCharacteristic(2, (2, 0))
    with pytest.raises(ValueError):
        ThetaCharacteristic(2, (-1, 0))
    with pytest.raises(ValueError):
        ThetaCharacteristic(0, (0,))


def test_numpy_int_residues_pass():
    char = ThetaCharacteristic(3, (np.int64(2), np.int32(0)))
    assert char.vector == (2, 0)
    assert all(type(v) is int for v in char.vector)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ThetaCharacteristic(3, (1.7,)),
        lambda: ThetaCharacteristic(3, (True,)),
        lambda: delta_distribution((1.5,), 3),
        lambda: delta_distribution((0,), 2.5),
        lambda: su2_laplacian_block((1.5,), [[1j]]),
        lambda: pw_evaluate((1.9,), np.eye(2), [np.eye(2)]),
        lambda: pw_evaluate((True,), np.eye(2), [np.eye(2)]),
    ],
    ids=[
        "char-float", "char-bool", "coset-residue", "coset-modulus", "laplacian-block",
        "pw-float", "pw-bool",
    ],
)
def test_float_and_bool_indices_are_refused(build):
    # int() would truncate these to a different residue, index or label
    with pytest.raises(ValueError):
        build()


def test_bool_level_is_rejected():
    # True == 1 as an int, but a level must not be a flag
    with pytest.raises(ValueError, match="level must be a positive integer"):
        ThetaCharacteristic(True, (0,))
    graph = theta_graph()
    with pytest.raises(ValueError, match="level must be a positive integer"):
        nonabelian_theta(
            graph,
            {e: 0 for e in graph.edge_ids()},
            True,
            PeriodMatrix(np.diag([1j, 1j])),
            (np.eye(2), np.eye(2)),
        )


# -- theta series -------------------------------------------------------------


def test_theta_frozen_value_at_i():
    val = theta_char(ThetaCharacteristic(1, (0,)), PeriodMatrix([[1j]]), [0.0])
    assert abs(val - 1.0864348112) < 1e-9
    direct = sum(2 * math.exp(-math.pi * n * n) for n in range(1, 8)) + 1
    assert abs(val - direct) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_theta_level_one_matches_jacobi(seed):
    rng = np.random.default_rng(seed)
    om = complex(rng.normal() * 0.5, 0.8 + rng.random())
    z = complex(rng.normal() * 0.4, rng.normal() * 0.3)
    ours = theta_char(ThetaCharacteristic(1, (0,)), PeriodMatrix([[om]]), [z])
    ref = jt(3, math.pi * z, cmath.exp(1j * math.pi * om))
    assert abs(ours - ref) < 1e-10


@pytest.mark.parametrize("l,kind", [(0, 3), (1, 2)])
def test_theta_level_two_matches_jacobi(l, kind):
    rng = np.random.default_rng(10 + l)
    for _ in range(3):
        om = complex(rng.normal() * 0.3, 0.7 + rng.random())
        z = complex(rng.normal() * 0.3, rng.normal() * 0.25)
        ours = theta_char(ThetaCharacteristic(2, (l,)), PeriodMatrix([[om]]), [z])
        ref = jt(kind, 2 * math.pi * z, cmath.exp(2j * math.pi * om))
        assert abs(ours - ref) < 1e-10


def test_theta_block_diagonal_factorizes():
    o1 = complex(0.2, 1.1)
    o2 = complex(-0.4, 0.9)
    om2 = PeriodMatrix([[o1, 0], [0, o2]])
    z = [complex(0.1, 0.2), complex(-0.3, 0.1)]
    for l in [(0, 0), (1, 0), (1, 1)]:
        whole = theta_char(ThetaCharacteristic(2, l), om2, z)
        parts = [
            theta_char(ThetaCharacteristic(2, (l[i],)), PeriodMatrix([[ (o1, o2)[i] ]]), [z[i]])
            for i in range(2)
        ]
        assert abs(whole - parts[0] * parts[1]) < 1e-10


def test_theta_unit_period_invariance():
    rng = np.random.default_rng(4)
    for g, k in [(1, 1), (2, 2), (2, 3)]:
        om = random_omega(g, rng)
        char = ThetaCharacteristic(k, tuple(rng.integers(0, k, g)))
        z = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.3
        for i in range(g):
            shifted = z + np.eye(g)[i]
            a = theta_char(char, om, z)
            b = theta_char(char, om, shifted)
            assert abs(a - b) < 1e-10


def test_theta_quasi_periodicity():
    # shifting by an Omega-column picks up exp(-pi i k Omega_ii - 2 pi i k z_i)
    rng = np.random.default_rng(5)
    for trial in range(20):
        g = 1 + trial % 2
        k = 1 + trial % 3
        om = random_omega(g, rng)
        char = ThetaCharacteristic(k, tuple(rng.integers(0, k, g)))
        z = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.2
        i = trial % g
        shifted = z + om.matrix[:, i]
        factor = cmath.exp(-1j * math.pi * k * om.matrix[i, i] - 2j * math.pi * k * z[i])
        lhs = theta_char(char, om, shifted)
        rhs = factor * theta_char(char, om, z)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_theta_truncation_tail_bound():
    # the adaptive stop leaves out less than tol/10 of the sum over a fixed
    # box, m = 1 + 2n for |n| <= 30, far past where the terms underflow
    om = PeriodMatrix([[0.3 + 1.2j]])
    char = ThetaCharacteristic(2, (1,))
    z = [complex(0.2, 0.3)]
    box = sum(
        cmath.exp(1j * math.pi * m * m * om.matrix[0, 0] / 2 + 2j * math.pi * m * z[0])
        for m in range(-59, 62, 2)
    )
    for tol in (1e-4, 1e-8, 1e-12):
        assert abs(theta_char(char, om, z, tol) - box) < tol / 10


def test_theta_rejects_flat_imaginary_part():
    with pytest.raises(ValueError):
        theta_char(ThetaCharacteristic(1, (0,)), PeriodMatrix([[1e-7j]]), [0.0])


def test_theta_and_series_refuse_non_finite_points():
    char = ThetaCharacteristic(1, (0,))
    series = FourierSeries(1, {(1,): 1.0})
    for bad in (float("nan"), float("inf"), complex(0.1, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            theta_char(char, [[1j]], [bad])
        with pytest.raises(ValueError, match="finite"):
            evaluate_series(series, [bad])


def test_large_real_part_is_reduced_exactly():
    # 1e15 + 0.25 is exact in binary, and fmod takes it to 0.25 exactly,
    # so both series give the bits of the reduced point
    om = PeriodMatrix([[0.3 + 1.2j]])
    char = ThetaCharacteristic(2, (1,))
    series = FourierSeries(1, {(1,): 1.0, (-3,): 0.5j})
    z = np.array([1e15 + 0.25 + 0.1j])
    assert theta_char(char, om, z) == theta_char(char, om, [0.25 + 0.1j])
    assert evaluate_series(series, z) == evaluate_series(series, [0.25 + 0.1j])
    assert z[0] == 1e15 + 0.25 + 0.1j  # the caller's array is not reduced in place


def test_theta_cauchy_riemann():
    rng = np.random.default_rng(6)
    om = random_omega(2, rng)
    char = ThetaCharacteristic(2, (1, 0))
    z0 = np.array([0.1 + 0.2j, -0.2 + 0.1j])
    h = 1e-4

    def f(s):
        return theta_char(char, om, z0 + np.array([s, 0]))

    dx = (f(h) - f(-h)) / (2 * h)
    dy = (f(1j * h) - f(-1j * h)) / (2 * h)
    assert abs(dy - 1j * dx) < 1e-6


# -- Fourier series and the abelian CST ---------------------------------------


def test_fourier_series_evaluation():
    f = FourierSeries(1, {(0,): 1.0, (2,): 0.5j})
    val = evaluate_series(f, [0.25])
    # exp(2 pi i * 2 * 1/4) = exp(pi i) = -1
    assert abs(val - (1.0 - 0.5j)) < 1e-12


def test_delta_distribution_all_ones_at_level_one():
    # the coset 0 + 1 Z is every index, so its transform keeps each n near 0
    d = delta_distribution((0,), 1)
    out = abelian_cst(d, PeriodMatrix([[1j]]), 1.0)
    assert {(-3,), (0,), (5,)} <= set(out.coefficients)


@pytest.mark.parametrize("keys", [[(1,), (1, 2, 3)], [(1, 2, 3), (4, 5, 6)]], ids=["ragged", "genus-3"])
def test_series_refuses_indices_of_another_length(keys):
    # the index rows are read as one flat run of entries, so an index of the
    # wrong length would shift every later row if it were let through
    with pytest.raises(ValueError, match="series indices must have 2 entries"):
        evaluate_series(FourierSeries(2, dict.fromkeys(keys, 1.0)), [0.1, 0.2])


def test_evaluate_rejects_distribution():
    with pytest.raises(ValueError):
        evaluate_series(delta_distribution((0,), 1), [0.0])


def test_abelian_cst_negative_time_rejected():
    # at t = 0 nothing decays, so the coset series would never end
    d = delta_distribution((1,), 2)
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            abelian_cst(d, PeriodMatrix([[1j]]), bad)


def test_abelian_cst_refuses_finite_series():
    with pytest.raises(ValueError, match="coset distribution"):
        abelian_cst(FourierSeries(1, {(0,): 1.0}), PeriodMatrix([[1j]]), 0.5)


def test_abelian_cst_of_delta_is_theta_termwise():
    k = 2
    om = PeriodMatrix([[2j]])
    out = abelian_cst(delta_distribution((1,), k), om, 1 / k)
    for m in (-3, -1, 1, 3, 5):
        expect = cmath.exp(1j * math.pi * m * m * om.matrix[0, 0] / k)
        assert abs(out.coefficients[(m,)] - expect) < 1e-14
    assert (0,) not in out.coefficients
    assert (2,) not in out.coefficients


def test_abelian_cst_pipeline_matches_theta_char():
    # spec of the pipeline: CST_{1/k}(delta_l) evaluates to theta_l
    cases = [
        (2, (1,), PeriodMatrix([[2j]]), [0.0]),
        (2, (0,), PeriodMatrix([[2j]]), [0.3 + 0.1j]),
        (3, (2,), PeriodMatrix([[0.5 + 1.1j]]), [-0.2 + 0.05j]),
        (2, (1, 0), PeriodMatrix([[1.2j, 0.3j], [0.3j, 1.5j]]), [0.1, -0.2 + 0.1j]),
    ]
    for k, l, om, z in cases:
        series = abelian_cst(delta_distribution(l, k), om, 1 / k)
        direct = theta_char(ThetaCharacteristic(k, l), om, z)
        assert abs(evaluate_series(series, z) - direct) < 1e-10


# -- shell arrays against the per-term loops ----------------------------------
# Reference loops: theta_char, abelian_cst and evaluate_series one lattice
# point at a time.  The shell arrays must give their bits exactly; both run
# on the same BLAS, so the pin holds on any build.


def _per_term_shell(g, s):
    if s == 0:
        yield (0,) * g
        return
    for pt in itertools.product(range(-s, s + 1), repeat=g):
        if max(abs(c) for c in pt) == s:
            yield pt


def _per_term_theta_char(char, om, z, tol=1e-12):
    zv = _point(z, om.genus)
    k = char.level
    l = np.asarray(char.vector, dtype=float)
    drift = np.linalg.solve(om.matrix.imag, zv.imag)
    s_min = int(np.ceil(np.abs(drift).max())) + 1
    total = 0j
    small = 0
    for s in range(_MAX_RADIUS + 1):
        mag = 0.0
        for n in _per_term_shell(om.genus, s):
            m = l + k * np.asarray(n, dtype=float)
            quad = m @ om.matrix @ m / k
            term = cmath.exp(1j * math.pi * quad + 2j * math.pi * (m @ zv))
            total += term
            mag += abs(term)
        if s >= s_min:
            small = small + 1 if mag < tol / 20 else 0
            if small >= 2:
                return total
    raise AssertionError("per-term theta series not converged")


def _per_term_abelian_cst(l, k, om, t):
    lv = np.asarray(l, dtype=float)
    im = om.matrix.imag
    coeffs = {}
    small = 0
    for s in range(_MAX_RADIUS + 1):
        largest = 0.0
        for n in _per_term_shell(om.genus, s):
            m = lv + k * np.asarray(n, dtype=float)
            coeffs[tuple(int(v) for v in m)] = cmath.exp(1j * math.pi * t * (m @ om.matrix @ m))
            weight = math.exp(min(0.0, -math.pi * t * (m @ im @ m) + 2 * math.pi * np.abs(m).sum()))
            largest = max(largest, weight)
        small = small + 1 if largest < 1e-15 else 0
        if small >= 2:
            return coeffs
    raise AssertionError("per-term coset series not converged")


def _per_term_evaluate_series(coeffs, z):
    zv = _point(z, len(next(iter(coeffs))))
    total = 0j
    for n, a in coeffs.items():
        total += a * cmath.exp(2j * math.pi * (np.asarray(n, float) @ zv))
    return total


def _hex(c):
    return complex(c).real.hex(), complex(c).imag.hex()


_BIT_OMEGA = {
    "diag": np.diag([0.2 + 0.9j, -0.1 + 1.3j, 0.15 + 1.0j]),
    "full": np.array([
        [0.3 + 0.9j, 0.1 + 0.1j, -0.2 + 0.1j],
        [0.1 + 0.1j, -0.2 + 0.9j, 0.25 + 0.1j],
        [-0.2 + 0.1j, 0.25 + 0.1j, 0.1 + 0.9j],
    ]),
    "unit": 1j * np.eye(3),
}
# the first point has every Re z_i outside [0, 1)
_BIT_POINTS = ([1.7 - 0.1j, -2.3 + 0.05j, 3.4 + 0.2j], [0.2 + 0.3j, 0.45 - 0.2j, -0.35 + 0.1j])
_BIT_CASES = [
    (g, k, kind)
    for g, levels in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2)))
    for k in levels
    for kind in (("diag",) if g == 1 else ("diag", "full"))
] + [(1, 1, "unit")]


@pytest.mark.parametrize("g,k,kind", _BIT_CASES)
def test_shell_arrays_match_per_term_bits(g, k, kind):
    om = PeriodMatrix(_BIT_OMEGA[kind][:g, :g])
    points = [p[:g] for p in _BIT_POINTS]
    # at z = 15i the genus-1 unit series peaks within a few bits of the float limit
    theta_points = points + ([[15j]] if kind == "unit" else [])
    for l in sorted({(0,) * g, tuple((i + 1) % k for i in range(g))}):
        char = ThetaCharacteristic(k, l)
        for z in theta_points:
            assert _hex(theta_char(char, om, z)) == _hex(_per_term_theta_char(char, om, z))
        for t in (1 / k, 0.37):
            got = abelian_cst(delta_distribution(l, k), om, t)
            want = _per_term_abelian_cst(l, k, om, t)
            assert list(got.coefficients) == list(want)
            assert [_hex(a) for a in got.coefficients.values()] == [_hex(a) for a in want.values()]
            for z in points:
                assert _hex(evaluate_series(got, z)) == _hex(_per_term_evaluate_series(want, z))


@pytest.mark.parametrize("cap", [1, 5, 30, _BLOCK_ROWS])
def test_shell_blocks_follow_product_order(cap, monkeypatch):
    # each cap cuts the cube into runs at different places, so some runs keep
    # no row and others stop inside a line of the cube; the kept rows must
    # still come in product order
    monkeypatch.setattr("verlinde.thetacst._BLOCK_ROWS", cap)
    for g, radius in ((1, 5), (2, 5), (3, 4), (4, 2)):
        for s in range(radius):
            blocks = list(_shell(g, s))
            assert all(b.dtype == float and b.shape[1] == g and 0 < len(b) <= cap for b in blocks)
            rows = [tuple(int(v) for v in row) for b in blocks for row in b.tolist()]
            assert rows == list(_per_term_shell(g, s))


def test_shell_memory_stays_flat_at_genus_four():
    # the shell has 512,000 points, too many for one cached run, so it is
    # walked slab by slab in runs of at most _BLOCK_ROWS rows, and no array
    # the walk makes outgrows one run
    radius = 20
    tracemalloc.start()
    try:
        sizes = [len(b) for b in _shell(4, radius)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = 2 * radius + 1
    assert sum(sizes) == width**4 - (width - 2) ** 4
    assert max(sizes) <= _BLOCK_ROWS
    assert peak < 2**20


def test_cached_shells_are_read_only():
    (rows,) = _shell(3, 2)
    assert next(_shell(3, 2)) is rows  # built once, served to every caller
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


# (3, 6) and (4, 2) fit in one run and come from the cache; the next radii,
# (3, 7) and (4, 3), do not and are walked on every call
@pytest.mark.parametrize("g,s", [(3, 6), (3, 7), (4, 2), (4, 3), (2, 60), (1, 60)])
def test_cached_and_walked_shells_agree(g, s):
    assert (_shell_size(g, s) <= _BLOCK_ROWS) == ((g, s) not in ((3, 7), (4, 3)))
    _small_shell.cache_clear()
    served = [np.concatenate(list(_shell(g, s))).tolist() for _ in range(2)]
    walked = np.concatenate(list(_walk(g, s, _BLOCK_ROWS))).tolist()
    want = [list(map(float, pt)) for pt in _per_term_shell(g, s)]
    assert served[0] == served[1] == walked == want


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_theta_refuses_tolerance_not_finite_and_positive(tol):
    # no shell's magnitude falls below a zero, negative or NaN cutoff, so the
    # series would run to the radius cap; every shell passes an infinite one
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        theta_char(ThetaCharacteristic(1, (0,)), PeriodMatrix([[1j]]), [0.0], tol)


# -- invariant Laplacian blocks ------------------------------------------------


def test_laplacian_single_factor_is_casimir_scalar():
    om = PeriodMatrix([[1j]])
    block = su2_laplacian_block((1,), om)
    lam = 3 / (8 * math.pi)  # Casimir 3/4 over 2 pi
    assert np.allclose(block, -lam * np.eye(2), atol=1e-14)
    # the diagonal branch of the transform flows by the same scalar
    flowed = nonabelian_cst((1,), np.eye(2), om, 3)
    assert np.allclose(flowed, math.exp(-lam / 6) * np.eye(2), rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", range(5))
def test_laplacian_diagonal_scaling(n):
    w = 2.5
    om = PeriodMatrix([[w * 1j]])
    block = su2_laplacian_block((n,), om)
    lam = w * float(casimir(n)) / (2 * math.pi)
    assert np.allclose(block, -lam * np.eye(n + 1), atol=1e-12)


def test_laplacian_zero_labels_zero_operator():
    om = PeriodMatrix([[1j, 0], [0, 1j]])
    assert np.allclose(su2_laplacian_block((0, 0), om), 0.0)


def test_laplacian_off_diagonal_non_scalar():
    om = PeriodMatrix([[1j, 0.4j], [0.4j, 1.5j]])
    block = su2_laplacian_block((1, 1), om)
    assert not np.allclose(block, block[0, 0] * np.eye(4))
    # pure imaginary Omega gives a self-adjoint, negative definite operator
    assert np.allclose(block, block.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(block).max() < 0


# -- nonabelian CST ------------------------------------------------------------


def test_pw_evaluate_single_block():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = haar_su2(rng)
    assert abs(pw_evaluate((1,), b, [u]) - np.trace(rep_matrix(1, u) @ b)) < 1e-12


def test_nonabelian_cst_diagonal_scalar_damping():
    rng = np.random.default_rng(10)
    om = PeriodMatrix(np.diag([1j, 3j]))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    k = 2
    out = nonabelian_cst((1, 2), b, om, k)
    lam = (1 * float(casimir(1)) + 3 * float(casimir(2))) / (2 * math.pi)
    assert np.allclose(out, math.exp(-lam / (2 * k)) * b, atol=1e-12)


def test_nonabelian_cst_preserves_class_functions():
    # B = identity block is an intertwiner; the image stays conjugation
    # invariant, including at complexified points
    om = PeriodMatrix([[0.3 + 1.4j]])
    out = nonabelian_cst((2,), np.eye(3), om, 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = random_sl2c(rng)
        u = random_sl2c(rng)
        ui = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
        a = pw_evaluate((2,), out, [w])
        b = pw_evaluate((2,), out, [u @ w @ ui])
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_nonabelian_cst_matches_heat_smoothing_monte_carlo():
    # walk the heat flow by composing many small group steps and compare the
    # smoothed character chi_2 with the program's flowed chi_2 block, within
    # the Monte Carlo error; Omega = 1.5i at level 1 flows for time 1.5
    om = PeriodMatrix([[1.5j]])
    flowed = nonabelian_cst((2,), np.eye(3), om, 1)
    rng = np.random.default_rng(12)
    n_samples, n_steps = 60_000, 48
    c_var = 1.5 / (2 * math.pi)  # total variance per su(2) direction
    # the walk's entries [[a, b], [c, d]], one per sample, times each step
    a, b, c, d = (np.full(n_samples, v, dtype=complex) for v in (1, 0, 0, 1))
    for _ in range(n_steps):
        vecs = rng.normal(0.0, math.sqrt(c_var / n_steps), size=(n_samples, 3))
        angle = np.linalg.norm(vecs, axis=1)
        x1, x2, x3 = (vecs / np.maximum(angle[:, None], 1e-300)).T
        cos, sin = np.cos(angle / 2), np.sin(angle / 2)
        s00, s01 = cos - 1j * sin * x3, -1j * sin * (x1 - 1j * x2)
        s10, s11 = -1j * sin * (x1 + 1j * x2), cos + 1j * sin * x3
        a, b, c, d = a * s00 + b * s10, a * s01 + b * s11, c * s00 + d * s10, c * s01 + d * s11
    for seed in range(5):
        x = haar_su2(np.random.default_rng(100 + seed))
        trace = x[0, 0] * a + x[0, 1] * c + x[1, 0] * b + x[1, 1] * d
        smoothed = float(np.mean((trace**2 - 1).real))
        want = pw_evaluate((2,), flowed, [x])
        assert abs(want.imag) < 1e-14
        assert abs(smoothed - want.real) < 0.01 * (1 + abs(want))


# -- spin network blocks and nonabelian theta -----------------------------------


def test_spin_network_blocks_theta_110():
    graph = theta_graph()
    assert chord_edges(graph) == (2, 4)
    jvec, block = spin_network_blocks(graph, {0: 1, 2: 1, 4: 0})
    assert jvec == (1, 0)
    assert block.shape == (2, 2)


def test_spin_network_blocks_reproduce_network_function():
    rng = np.random.default_rng(13)
    for graph, coloring in [
        (theta_graph(), {0: 1, 2: 1, 4: 0}),
        (theta_graph(), {0: 2, 2: 2, 4: 2}),
        (dumbbell_graph(), {0: 2, 2: 2, 4: 2}),
    ]:
        chords = chord_edges(graph)
        jvec, block = spin_network_blocks(graph, coloring)
        assert jvec == tuple(coloring[e] for e in chords)
        snf = spin_network(graph, coloring)
        for _ in range(4):
            ws = [haar_su2(rng) for _ in jvec]
            mats = {e: np.eye(2, dtype=complex) for e in graph.edge_ids()}
            mats.update(zip(chords, ws))
            conn = Connection(graph, mats)
            direct = spin_network_value(snf, conn)
            via_block = pw_evaluate(jvec, block, ws)
            assert abs(direct - via_block) < 1e-10


def test_spin_network_blocks_refuse_more_einsum_indices_than_letters():
    # one einsum index per dart and one per chord: multi-theta-8 needs 42 + 8
    # of numpy's 52 letters, multi-theta-9 needs 48 + 9 = 57
    graph = multi_theta(8)
    jvec, block = spin_network_blocks(graph, {e: 0 for e in graph.edge_ids()})
    assert jvec == (0,) * 8 and block.shape == (1, 1)
    graph = multi_theta(9)
    with pytest.raises(ValueError, match="einsum contractions stop at 52 indices, got 57"):
        spin_network_blocks(graph, {e: 0 for e in graph.edge_ids()})


def test_spin_network_block_is_intertwiner():
    graph = theta_graph()
    jvec, block = spin_network_blocks(graph, {0: 2, 2: 2, 4: 2})
    rng = np.random.default_rng(14)
    u = haar_su2(rng)
    rep = np.kron(rep_matrix(jvec[0], u), rep_matrix(jvec[1], u))
    assert np.allclose(rep @ block, block @ rep, atol=1e-10)


def test_nonabelian_theta_pairing_matches_manual_pipeline():
    graph = theta_graph()
    coloring = {0: 1, 2: 1, 4: 0}
    k = 1
    rng = np.random.default_rng(15)
    om = random_omega(2, rng)
    point = (haar_su2(rng), haar_su2(rng))
    got = nonabelian_theta(graph, coloring, k, om, point)
    jvec, block = spin_network_blocks(graph, coloring)
    damped = expm(su2_laplacian_block(jvec, om) / (2 * k)) @ block
    want = np.trace(np.kron(rep_matrix(jvec[0], point[0]), rep_matrix(jvec[1], point[1])) @ damped)
    assert abs(got - want) < 1e-12


def test_nonabelian_theta_gauge_invariance_in_point():
    graph = theta_graph()
    coloring = {0: 1, 2: 1, 4: 0}
    rng = np.random.default_rng(16)
    om = PeriodMatrix(np.diag([60j, 60j]))
    ws = (haar_su2(rng), haar_su2(rng))
    u = haar_su2(rng)
    ui = u.conj().T
    moved = tuple(u @ w @ ui for w in ws)
    a = nonabelian_theta(graph, coloring, 1, om, ws)
    b = nonabelian_theta(graph, coloring, 1, om, moved)
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


_PIN_POINT = (
    np.array([[math.cos(0.7), 1j * math.sin(0.7)], [1j * math.sin(0.7), math.cos(0.7)]]),
    np.array([[0.6 + 0j, -0.8], [0.8, 0.6]]),
)
_PIN_OMEGA = {
    "diag": np.diag([0.2 + 0.9j, -0.1 + 1.3j]),
    "full": np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]]),
}


@pytest.mark.parametrize(
    "graph,coloring,k,om,want",
    [
        (theta_graph(), {0: 1, 2: 1, 4: 0}, 1, "diag", ("0x1.7317d1e96e5f3p-1", "0x1.1b81f6adb9f39p-7")),
        (theta_graph(), {0: 2, 2: 2, 4: 2}, 3, "diag", ("0x1.c5e3393759f6cp-4", "0x1.3438653b31e00p-11")),
        (theta_graph(), {0: 1, 2: 2, 4: 1}, 2, "full", ("0x1.f1572fdb63532p-3", "0x1.3ca095d2c2da0p-9")),
        (dumbbell_graph(), {0: 2, 2: 1, 4: 0}, 3, "diag", ("0x1.383aed9aa62dfp-1", "0x1.588be8696a1ccp-8")),
        (dumbbell_graph(), {0: 2, 2: 2, 4: 2}, 3, "full", ("0x1.680f039370e40p-11", "-0x1.618c9f549ccf3p-12")),
    ],
)
def test_nonabelian_theta_pinned_bits(graph, coloring, k, om, want):
    # the diagonal shortcut and the nonabelian_cst flow, bit for bit; the pins
    # were taken with numpy 2.4 and scipy 1.17, another BLAS may move a last bit
    got = nonabelian_theta(graph, coloring, k, _PIN_OMEGA[om], _PIN_POINT)
    assert (got.real.hex(), got.imag.hex()) == want


def test_nonabelian_theta_rejects_level_inadmissible():
    graph = theta_graph()
    with pytest.raises(ValueError):
        nonabelian_theta(
            graph,
            {0: 2, 2: 2, 4: 2},
            1,
            PeriodMatrix(np.diag([1j, 1j])),
            (np.eye(2), np.eye(2)),
        )


def test_nonabelian_theta_genus_mismatch():
    graph = theta_graph()
    with pytest.raises(ValueError):
        nonabelian_theta(
            graph,
            {0: 1, 2: 1, 4: 0},
            1,
            PeriodMatrix([[1j]]),
            (np.eye(2),),
        )


def test_nonabelian_theta_cauchy_riemann():
    graph = theta_graph()
    coloring = {0: 1, 2: 1, 4: 0}
    rng = np.random.default_rng(17)
    om = random_omega(2, rng)
    w1, w2 = haar_su2(rng), haar_su2(rng)
    gen = np.array([[0.3j, 0.1], [-0.1, -0.3j]])
    h = 1e-4

    def f(s):
        p = (w1 @ expm(s * gen), w2)
        return nonabelian_theta(graph, coloring, 1, om, p)

    dx = (f(h) - f(-h)) / (2 * h)
    dy = (f(1j * h) - f(-1j * h)) / (2 * h)
    assert abs(dy - 1j * dx) < 1e-6


def test_schottky_point_validation():
    # every handle matrix of the point must be unimodular, and one per handle
    graph = theta_graph()
    coloring = {0: 1, 2: 1, 4: 0}
    om = PeriodMatrix(np.diag([1j, 1j]))
    with pytest.raises(ValueError, match="unimodular"):
        nonabelian_theta(graph, coloring, 1, om, (np.diag([2.0, 1.0]), np.eye(2)))
    with pytest.raises(ValueError, match="handle matrices"):
        nonabelian_theta(graph, coloring, 1, om, (np.eye(2),) * 3)
