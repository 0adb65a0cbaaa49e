"""Theta functions with characteristics and the coherent state transforms."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from verlinde.gauge import Connection, haar_su2, spin_network, spin_network_value
from verlinde.graphs import dumbbell_graph, theta_graph
from verlinde.su2reps import casimir, rep_matrix
from verlinde.thetacst import (
    FourierSeries,
    PeriodMatrix,
    PWSeries,
    SchottkyPoint,
    ThetaCharacteristic,
    abelian_cst,
    chord_edges,
    delta_distribution,
    evaluate_series,
    laplacian_eigenvalue,
    nonabelian_cst,
    nonabelian_theta,
    pw_evaluate,
    spin_network_blocks,
    su2_laplacian_block,
    theta_char,
    truncation_radius,
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
        lambda: FourierSeries(1, {(0.5,): 1}),
        lambda: FourierSeries(1, {(True,): 1}),
        lambda: su2_laplacian_block((1.5,), [[1j]]),
        lambda: laplacian_eigenvalue((1.5,), [[1j]]),
        lambda: PWSeries(1, {(1.9,): np.eye(2)}),
        lambda: PWSeries(1, {(True,): np.eye(2)}),
    ],
    ids=[
        "char-float", "char-bool", "coset-residue", "coset-modulus", "fourier-float",
        "fourier-bool", "laplacian-block", "laplacian-eigenvalue",
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
            SchottkyPoint((np.eye(2), np.eye(2))),
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
    om = PeriodMatrix([[0.3 + 1.2j]])
    char = ThetaCharacteristic(2, (1,))
    z = [complex(0.2, 0.3)]
    tol = 1e-12
    r = truncation_radius(char, om, z, tol)
    a = theta_char(char, om, z, radius=r)
    b = theta_char(char, om, z, radius=r + 2)
    assert abs(a - b) < tol / 10


def test_theta_rejects_flat_imaginary_part():
    with pytest.raises(ValueError):
        theta_char(ThetaCharacteristic(1, (0,)), PeriodMatrix([[1e-7j]]), [0.0])


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


def test_evaluate_rejects_distribution():
    with pytest.raises(ValueError):
        evaluate_series(delta_distribution((0,), 1), [0.0])


def test_abelian_cst_zero_time_is_identity():
    f = FourierSeries(1, {(1,): 2.0, (-3,): 1j})
    out = abelian_cst(f, PeriodMatrix([[1j]]), 0.0)
    assert out.coefficients == f.coefficients
    d = delta_distribution((1,), 2)
    assert abelian_cst(d, PeriodMatrix([[1j]]), 0.0) is d


def test_abelian_cst_negative_time_rejected():
    f = FourierSeries(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        abelian_cst(f, PeriodMatrix([[1j]]), -0.1)


def test_abelian_cst_damps_coefficients():
    om = PeriodMatrix([[0.4 + 1.3j]])
    f = FourierSeries(1, {(0,): 1.0, (1,): 2.0, (-2,): 3.0})
    out = abelian_cst(f, om, 0.7)
    for n, a in f.coefficients.items():
        expect = a * cmath.exp(0.7j * math.pi * n[0] * n[0] * om.matrix[0, 0])
        assert abs(out.coefficients[n] - expect) < 1e-14


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


def test_abelian_cst_unitarity_monte_carlo():
    # || C_t f ||^2 over the averaged heat measure equals sum |a_n|^2; keep
    # t Im(Omega) small so the lognormal factors have tame Monte Carlo tails
    om = PeriodMatrix([[0.4 + 0.8j]])
    t = 0.02
    coeffs = {(-2,): 0.5j, (0,): 1.2, (1,): -0.7, (3,): 0.3}
    f = FourierSeries(1, coeffs)
    big = abelian_cst(f, om, t)
    rng = np.random.default_rng(7)
    n_samples = 250_000
    x = rng.random(n_samples)
    sigma = math.sqrt(t * om.matrix[0, 0].imag / (4 * math.pi))
    y = rng.normal(0.0, sigma, n_samples)
    total = 0.0
    for n, a in big.coefficients.items():
        total_n = a * np.exp(2j * np.pi * n[0] * (x + 1j * y))
        total = total + total_n
    estimate = float(np.mean(np.abs(total) ** 2))
    exact = sum(abs(a) ** 2 for a in coeffs.values())
    assert abs(estimate / exact - 1) < 0.02


# -- invariant Laplacian blocks ------------------------------------------------


def test_laplacian_single_factor_is_casimir_scalar():
    om = PeriodMatrix([[1j]])
    block = su2_laplacian_block((1,), om)
    lam = 3 / (8 * math.pi)  # Casimir 3/4 over 2 pi
    assert np.allclose(block, -lam * np.eye(2), atol=1e-14)
    assert abs(laplacian_eigenvalue((1,), om) - lam) < 1e-15


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


def test_laplacian_eigenvalue_rejects_off_diagonal():
    om = PeriodMatrix([[1j, 0.4j], [0.4j, 1.5j]])
    with pytest.raises(ValueError):
        laplacian_eigenvalue((1, 1), om)


# -- nonabelian CST ------------------------------------------------------------


def test_pw_series_validates_block_shape():
    with pytest.raises(ValueError):
        PWSeries(2, {(1, 1): np.eye(3)})
    PWSeries(2, {(1, 1): np.eye(4)})


def test_pw_evaluate_single_block():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    series = PWSeries(1, {(1,): b})
    u = haar_su2(rng)
    assert abs(pw_evaluate(series, [u]) - np.trace(rep_matrix(1, u) @ b)) < 1e-12


def test_nonabelian_cst_zero_time_identity():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 4))
    series = PWSeries(2, {(1, 1): b})
    out = nonabelian_cst(series, PeriodMatrix(1j * np.eye(2)), 0.0)
    assert np.allclose(out.blocks[(1, 1)], b)


def test_nonabelian_cst_diagonal_scalar_damping():
    rng = np.random.default_rng(10)
    om = PeriodMatrix(np.diag([1j, 3j]))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    series = PWSeries(2, {(1, 2): b})
    t = 0.8
    out = nonabelian_cst(series, om, t)
    lam = (1 * float(casimir(1)) + 3 * float(casimir(2))) / (2 * math.pi)
    assert np.allclose(out.blocks[(1, 2)], math.exp(-t * lam / 2) * b, atol=1e-12)


def test_nonabelian_cst_preserves_class_functions():
    # B = identity block is an intertwiner; the image stays conjugation
    # invariant, including at complexified points
    om = PeriodMatrix([[0.3 + 1.4j]])
    series = PWSeries(1, {(2,): np.eye(3)})
    out = nonabelian_cst(series, om, 0.6)
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = random_sl2c(rng)
        u = random_sl2c(rng)
        ui = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
        a = pw_evaluate(out, [w])
        b = pw_evaluate(out, [u @ w @ ui])
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_nonabelian_cst_matches_heat_smoothing_monte_carlo():
    # walk the heat flow by composing many small group steps and compare
    # with the block damping, within the Monte Carlo error
    om = PeriodMatrix([[1j]])
    t = 1.5
    n = 2
    lam = float(casimir(n)) / (2 * math.pi)
    rng = np.random.default_rng(12)
    n_samples, n_steps = 60_000, 48
    c = t / (2 * math.pi)  # total variance per su(2) direction
    vecs = rng.normal(0.0, math.sqrt(c / n_steps), size=(n_samples, n_steps, 3))
    angle = np.linalg.norm(vecs, axis=2)
    axis = vecs / np.maximum(angle[..., None], 1e-300)
    cos, sin = np.cos(angle / 2), np.sin(angle / 2)
    steps = np.empty((n_samples, n_steps, 2, 2), dtype=complex)
    steps[..., 0, 0] = cos - 1j * sin * axis[..., 2]
    steps[..., 0, 1] = -1j * sin * (axis[..., 0] - 1j * axis[..., 1])
    steps[..., 1, 0] = -1j * sin * (axis[..., 0] + 1j * axis[..., 1])
    steps[..., 1, 1] = cos + 1j * sin * axis[..., 2]
    walk = steps[:, 0]
    for i in range(1, n_steps):
        walk = walk @ steps[:, i]
    for seed in range(5):
        x = haar_su2(np.random.default_rng(100 + seed))
        moved = x @ walk
        chi2 = (np.trace(moved, axis1=1, axis2=2) ** 2 - 1).real
        smoothed = float(np.mean(chi2))
        exact = math.exp(-t * lam / 2) * ((np.trace(x) ** 2 - 1).real)
        assert abs(smoothed - exact) < 0.01 * (1 + abs(exact))


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
        series = PWSeries(len(jvec), {jvec: block})
        for _ in range(4):
            ws = [haar_su2(rng) for _ in jvec]
            mats = {e: np.eye(2, dtype=complex) for e in graph.edge_ids()}
            mats.update(zip(chords, ws))
            conn = Connection(graph, mats)
            direct = spin_network_value(snf, conn)
            via_block = pw_evaluate(series, ws)
            assert abs(direct - via_block) < 1e-10


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
    point = SchottkyPoint((haar_su2(rng), haar_su2(rng)))
    got = nonabelian_theta(graph, coloring, k, om, point)
    jvec, block = spin_network_blocks(graph, coloring)
    damped = expm(su2_laplacian_block(jvec, om) / (2 * k)) @ block
    want = pw_evaluate(PWSeries(2, {jvec: damped}), point.matrices)
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
    a = nonabelian_theta(graph, coloring, 1, om, SchottkyPoint(ws))
    b = nonabelian_theta(graph, coloring, 1, om, SchottkyPoint(moved))
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
            SchottkyPoint((np.eye(2), np.eye(2))),
        )


def test_nonabelian_theta_genus_mismatch():
    graph = theta_graph()
    with pytest.raises(ValueError):
        nonabelian_theta(
            graph,
            {0: 1, 2: 1, 4: 0},
            1,
            PeriodMatrix([[1j]]),
            SchottkyPoint((np.eye(2),)),
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
        p = SchottkyPoint((w1 @ expm(s * gen), w2))
        return nonabelian_theta(graph, coloring, 1, om, p)

    dx = (f(h) - f(-h)) / (2 * h)
    dy = (f(1j * h) - f(-1j * h)) / (2 * h)
    assert abs(dy - 1j * dx) < 1e-6


def test_schottky_point_validation():
    with pytest.raises(ValueError):
        SchottkyPoint((np.diag([2.0, 1.0]),))
