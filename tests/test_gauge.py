"""Holonomy, gauge action, and spin network evaluation on trivalent graphs."""

import numpy as np
import pytest

from verlinde import gauge
from verlinde.gauge import (
    Connection,
    GaugeTransform,
    admissible_colorings,
    distinguishability_probe,
    gauge_act,
    haar_su2,
    holonomy,
    peter_weyl_probe,
    random_connection,
    random_transform,
    spin_network,
    spin_network_value,
)
from verlinde.graphs import TrivalentGraph, dumbbell_graph, multi_theta, theta_graph
from verlinde.su2reps import AdmissibilityError

I2 = np.eye(2)


def inv2(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


# -- Haar sampling ----------------------------------------------------------


def test_haar_su2_is_special_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = haar_su2(rng)
        assert np.allclose(u @ u.conj().T, I2, atol=1e-12)
        assert abs(np.linalg.det(u) - 1) < 1e-12


# -- connections ------------------------------------------------------------


def test_connection_partner_dart_is_inverse():
    graph = theta_graph()
    rng = np.random.default_rng(1)
    conn = random_connection(graph, rng)
    for e in graph.edge_ids():
        d = graph.involution[e]
        assert np.allclose(conn.matrix(e) @ conn.matrix(d), I2, atol=1e-12)


def test_connection_rejects_non_unimodular():
    graph = theta_graph()
    mats = {e: 2 * I2 for e in graph.edge_ids()}
    with pytest.raises(ValueError):
        Connection(graph, mats)


def test_connection_requires_exact_edge_set():
    graph = theta_graph()
    with pytest.raises(ValueError):
        Connection(graph, {0: I2, 2: I2})
    mats = {e: I2 for e in graph.edge_ids()}
    mats[1] = I2
    with pytest.raises(ValueError):
        Connection(graph, mats)


def test_connection_rejects_bad_shape():
    graph = theta_graph()
    with pytest.raises(ValueError):
        Connection(graph, {0: np.eye(3), 2: I2, 4: I2})


# -- holonomy ---------------------------------------------------------------


def test_holonomy_empty_path_identity():
    conn = random_connection(theta_graph(), np.random.default_rng(2))
    assert np.allclose(holonomy(conn, []), I2)


def test_holonomy_single_dart():
    graph = theta_graph()
    conn = random_connection(graph, np.random.default_rng(3))
    assert np.allclose(holonomy(conn, [0]), conn.matrix(0))
    assert np.allclose(holonomy(conn, [1]), inv2(conn.matrix(0)))


def test_holonomy_loop_product():
    # theta: dart 0 runs v0 -> v1, dart 3 runs v1 -> v0
    graph = theta_graph()
    conn = random_connection(graph, np.random.default_rng(4))
    expect = conn.matrix(0) @ inv2(conn.matrix(2))
    assert np.allclose(holonomy(conn, [0, 3]), expect, atol=1e-12)


def test_holonomy_reversal_is_inverse():
    graph = theta_graph()
    conn = random_connection(graph, np.random.default_rng(5))
    fwd = holonomy(conn, [0, 3])
    back = holonomy(conn, [2, 1])
    assert np.allclose(fwd @ back, I2, atol=1e-12)


def test_holonomy_concatenation_is_product():
    graph = dumbbell_graph()
    conn = random_connection(graph, np.random.default_rng(6))
    # loop at v0, then bridge out and back
    p1, p2 = [0], [4, 5]
    assert np.allclose(
        holonomy(conn, p1 + p2),
        holonomy(conn, p1) @ holonomy(conn, p2),
        atol=1e-12,
    )


def test_holonomy_rejects_non_composable():
    graph = theta_graph()
    conn = random_connection(graph, np.random.default_rng(7))
    with pytest.raises(ValueError, match="path"):
        holonomy(conn, [0, 2])


# -- gauge action -----------------------------------------------------------


def test_gauge_identity_transform_is_noop():
    graph = theta_graph()
    conn = random_connection(graph, np.random.default_rng(8))
    acted = gauge_act(conn, GaugeTransform(graph, {v: I2 for v in (0, 1)}))
    for e in graph.edge_ids():
        assert np.allclose(acted.matrices[e], conn.matrices[e])


def test_gauge_central_transform_is_noop():
    graph = dumbbell_graph()
    conn = random_connection(graph, np.random.default_rng(9))
    central = GaugeTransform(graph, {0: -I2, 1: -I2})
    acted = gauge_act(conn, central)
    for e in graph.edge_ids():
        assert np.allclose(acted.matrices[e], conn.matrices[e], atol=1e-12)


def test_gauge_actions_compose_pointwise():
    graph = theta_graph()
    rng = np.random.default_rng(10)
    conn = random_connection(graph, rng)
    g1 = random_transform(graph, rng)
    g2 = random_transform(graph, rng)
    seq = gauge_act(gauge_act(conn, g1), g2)
    combo = GaugeTransform(
        graph, {v: g2.elements[v] @ g1.elements[v] for v in (0, 1)}
    )
    direct = gauge_act(conn, combo)
    for e in graph.edge_ids():
        assert np.allclose(seq.matrices[e], direct.matrices[e], atol=1e-12)


def test_gauge_conjugates_loop_holonomy():
    graph = theta_graph()
    rng = np.random.default_rng(11)
    conn = random_connection(graph, rng)
    gt = random_transform(graph, rng)
    loop = [0, 3]  # based at v0
    before = holonomy(conn, loop)
    after = holonomy(gauge_act(conn, gt), loop)
    g0 = gt.elements[0]
    assert np.allclose(after, g0 @ before @ inv2(g0), atol=1e-10)
    assert abs(np.trace(after) - np.trace(before)) < 1e-10


# -- spin networks ------------------------------------------------------------


def test_spin_network_rejects_inadmissible_coloring():
    graph = theta_graph()
    with pytest.raises(AdmissibilityError):
        spin_network(graph, {0: 1, 2: 1, 4: 1})
    with pytest.raises(AdmissibilityError):
        spin_network(graph, {0: 4, 2: 1, 4: 1})


def test_spin_network_requires_full_coloring():
    graph = theta_graph()
    with pytest.raises(ValueError):
        spin_network(graph, {0: 1, 2: 1})


def test_spin_network_rejects_non_trivalent():
    graph = TrivalentGraph.from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        spin_network(graph, {0: 1, 2: 1})


def test_spin_network_rejects_legs():
    graph = TrivalentGraph.from_edges(1, [(0, 0)], parabolic=[0])
    with pytest.raises(ValueError):
        spin_network(graph, {0: 0})


def test_all_zero_network_evaluates_to_one():
    for graph in (theta_graph(), dumbbell_graph()):
        snf = spin_network(graph, {e: 0 for e in graph.edge_ids()})
        conn = random_connection(graph, np.random.default_rng(14))
        assert abs(spin_network_value(snf, conn) - 1) < 1e-12


def test_theta_110_identity_connection_is_one():
    graph = theta_graph()
    snf = spin_network(graph, {0: 1, 2: 1, 4: 0})
    val = spin_network_value(snf, Connection(graph, {e: I2 for e in graph.edge_ids()}))
    assert isinstance(val, complex)
    assert abs(val - 1) < 1e-12


GAUGE_CASES = [
    (theta_graph(), {0: 1, 2: 1, 4: 0}),
    (theta_graph(), {0: 1, 2: 1, 4: 2}),
    (theta_graph(), {0: 2, 2: 2, 4: 2}),
    (theta_graph(), {0: 4, 2: 4, 4: 4}),
    (dumbbell_graph(), {0: 2, 2: 2, 4: 2}),
    (dumbbell_graph(), {0: 4, 2: 4, 4: 0}),
    (multi_theta(3), None),
]


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph()])
def test_cached_contraction_path_keeps_bits(graph, monkeypatch):
    rng = np.random.default_rng(16)
    conns = [random_connection(graph, rng) for _ in range(3)]
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, 4)]
    cached = [spin_network_value(snf, conn) for snf in networks for conn in conns]
    monkeypatch.setattr(gauge, "_contraction_path", lambda *args: True)
    searched = [spin_network_value(snf, conn) for snf in networks for conn in conns]
    assert len(cached) > 20
    assert [(z.real.hex(), z.imag.hex()) for z in cached] == [
        (z.real.hex(), z.imag.hex()) for z in searched
    ]


@pytest.mark.parametrize("graph,coloring", GAUGE_CASES)
def test_spin_network_gauge_invariance(graph, coloring):
    if coloring is None:
        coloring = {e: 2 for e in graph.edge_ids()}
    snf = spin_network(graph, coloring)
    rng = np.random.default_rng(15)
    for _ in range(5):
        conn = random_connection(graph, rng)
        base = spin_network_value(snf, conn)
        for _ in range(3):
            acted = gauge_act(conn, random_transform(graph, rng))
            assert abs(spin_network_value(snf, acted) - base) < 1e-10


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph(), multi_theta(3)])
def test_orbit_batch_matches_single_evaluations(graph):
    rng = np.random.default_rng(21)
    conn = random_connection(graph, rng)
    transforms = [random_transform(graph, rng) for _ in range(7)]
    batch = gauge._orbit_batch(conn, transforms)
    assert batch.shape == (8, len(graph.edge_ids()), 2, 2)
    for coloring in admissible_colorings(graph, 2):
        snf = spin_network(graph, coloring)
        values = gauge._values_batch(snf, batch)
        singles = [conn] + [gauge_act(conn, t) for t in transforms]
        for got, c in zip(values, singles):
            assert abs(got - spin_network_value(snf, c)) < 1e-14


def test_orbit_spread_is_rounding_noise():
    graph = dumbbell_graph()
    rng = np.random.default_rng(22)
    conn = random_connection(graph, rng)
    transforms = [random_transform(graph, rng) for _ in range(5)]
    colorings = admissible_colorings(graph, 3)
    spread = gauge.orbit_spread(conn, colorings, transforms)
    assert 0.0 <= spread < 1e-12
    assert gauge.orbit_spread(conn, colorings, []) == 0.0


def test_spin_network_value_mismatched_graph():
    snf = spin_network(theta_graph(), {0: 1, 2: 1, 4: 0})
    conn = Connection(dumbbell_graph(), {e: I2 for e in (0, 2, 4)})
    with pytest.raises(ValueError):
        spin_network_value(snf, conn)


# -- distinguishability -------------------------------------------------------


def test_probe_identical_networks_never_separate():
    graph = theta_graph()
    snf = spin_network(graph, {0: 1, 2: 1, 4: 2})
    report = distinguishability_probe(snf, snf, 200, seed=0)
    assert report.max_difference == 0.0
    assert not report.separated


def test_probe_separates_permuted_colorings():
    graph = theta_graph()
    a = spin_network(graph, {0: 1, 2: 1, 4: 0})
    b = spin_network(graph, {0: 0, 2: 1, 4: 1})
    report = distinguishability_probe(a, b, 1000, seed=0)
    assert report.separated
    assert report.max_difference > 1e-6
    assert 0 <= report.at_sample < 1000


def test_probe_separates_trivial_from_nontrivial():
    graph = theta_graph()
    a = spin_network(graph, {0: 0, 2: 0, 4: 0})
    b = spin_network(graph, {0: 1, 2: 1, 4: 0})
    report = distinguishability_probe(a, b, 1000, seed=1)
    assert report.separated


# -- Peter-Weyl orthogonality -------------------------------------------------


def test_peter_weyl_orthogonality_monte_carlo():
    graph = theta_graph()
    colorings = [
        {0: 0, 2: 0, 4: 0},
        {0: 1, 2: 1, 4: 0},
        {0: 1, 2: 1, 4: 2},
        {0: 2, 2: 2, 4: 2},
    ]
    report = peter_weyl_probe(graph, colorings, samples=100_000, seed=0)
    n = len(colorings)
    assert report.gram.shape == (n, n)
    assert abs(report.gram[0, 0] - 1) < 1e-12  # constant function
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            tol = 3 * report.stderr[i, j] + 1e-12
            assert abs(report.gram[i, j]) < tol, (i, j)
    for i in range(1, n):
        assert report.gram[i, i].real > 5 * report.stderr[i, i]
