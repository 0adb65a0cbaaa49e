"""Holonomy, gauge action, and spin network evaluation on trivalent graphs."""

import itertools
import math
import tracemalloc

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
from verlinde.graphs import TrivalentGraph, chain_graph, dumbbell_graph, multi_theta, theta_graph
from verlinde.su2reps import AdmissibilityError, _rep_batch, admissible_triple, omega, rep_matrix

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


def test_nan_matrices_are_rejected():
    # a NaN determinant compares false against any tolerance
    graph = theta_graph()
    nan = [[math.nan, 0], [0, 1]]
    with pytest.raises(ValueError):
        Connection(graph, {0: nan, 2: I2, 4: I2})
    with pytest.raises(ValueError):
        GaugeTransform(graph, {v: np.full((2, 2), math.nan) for v in range(graph.n_vertices)})


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


def _product_colorings(graph, cap):
    # every tuple in itertools.product order, filtered afterwards
    eids = graph.edge_ids()
    stars = [tuple(graph.edge_of(d) for d in graph.star(v)) for v in range(graph.n_vertices)]
    out = []
    for combo in itertools.product(range(cap + 1), repeat=len(eids)):
        coloring = dict(zip(eids, combo))
        if all(admissible_triple(*(coloring[e] for e in st)) for st in stars):
            out.append(coloring)
    return out


GENERATED = [theta_graph(), dumbbell_graph(), chain_graph(2), chain_graph(3), multi_theta(2), multi_theta(3)]


@pytest.mark.parametrize("graph", GENERATED)
@pytest.mark.parametrize("cap", range(5))
def test_pruned_colorings_match_product_filter(graph, cap):
    assert admissible_colorings(graph, cap) == _product_colorings(graph, cap)


def test_colorings_refused_past_their_cap(monkeypatch):
    graph = multi_theta(3)
    count = len(admissible_colorings(graph, 3))
    monkeypatch.setattr(gauge, "MAX_GAUGE_COLORINGS", count)
    assert len(admissible_colorings(graph, 3)) == count
    monkeypatch.setattr(gauge, "MAX_GAUGE_COLORINGS", count - 1)
    with pytest.raises(ValueError, match=f"stop at {count - 1}, cap 3 gives more"):
        admissible_colorings(graph, 3)


GAUGE_CASES = [
    (theta_graph(), {0: 1, 2: 1, 4: 0}),
    (theta_graph(), {0: 1, 2: 1, 4: 2}),
    (theta_graph(), {0: 2, 2: 2, 4: 2}),
    (theta_graph(), {0: 4, 2: 4, 4: 4}),
    (dumbbell_graph(), {0: 2, 2: 2, 4: 2}),
    (dumbbell_graph(), {0: 4, 2: 4, 4: 0}),
    (multi_theta(3), None),
]


def _einsum_values(snf, batch, optimize):
    # the network as one np.einsum call on the kernels the package builds;
    # optimize=True searches the path itself
    labels, subscripts, _, _ = snf._plan
    operands = []
    for tensor, sub in zip([*snf.vertex_tensors, *_rep_batch(labels, batch, paired=True)], subscripts):
        operands += [tensor, list(sub)]
    return np.einsum(*operands, list(subscripts[-1]), optimize=optimize)


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph()])
def test_cached_contraction_path_keeps_bits(graph):
    # the steps replayed on the cached path against np.einsum searching its
    # own; bit for bit with numpy 2.4.6, whose einsum split the steps follow
    rng = np.random.default_rng(16)
    conns = [random_connection(graph, rng) for _ in range(3)]
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, 4)]
    cached = [spin_network_value(snf, conn) for snf in networks for conn in conns]
    searched = [
        complex(_einsum_values(snf, np.stack([conn.matrices[e] for e in graph.edge_ids()])[None], True)[0])
        for snf in networks
        for conn in conns
    ]
    assert len(cached) > 20
    assert [(z.real.hex(), z.imag.hex()) for z in cached] == [
        (z.real.hex(), z.imag.hex()) for z in searched
    ]


def test_contraction_path_cache_is_bounded():
    # bounded, and wide enough for every coloring of one admissible_colorings
    # call, at one row and at many
    for cache, wide in ((gauge._contraction_path, 1), (gauge._contraction_steps, 2)):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= wide * gauge.MAX_GAUGE_COLORINGS
    assert gauge._pair_rule.cache_info().maxsize is not None


def test_network_is_planned_once(monkeypatch):
    calls = []
    plan = gauge._contraction_steps

    def counted(*args):
        calls.append(args[2])
        return plan(*args)

    monkeypatch.setattr(gauge, "_contraction_steps", counted)
    graph = dumbbell_graph()
    snf = spin_network(graph, {0: 2, 2: 2, 4: 2})
    rng = np.random.default_rng(17)
    for _ in range(5):
        spin_network_value(snf, random_connection(graph, rng))
    n_edges = len(graph.edge_ids())
    rows = 2 * gauge._BLOCK + 1
    gauge._values_batch(snf, gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2))
    # one program for single rows, one shared by the three wide blocks
    assert calls == [1, 3]
    spin_network_value(spin_network(graph, {0: 2, 2: 2, 4: 2}), random_connection(graph, rng))
    assert calls == [1, 3, 1]


def _plan_kinds(snf):
    # does the one-row program fold a step of several constants, and does it
    # replay a step that numpy does not split into pairs?
    fold, steps = gauge._contraction_steps(*snf._plan[1:3], 1)
    return any(len(ids) > 1 for ids, _ in fold), any(len(ids) != 2 for ids, _ in steps)


@pytest.mark.parametrize("graph,cap", [(chain_graph(4), 2), (multi_theta(4), 2), (multi_theta(5), 1)])
def test_replay_matches_einsum_on_cached_path_bitwise(graph, cap):
    # the networks whose plans fold a vertex-with-vertex step or keep a step
    # of three operands (the all-zero colorings here), and a spread of others,
    # whose vertex transposes fold; bit for bit with numpy 2.4.6, whose einsum
    # split the replay follows.  Row counts below the largest index size get
    # their own program, as einsum orders the batch axis among the others there.
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, cap)]
    kinds = [_plan_kinds(snf) for snf in networks]
    picked = [snf for snf, kind in zip(networks, kinds) if any(kind)] + networks[1::25]
    assert any(folded for folded, _ in kinds) and any(odd for _, odd in kinds)
    rng = np.random.default_rng(24)
    n_edges = len(graph.edge_ids())
    for rows in (1, 2, 3, 7, 100):
        batch = gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2)
        for snf in picked:
            want = _einsum_values(snf, batch, gauge._contraction_path(*snf._plan[1:3]))
            assert gauge._values_batch(snf, batch).tobytes() == want.tobytes(), (rows, snf.coloring)


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph(), multi_theta(3)])
def test_warm_value_makes_no_multi_operand_einsum_call(graph, monkeypatch):
    calls = []
    einsum = np.einsum

    def counted(*operands, **kwargs):
        calls.append((len(operands) - 1, kwargs))
        return einsum(*operands, **kwargs)

    def no_path(*args, **kwargs):
        raise AssertionError("einsum_path called")

    snf = spin_network(graph, {e: 2 for e in graph.edge_ids()})
    conn = random_connection(graph, np.random.default_rng(18))
    value = spin_network_value(snf, conn)
    monkeypatch.setattr(np, "einsum", counted)
    monkeypatch.setattr(np, "einsum_path", no_path)
    assert spin_network_value(snf, conn) == value
    # these plans are all pair steps: numpy splits each into single-operand
    # einsums, reshapes and a matmul
    assert calls and all(call == (1, {}) for call in calls)


def test_spin_network_refuses_more_darts_than_einsum_letters():
    graph = multi_theta(10)  # 54 darts and the batch axis
    snf = spin_network(graph, {e: 0 for e in graph.edge_ids()})
    with pytest.raises(ValueError, match="spin networks stop at 51 darts, got 54"):
        spin_network_value(snf, Connection(graph, {e: I2 for e in graph.edge_ids()}))


def _per_entry_rep(n, mats):
    # the batch expansion as the package first wrote it: one array call per
    # term of each entry, every entry summed from zero in ascending s
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    cols = []
    for j in range(n + 1):
        left = [math.comb(n - j, s) * a ** (n - j - s) * c**s for s in range(n - j + 1)]
        right = [math.comb(j, t) * b ** (j - t) * d**t for t in range(j + 1)]
        col = [0] * (n + 1)
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                col[s + t] += ls * rt
        cols.append(col)
    out = np.empty((len(mats), n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            out[:, i, j] = cols[j][i] * math.sqrt(math.comb(n, j) / math.comb(n, i))
    return out


def _oracle_values_batch(snf, batch):
    # whole-batch evaluation with per-entry reps and the kernel einsum against
    # omega, on the same cached contraction path
    graph = snf.graph
    bax = graph.n_darts
    operands = []
    for v in range(graph.n_vertices):
        operands += [snf.vertex_tensors[v], list(graph.star(v))]
    for k, (d, p) in enumerate(graph.edges()):
        n = snf.coloring[d]
        kernel = np.einsum("ij,bjk->bik", omega(n).astype(complex), _per_entry_rep(n, batch[:, k]))
        operands += [kernel, [bax, d, p]]
    subscripts = tuple(tuple(sub) for sub in operands[1::2]) + ((bax,),)
    shapes = [t.shape for t in operands[::2]]
    shapes[graph.n_vertices :] = [(1,) + s[1:] for s in shapes[graph.n_vertices :]]
    path = gauge._contraction_path(subscripts, tuple(shapes))
    return np.einsum(*operands, [bax], optimize=path)


NETWORK_CASES = [(theta_graph(), 4), (dumbbell_graph(), 3), (multi_theta(3), 2)]


@pytest.mark.parametrize("graph,cap", NETWORK_CASES)
def test_values_batch_matches_whole_batch_oracle_bitwise(graph, cap):
    rng = np.random.default_rng(23)
    colorings = admissible_colorings(graph, cap)
    n_edges = len(graph.edge_ids())
    for rows in (1, 7, gauge._BLOCK, gauge._BLOCK + 1, 16384):
        batch = gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2)
        # every coloring on short batches; the largest labels and a spread on
        # long ones, which cross block boundaries
        picked = colorings if rows < 100 else colorings[-1:] + colorings[1 :: len(colorings) // 3]
        for coloring in picked:
            snf = spin_network(graph, coloring)
            got = gauge._values_batch(snf, batch)
            assert got.tobytes() == _oracle_values_batch(snf, batch).tobytes(), (rows, coloring)


def test_probe_reports_match_whole_batch_oracle(monkeypatch):
    graph = theta_graph()
    colorings = admissible_colorings(graph, 4)[:4]
    a, b = (spin_network(graph, c) for c in admissible_colorings(graph, 4)[1:3])

    def reports():
        pw = peter_weyl_probe(graph, colorings, 20000, seed=5)
        return pw.gram.tobytes(), pw.stderr.tobytes(), distinguishability_probe(a, b, 20000, seed=6)

    blocked = reports()
    monkeypatch.setattr(gauge, "_values_batch", _oracle_values_batch)
    assert blocked == reports()


@pytest.mark.parametrize("n", range(9))
def test_rep_matrix_batch_is_c_contiguous(n):
    mats = gauge._haar_batch(np.random.default_rng(n), 10)
    for batch in (mats, mats[::2], mats[:1]):
        rho = rep_matrix(n, batch)
        assert rho.flags.c_contiguous
        assert rho.tobytes() == _per_entry_rep(n, batch).tobytes()


@pytest.mark.parametrize("labels", [(0,), (4, 4, 4), (1, 3, 2), (0, 2, 2), (2,) * 9])
@pytest.mark.parametrize("rows", [1, 2, 7, 2049])
def test_kernel_pass_matches_signed_row_reversal_bitwise(labels, rows):
    mats = gauge._haar_batch(np.random.default_rng(rows), rows * len(labels))
    batch = mats.reshape(rows, len(labels), 2, 2)
    kernels = _rep_batch(labels, batch, paired=True)
    assert len(kernels) == len(labels)
    for k, (n, kernel) in enumerate(zip(labels, kernels)):
        sign = np.diag(omega(n)[:, ::-1])[:, None]
        want = rep_matrix(n, batch[:, k])[:, ::-1] * sign + 0
        assert kernel.flags.c_contiguous
        assert kernel.tobytes() == want.tobytes(), (k, n)


def test_peter_weyl_memory_stays_within_one_block():
    # a 16384-sample chunk is evaluated in blocks of _BLOCK // E rows, so the
    # kernels and einsum intermediates of one block are live at a time
    graph = theta_graph()
    colorings = admissible_colorings(graph, 4)[:4]
    tracemalloc.start()
    try:
        peter_weyl_probe(graph, colorings, 16384, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


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


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_probe_refuses_sample_count_not_a_positive_int(count):
    snf = spin_network(theta_graph(), {0: 1, 2: 1, 4: 0})
    with pytest.raises(ValueError, match="sample count must be a positive integer"):
        distinguishability_probe(snf, snf, count)


# -- Peter-Weyl orthogonality -------------------------------------------------


@pytest.mark.parametrize("count", [0, -5, 2.5, True])
def test_peter_weyl_refuses_sample_count_not_a_positive_int(count):
    with pytest.raises(ValueError, match="sample count must be a positive integer"):
        peter_weyl_probe(theta_graph(), [{0: 0, 2: 0, 4: 0}], count)


def test_peter_weyl_refuses_no_colorings():
    with pytest.raises(ValueError, match="needs at least one coloring"):
        peter_weyl_probe(theta_graph(), [], 100)



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
