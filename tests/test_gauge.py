"""Holonomy, gauge action, and spin network evaluation on trivalent graphs."""

import functools
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
from verlinde.graphs import (
    TrivalentGraph,
    chain_graph,
    chord_edges,
    dumbbell_graph,
    enumerate_trivalent,
    multi_theta,
    theta_graph,
)
from verlinde.su2reps import AdmissibilityError, _batch_plan, _rep_batch, admissible_triple, omega, rep_matrix
from verlinde.thetacst import spin_network_blocks

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


def test_connection_stores_one_read_only_array_and_leaves_input_writable():
    graph = theta_graph()
    mats = {e: haar_su2(np.random.default_rng(e)) for e in graph.edge_ids()}
    conn = Connection(graph, mats)
    assert conn.array.shape == (3, 2, 2) and not conn.array.flags.writeable
    for k, e in enumerate(graph.edge_ids()):
        assert np.shares_memory(conn.matrices[e], conn.array)
        assert conn.matrices[e].tobytes() == mats[e].tobytes() == conn.array[k].tobytes()
        assert mats[e].flags.writeable


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


# the genus-3 classes come last, so the graphs before them keep their test ids
GENERATED = [theta_graph(), dumbbell_graph(), chain_graph(2), chain_graph(3), multi_theta(2), multi_theta(3)]
GENERATED += enumerate_trivalent(3)


@pytest.mark.parametrize("graph", GENERATED)
@pytest.mark.parametrize("cap", range(5))
def test_pruned_colorings_match_product_filter(graph, cap):
    assert admissible_colorings(graph, cap) == _product_colorings(graph, cap)


@pytest.mark.parametrize("cap", [2.0, 2.5, True, -1])
def test_colorings_refuse_a_cap_that_is_no_count(cap):
    with pytest.raises(ValueError, match="cap must be a nonnegative integer"):
        admissible_colorings(theta_graph(), cap)


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


def _rounding_count(subscripts, path, size):
    """n of the bound below, for an einsum contraction along path.

    Each entry of a network is a sum of terms, each a product of one entry
    per operand.  Along any path, a term meets N - 1 multiplications, N the
    number of operands, and at a step that sums indices of total size S it
    meets at most S - 1 additions, in whatever order the step adds.  In
    complex arithmetic fl(x + y) = (x + y)(1 + d) with |d| <= u, and
    fl(xy) = xy(1 + d) with |d| <= sqrt(2) gamma_2 <= gamma_3 (Higham,
    Accuracy and Stability, lemma 3.5).  By lemma 3.3 each term reaches the
    result times 1 + t with |t| <= gamma_n, n = 3 (N - 1) + sum (S - 1)
    over the steps, so the rounding error is at most gamma_n times the sum
    of the terms' absolute values: the network on entrywise absolute values.
    """
    *terms, out = [set(t) for t in subscripts]
    n = 3 * (len(terms) - 1)
    for step in path:
        picked = set().union(*[terms.pop(p) for p in sorted(step, reverse=True)])
        left = out.union(*terms)
        n += math.prod(size[ix] for ix in picked - left) - 1
        terms.append(picked & left)
    return n


def _assert_within_bound(got, operands, subscripts, path, program_path):
    """|got - np.einsum| <= 2 gamma_n * (the network on |operands|).

    got contracts operands along program_path, and np.einsum along path (a
    list of steps; None contracts in one step, as optimize=False does).
    Each side is within gamma_n * |network| of the exact value, n the
    larger of the two counts, so they are within twice that of each other.
    The network on absolute values sums nonnegative terms, so its computed
    value is at least (1 - gamma_n) times the exact one.
    """
    size = {ix: n for x, sub in zip(operands, subscripts) for ix, n in zip(sub, np.shape(x))}
    path = [tuple(range(len(operands)))] if path is None else list(path)
    n = max(_rounding_count(subscripts, p, size) for p in (path, program_path))
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)

    def contract(ops):
        args = [a for x, sub in zip(ops, subscripts) for a in (x, list(sub))]
        return np.einsum(*args, list(subscripts[-1]), optimize=["einsum_path", *path])

    want = contract(operands)
    absolute = contract([np.abs(x) for x in operands])
    bound = 2 * gamma * absolute / (1 - gamma)
    assert np.all(np.abs(got - want) <= bound), float(np.max(np.abs(got - want) / bound))


def _network_operands(snf, batch):
    # the vertex tensors and the edge kernels the package builds, with the
    # network's index lists and its own contraction path
    subscripts = gauge._subscripts(snf.graph)
    kernels = _rep_batch(snf._program[3], batch)
    return [*snf.vertex_tensors, *kernels], subscripts, gauge._contraction_path(subscripts, snf.graph.n_darts)


def _searched_path(operands, subscripts, bax):
    # numpy's own greedy search on the operands' shapes at one row, as the
    # package searched per coloring before it searched once per graph (on a
    # wide batch, numpy's size cap can force one slow many-operand step)
    args = []
    for x, sub in zip(operands, subscripts):
        args += [np.empty([1 if ix == bax else n for ix, n in zip(sub, x.shape)]), list(sub)]
    return np.einsum_path(*args, list(subscripts[-1]), optimize="greedy")[0][1:]


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph()])
def test_one_path_per_graph_matches_searched_einsum(graph):
    # the graph's path against the one numpy searches on each coloring's
    # shapes: every coloring to cap 4, at three connections
    rng = np.random.default_rng(16)
    conns = [random_connection(graph, rng) for _ in range(3)]
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, 4)]
    assert len(networks) * len(conns) > 20
    for snf in networks:
        for conn in conns:
            operands, subscripts, path = _network_operands(snf, conn.array[None])
            got = spin_network_value(snf, conn)
            _assert_within_bound(got, operands, subscripts, _searched_path(operands, subscripts, graph.n_darts), path)


def test_contraction_path_cache_is_bounded():
    # bounded, and keyed by the graph alone: every coloring shares one program
    assert gauge._program.cache_info().maxsize is not None
    graph = multi_theta(3)
    gauge._program.cache_clear()
    conn = random_connection(graph, np.random.default_rng(19))
    for coloring in admissible_colorings(graph, 2):
        spin_network_value(spin_network(graph, coloring), conn)
    assert gauge._program.cache_info().currsize == 1


def test_network_is_planned_once(monkeypatch):
    searches = []
    search = np.einsum_path

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counted_search)
    gauge._program.cache_clear()
    graph = dumbbell_graph()
    snf = spin_network(graph, {0: 2, 2: 2, 4: 2})
    rng = np.random.default_rng(17)
    for _ in range(5):
        spin_network_value(snf, random_connection(graph, rng))
    n_edges = len(graph.edge_ids())
    for rows in (1, 7, 2 * gauge._BLOCK + 1):
        gauge._values_batch(snf, gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2))
    # one program serves every row count
    assert (gauge._program.cache_info().misses, len(searches)) == (1, 1)
    # and every coloring: a second one builds nothing
    spin_network_value(spin_network(graph, {0: 4, 2: 4, 4: 0}), random_connection(graph, rng))
    assert (gauge._program.cache_info().misses, len(searches)) == (1, 1)


def test_second_sweep_builds_no_kernel_plan():
    # chain-4's 365 cap-2 networks outnumber the 256 plans the cache keeps;
    # each network holds its own, so a second pass over them builds none
    graph = chain_graph(4)
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, 2)]
    assert len(networks) == 365
    conn = random_connection(graph, np.random.default_rng(26))
    first = [spin_network_value(snf, conn) for snf in networks]
    built = _batch_plan.cache_info().misses
    assert [spin_network_value(snf, conn) for snf in networks] == first
    assert _batch_plan.cache_info().misses == built


def test_chain_sweep_searches_one_path(monkeypatch):
    # every chain-4 coloring to cap 3, as `gauge check --graph chain-4 --cap 3`
    # evaluates them: one path search for the graph, not one per coloring
    searches = []
    search = np.einsum_path

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    graph = chain_graph(4)
    colorings = admissible_colorings(graph, 3)
    assert len(colorings) == 1714
    gauge._program.cache_clear()
    monkeypatch.setattr(np, "einsum_path", counted)
    conn = random_connection(graph, np.random.default_rng(25))
    for coloring in colorings:
        spin_network_value(spin_network(graph, coloring), conn)
    assert len(searches) == 1


@pytest.mark.parametrize("graph,cap", [(chain_graph(4), 2), (multi_theta(4), 2), (multi_theta(5), 1)])
def test_program_matches_einsum_on_its_path(graph, cap):
    # the all-zero colorings and a spread of others, on the graph's path;
    # the row counts cross no block boundary here
    networks = [spin_network(graph, c) for c in admissible_colorings(graph, cap)]
    picked = networks[:1] + networks[1::25]
    rng = np.random.default_rng(24)
    n_edges = len(graph.edge_ids())
    for rows in (1, 2, 3, 7, 100):
        batch = gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2)
        for snf in picked:
            operands, subscripts, path = _network_operands(snf, batch)
            _assert_within_bound(gauge._values_batch(snf, batch), operands, subscripts, path, path)


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph(), multi_theta(3)])
def test_warm_value_makes_no_multi_operand_einsum_call(graph, monkeypatch):
    # nor any einsum call at all: a warm value runs matmul steps only
    def refuse(*args, **kwargs):
        raise AssertionError("einsum called")

    snf = spin_network(graph, {e: 2 for e in graph.edge_ids()})
    conn = random_connection(graph, np.random.default_rng(18))
    value = spin_network_value(snf, conn)
    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np, "einsum_path", refuse)
    assert spin_network_value(snf, conn) == value


@pytest.mark.parametrize("graph,cap", [(theta_graph(), 3), (dumbbell_graph(), 3), (multi_theta(3), 2)])
def test_spin_network_blocks_match_plain_einsum(graph, cap):
    # the blocks come from the same programs, with the open block indices
    # where the batch axis was: against one einsum loop over every term
    chords = chord_edges(graph)
    aux = {e: graph.n_darts + i for i, e in enumerate(chords)}
    subscripts = tuple(tuple(graph.star(v)) for v in range(graph.n_vertices))
    subscripts += tuple((d, aux[d]) if d in aux else (d, p) for d, p in graph.edges())
    subscripts += (tuple(graph.involution[e] for e in chords) + tuple(aux[e] for e in chords),)
    for coloring in admissible_colorings(graph, cap):
        labels, block = spin_network_blocks(graph, coloring)
        operands = [*spin_network(graph, coloring).vertex_tensors, *(omega(coloring[d]) for d, _ in graph.edges())]
        got = block.reshape([n + 1 for n in labels] * 2)
        _assert_within_bound(got, operands, subscripts, None, gauge._contraction_path(subscripts))


# -- the program per coloring, as the package first compiled it ---------------
#
# A frozen copy of the per-coloring compile that the one program per graph
# replaced: it folded the steps on constants alone and laid out each constant
# side once per network.  The graph's program runs the same path, transposes
# and np.matmul calls, so its values and blocks must keep these bits.


_oracle_path = functools.lru_cache(maxsize=None)(gauge._contraction_path)


def _oracle_compile(subscripts, consts, bax=None):
    *terms, out = subscripts
    size = {ix: n for term, x in zip(terms, consts) for ix, n in zip(term, x.shape)}
    size[bax] = -1
    slots = list(zip(terms, consts)) + [(term, i) for i, term in enumerate(terms[len(consts) :])]
    n_ops = len(terms) - len(consts)
    steps = []
    for pair in _oracle_path(subscripts, bax):
        picked = [slots.pop(p) for p in sorted(pair, reverse=True)]
        (ta, a), (tb, b) = sorted(picked, key=lambda slot: isinstance(slot[1], np.ndarray))
        keep = set(out).union(*(term for term, _ in slots))
        batch = [ix for ix in ta if ix in tb and ix in keep]
        summed = [ix for ix in ta if ix in tb and ix not in keep]
        kept_a = [ix for ix in ta if ix not in tb]
        kept_b = [ix for ix in tb if ix not in ta]
        head = [batch] if batch else []
        form_a = _oracle_form(ta, head + [kept_a, summed], size)
        form_b = _oracle_form(tb, head + [summed, kept_b], size)
        result = tuple(batch + kept_a + kept_b)
        shape = tuple(size[ix] for ix in result)
        if isinstance(a, np.ndarray):
            slots.append((result, _oracle_pair(form_a, form_b, shape, a, b)))
            continue
        if isinstance(b, np.ndarray):
            b = np.asarray(_oracle_matrix(b, *form_b), dtype=complex)
            steps.append(((a,), functools.partial(_oracle_pair, form_a, (None, b.shape), shape, b=b)))
        else:
            steps.append(((a, b), functools.partial(_oracle_pair, form_a, form_b, shape)))
        slots.append((result, n_ops))
        n_ops += 1
    return steps, slots[0]


def _oracle_form(term, groups, size):
    order = [ix for group in groups for ix in group]
    perm = tuple(map(term.index, order)) if order != list(term) else None
    sizes = [[size[ix] for ix in group] for group in groups]
    return perm, tuple(-1 if -1 in s else math.prod(s) for s in sizes)


def _oracle_matrix(x, perm, shape):
    return (x if perm is None else x.transpose(perm)).reshape(shape)


def _oracle_pair(form_a, form_b, shape, a, b):
    return np.matmul(_oracle_matrix(a, *form_a), _oracle_matrix(b, *form_b)).reshape(shape)


def _oracle_values_batch(snf, batch):
    graph = snf.graph
    steps, _ = _oracle_compile(gauge._subscripts(graph), snf.vertex_tensors, graph.n_darts)
    labels = tuple(snf.coloring[d] for d, _ in graph.edges())
    n_blocks = -(-len(batch) // max(1, gauge._BLOCK // len(labels)))
    values = []
    for block in np.array_split(batch, n_blocks) if n_blocks > 1 else [batch]:
        ops = _rep_batch(_batch_plan(labels, True), block)
        for ids, step in steps:
            args = [ops[i] for i in ids]
            for i in ids:
                ops[i] = None
            ops.append(step(*args))
        values.append(ops[-1])
    return np.concatenate(values) if len(values) > 1 else values[0]


def _oracle_blocks(graph, coloring):
    snf = spin_network(graph, coloring)
    chords = chord_edges(graph)
    labels = tuple(int(coloring[e]) for e in chords)
    aux = {e: graph.n_darts + i for i, e in enumerate(chords)}
    edges = graph.edges()
    subscripts = tuple(tuple(graph.star(v)) for v in range(graph.n_vertices))
    subscripts += tuple((d, aux[d]) if d in aux else (d, p) for d, p in edges)
    out = tuple(graph.involution[e] for e in chords) + tuple(aux[e] for e in chords)
    kernels = [omega(coloring[d]).astype(complex) for d, _ in edges]
    _, (term, tensor) = _oracle_compile(subscripts + (out,), [*snf.vertex_tensors, *kernels])
    tensor = tensor.transpose([term.index(ix) for ix in out])
    dim = int(np.prod([n + 1 for n in labels]))
    return labels, tensor.reshape(dim, dim)


ORACLE_CASES = (
    [(theta_graph(), 4), (dumbbell_graph(), 3), (multi_theta(3), 2)]
    + [(graph, 2) for graph in enumerate_trivalent(3)]
    + [(graph, 1) for graph in enumerate_trivalent(4)]
)


@pytest.mark.parametrize("graph,cap", ORACLE_CASES)
def test_graph_program_keeps_the_per_coloring_bits(graph, cap):
    rng = np.random.default_rng(33)
    n_edges = len(graph.edge_ids())
    batches = [gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2) for rows in (1, 7, 2 * gauge._BLOCK + 1)]
    for coloring in admissible_colorings(graph, cap):
        snf = spin_network(graph, coloring)
        for batch in batches:
            assert gauge._values_batch(snf, batch).tobytes() == _oracle_values_batch(snf, batch).tobytes()
        labels, block = spin_network_blocks(graph, coloring)
        want_labels, want = _oracle_blocks(graph, coloring)
        assert labels == want_labels
        assert block.tobytes() == want.tobytes()


def test_spin_network_refuses_more_darts_than_einsum_letters():
    graph = multi_theta(10)  # 54 darts and the batch axis
    snf = spin_network(graph, {e: 0 for e in graph.edge_ids()})
    with pytest.raises(ValueError, match="einsum contractions stop at 52 indices, got 55"):
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


def _oracle_operands(snf, batch):
    # the whole batch's operands, from per-entry reps and the kernel einsum
    # against omega
    graph = snf.graph
    kernels = []
    for k, (d, _) in enumerate(graph.edges()):
        n = snf.coloring[d]
        kernels.append(np.einsum("ij,bjk->bik", omega(n).astype(complex), _per_entry_rep(n, batch[:, k])))
    return [*snf.vertex_tensors, *kernels]


def _assert_matches_oracle(snf, batch, got):
    # numpy's own path on the whole batch against the package's blocks
    subscripts = gauge._subscripts(snf.graph)
    operands = _oracle_operands(snf, batch)
    program_path = gauge._contraction_path(subscripts, snf.graph.n_darts)
    _assert_within_bound(got, operands, subscripts, _searched_path(operands, subscripts, snf.graph.n_darts), program_path)


NETWORK_CASES = [(theta_graph(), 4), (dumbbell_graph(), 3), (multi_theta(3), 2)]


@pytest.mark.parametrize("graph,cap", NETWORK_CASES)
def test_values_batch_matches_whole_batch_oracle(graph, cap):
    rng = np.random.default_rng(23)
    colorings = admissible_colorings(graph, cap)
    n_edges = len(graph.edge_ids())
    for rows in (1, 2, 7, gauge._BLOCK + 1, 16384):
        batch = gauge._haar_batch(rng, rows * n_edges).reshape(rows, n_edges, 2, 2)
        # every coloring on short batches; the largest labels and a spread on
        # long ones, which cross block boundaries
        picked = colorings if rows < 100 else colorings[-1:] + colorings[1 :: len(colorings) // 3]
        for coloring in picked:
            snf = spin_network(graph, coloring)
            _assert_matches_oracle(snf, batch, gauge._values_batch(snf, batch))


def test_probe_reports_match_whole_batch_oracle(monkeypatch):
    # every chunk the probes evaluate, against the whole-batch oracle
    graph = theta_graph()
    colorings = admissible_colorings(graph, 4)[:4]
    a, b = (spin_network(graph, c) for c in admissible_colorings(graph, 4)[1:3])
    values_batch, checked = gauge._values_batch, []

    def checking(snf, batch):
        got = values_batch(snf, batch)
        _assert_matches_oracle(snf, batch, got)
        checked.append(len(batch))
        return got

    monkeypatch.setattr(gauge, "_values_batch", checking)
    pw = peter_weyl_probe(graph, colorings, 20000, seed=5)
    report = distinguishability_probe(a, b, 20000, seed=6)
    assert checked == [16384] * 4 + [3616] * 4 + [16384, 16384, 3616, 3616]
    monkeypatch.setattr(gauge, "_values_batch", values_batch)
    assert peter_weyl_probe(graph, colorings, 20000, seed=5).gram.tobytes() == pw.gram.tobytes()
    assert distinguishability_probe(a, b, 20000, seed=6) == report


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
    kernels = _rep_batch(_batch_plan(labels, True), batch)
    assert len(kernels) == len(labels)
    for k, (n, kernel) in enumerate(zip(labels, kernels)):
        sign = np.diag(omega(n)[:, ::-1])[:, None]
        want = rep_matrix(n, batch[:, k])[:, ::-1] * sign + 0
        assert kernel.flags.c_contiguous
        assert kernel.tobytes() == want.tobytes(), (k, n)


def test_peter_weyl_memory_stays_within_one_block():
    # a 16384-sample chunk is evaluated in blocks of _BLOCK // E rows, so the
    # kernels and step intermediates of one block are live at a time
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
