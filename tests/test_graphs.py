"""Tests for the half-edge graph core.

Enumeration counts are checked against an independent oracle: a direct
degree-constrained multigraph search deduplicated with networkx isomorphism.
"""

import hashlib
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import graphs as graphs_module
from verlinde.graphs import (
    MAX_CANONICAL_VERTICES,
    RibbonStructure,
    TrivalentGraph,
    _components,
    _least_encoding,
    _matching_connected,
    _trivalent_classes,
    _vertex_encoding,
    _vertex_profile,
    canonical_form,
    chain_graph,
    chord_edges,
    contract_edge,
    dumbbell_graph,
    elementary_transformations,
    enumerate_trivalent,
    eulerian_invariant,
    expand_vertex,
    genus,
    graph_from_json,
    graph_to_json,
    is_isomorphic,
    move_graph_components,
    multi_theta,
    planar_dumbbell_ribbon,
    planar_theta_ribbon,
    spanning_tree,
    theta_graph,
    trace_faces,
)

# ---------------------------------------------------------------------------
# oracle: independent enumeration of connected cubic multigraphs
# ---------------------------------------------------------------------------

# Isomorphism class counts for closed connected trivalent graphs, derived from
# the oracle below (no closed-form count is known to compare against).
EXPECTED_CLASS_COUNTS = {2: 2, 3: 5, 4: 17, 5: 71}


def _nx_multigraph(graph):
    m = nx.MultiGraph()
    m.add_nodes_from(range(graph.n_vertices))
    for d0, d1 in graph.edges():
        m.add_edge(graph.vertex_of[d0], graph.vertex_of[d1])
    return m


def oracle_enumerate(g):
    """All connected cubic multigraphs on 2g-2 vertices, up to isomorphism.

    Searches multiplicity assignments over vertex pairs (loops allowed, a loop
    adds 2 to its vertex degree) and dedups with networkx isomorphism.
    """
    n = 2 * g - 2
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    reps = []

    def residual_ok(deg, idx):
        # every vertex whose pairs are exhausted must already have degree 3
        for v in range(n):
            if deg[v] > 3:
                return False
            if deg[v] < 3 and all(
                v not in pairs[t] for t in range(idx, len(pairs))
            ):
                return False
        return True

    def place(idx, deg, chosen):
        if idx == len(pairs):
            if any(d != 3 for d in deg):
                return
            m = nx.MultiGraph()
            m.add_nodes_from(range(n))
            for (u, v), mult in chosen:
                for _ in range(mult):
                    m.add_edge(u, v)
            if not nx.is_connected(m):
                return
            if not any(nx.is_isomorphic(m, r) for r in reps):
                reps.append(m)
            return
        u, v = pairs[idx]
        cap = 3 - deg[u] if u != v else (3 - deg[u]) // 2
        if u != v:
            cap = min(cap, 3 - deg[v])
        for mult in range(cap + 1):
            deg[u] += mult if u != v else 2 * mult
            if u != v:
                deg[v] += mult
            if residual_ok(deg, idx + 1):
                place(idx + 1, deg, chosen + [((u, v), mult)] if mult else chosen)
            deg[u] -= mult if u != v else 2 * mult
            if u != v:
                deg[v] -= mult
        return

    place(0, [0] * n, [])
    return reps


# ---------------------------------------------------------------------------
# construction and genus
# ---------------------------------------------------------------------------


def test_theta_shape():
    g = theta_graph()
    assert g.n_vertices == 2
    assert len(g.edges()) == 3
    assert genus(g) == 2


def test_dumbbell_shape():
    g = dumbbell_graph()
    assert g.n_vertices == 2
    assert len(g.edges()) == 3
    assert sum(1 for d0, d1 in g.edges() if g.vertex_of[d0] == g.vertex_of[d1]) == 2
    assert genus(g) == 2


@pytest.mark.parametrize("gg", [2, 3, 4, 5])
def test_multi_theta_genus(gg):
    graph = multi_theta(gg)
    assert graph.n_vertices == 2 * gg - 2
    assert genus(graph) == gg


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_chain_graph_genus(gg):
    graph = chain_graph(gg)
    assert genus(graph) == gg


def test_euler_counts():
    # closed trivalent: 2|E| - |L| = |F| = 3|V| - |L| with no legs
    for graph in [theta_graph(), dumbbell_graph(), multi_theta(3), chain_graph(4)]:
        flags = 2 * len(graph.edges())
        assert flags == 3 * graph.n_vertices


def test_malformed_involution_rejected():
    with pytest.raises(ValueError):
        TrivalentGraph(involution=(1, 0, 3), vertex_of=(0, 0, 0))
    with pytest.raises(ValueError):
        # involution not an involution
        TrivalentGraph(involution=(1, 2, 0), vertex_of=(0, 0, 0))


# ---------------------------------------------------------------------------
# isomorphism and canonical forms
# ---------------------------------------------------------------------------


def _relabel(graph, vperm, rng):
    """Rebuild the graph with permuted vertex names and shuffled edge order."""
    edges = [
        (vperm[graph.vertex_of[d0]], vperm[graph.vertex_of[d1]])
        for d0, d1 in graph.edges()
    ]
    rng.shuffle(edges)
    edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
    return TrivalentGraph.from_edges(graph.n_vertices, edges)


@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_canonical_form_relabel_invariant(rng, gg):
    graphs = enumerate_trivalent(gg)
    graph = graphs[rng.randrange(len(graphs))]
    vperm = list(range(graph.n_vertices))
    rng.shuffle(vperm)
    other = _relabel(graph, vperm, rng)
    assert canonical_form(graph) == canonical_form(other)
    assert is_isomorphic(graph, other)


# Exhaustive reference for canonical_form: scores every BFS relabeling in
# full, with no pruning.  The pruned search must return the same encodings.


def _exhaustive_assignments(graph, seed_perm):
    order = list(seed_perm)
    new_id = {d: i for i, d in enumerate(order)}

    def rec(t):
        if t == len(order):
            yield dict(new_id)
            return
        p = graph.involution[order[t]]
        if p in new_id:
            yield from rec(t + 1)
            return
        rest = [x for x in graph.star(graph.vertex_of[p]) if x != p]
        for tail in itertools.permutations(rest):
            group = (p,) + tail
            for x in group:
                new_id[x] = len(order)
                order.append(x)
            yield from rec(t + 1)
            for x in reversed(group):
                del new_id[x]
                order.pop()

    yield from rec(0)


def _exhaustive_encode(graph, new_id):
    order = sorted(new_id, key=new_id.get)
    vmap = {}
    for d in order:
        v = graph.vertex_of[d]
        if v not in vmap:
            vmap[v] = len(vmap)
    inv_t = tuple(new_id[graph.involution[d]] for d in order)
    vert_t = tuple(vmap[graph.vertex_of[d]] for d in order)
    return inv_t, vert_t


def _exhaustive_canonical_form(graph):
    out = []
    for comp in _components(graph):
        profiles = {v: _vertex_profile(graph, v) for v in comp}
        seed_class = min(profiles.values())
        seeds = [v for v in comp if profiles[v] == seed_class]
        best = None
        for seed in seeds:
            for perm in itertools.permutations(graph.star(seed)):
                for assign in _exhaustive_assignments(graph, perm):
                    enc = _exhaustive_encode(graph, assign)
                    if best is None or enc < best:
                        best = enc
        out.append(best)
    return tuple(sorted(out))


def _oracle_cases():
    cases = {}
    for gg in (2, 3, 4):
        for i, graph in enumerate(enumerate_trivalent(gg)):
            cases[f"class-{gg}-{i}"] = graph
    for gg in range(2, 7):
        cases[f"chain-{gg}"] = chain_graph(gg)
        cases[f"multitheta-{gg}"] = multi_theta(gg)
    rng = random.Random(20)
    for name, graph in list(cases.items()):
        vperm = list(range(graph.n_vertices))
        rng.shuffle(vperm)
        cases[f"{name}-relabeled"] = _relabel(graph, vperm, rng)
    cases["two-legs"] = TrivalentGraph.from_edges(2, [(0, 1), (0, 1)], parabolic=(0, 1))
    cases["loop-leg"] = TrivalentGraph.from_edges(1, [(0, 0)], parabolic=(0,))
    cases["edge-four-legs"] = TrivalentGraph.from_edges(2, [(0, 1)], parabolic=(0, 0, 1, 1))
    cases["contracted-4valent"] = contract_edge(multi_theta(3), 0)[0]
    cases["two-components"] = TrivalentGraph.from_edges(
        4, [(2, 3), (2, 3), (2, 3), (0, 0), (1, 1), (0, 1)]
    )
    # vertex 1 has no darts: its component's one relabeling is empty
    cases["dartless-vertex"] = TrivalentGraph.from_edges(3, [(0, 2)])
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_canonical_data_matches_exhaustive_oracle(name):
    graph = _ORACLE_CASES[name]
    assert canonical_form(graph) == _exhaustive_canonical_form(graph)


def test_theta_not_dumbbell():
    assert not is_isomorphic(theta_graph(), dumbbell_graph())


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_enumeration_matches_oracle(gg):
    ours = enumerate_trivalent(gg)
    assert len(ours) == EXPECTED_CLASS_COUNTS[gg]
    oracle = oracle_enumerate(gg)
    assert len(oracle) == EXPECTED_CLASS_COUNTS[gg]
    # every enumerated graph matches exactly one oracle class
    matched = set()
    for graph in ours:
        m = _nx_multigraph(graph)
        hits = [i for i, r in enumerate(oracle) if nx.is_isomorphic(m, r)]
        assert len(hits) == 1
        matched.add(hits[0])
    assert len(matched) == len(oracle)


def first_found_enumerate(g):
    """The same matching search and symmetry cut as enumerate_trivalent,
    keyed by canonical_form at every connected leaf; the first leaf found
    in a class is its representative."""
    n = 2 * g - 2
    n_darts = 3 * n
    inv = [-1] * n_darts
    found = {}

    def rec(d):
        while d < n_darts and inv[d] != -1:
            d += 1
        if d == n_darts:
            graph = TrivalentGraph(tuple(inv), tuple(x // 3 for x in range(n_darts)))
            if graph.is_connected():
                found.setdefault(canonical_form(graph), graph)
            return
        cands = []
        untouched_taken = False
        for w in range(n):
            un = [x for x in (3 * w, 3 * w + 1, 3 * w + 2) if inv[x] == -1 and x != d]
            if len(un) == 3:
                if not untouched_taken:
                    cands.append(un[0])
                    untouched_taken = True
            elif un:
                cands.append(un[0])
        for p in cands:
            inv[d], inv[p] = p, d
            rec(d + 1)
            inv[d] = inv[p] = -1

    rec(0)
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_enumeration_keeps_first_found_representatives(gg):
    assert enumerate_trivalent(gg) == first_found_enumerate(gg)


# sha256 of repr([(involution, vertex_of), ...]) of the genus-5 classes, as
# the first-found dedup above returns them.
G5_DIGEST = "ad4f059c0b92a218bdca1e4eff5d608969ba4bcfc74d26c4561595cb7f2f9cf4"


def test_enumeration_g5_count():
    reps = enumerate_trivalent(5)
    assert len(reps) == EXPECTED_CLASS_COUNTS[5]
    blob = repr([(r.involution, r.vertex_of) for r in reps]).encode()
    assert hashlib.sha256(blob).hexdigest() == G5_DIGEST


# The same for the genus-6 classes.  Their count, 388, is OEIS A005967;
# networkx matched each of them to exactly one class of the closure of
# multi_theta(6) under elementary moves, deduplicated by nx.is_isomorphic,
# which has 388 classes too.
G6_DIGEST = "c8cf8f2ac7b0ff3b7617a80a4e8c2f110ba94ed6b27f7c1f1bfe9daa9d29fbed"


def test_enumeration_g6_count():
    reps = enumerate_trivalent(6)
    assert len(reps) == 388
    blob = repr([(r.involution, r.vertex_of) for r in reps]).encode()
    assert hashlib.sha256(blob).hexdigest() == G6_DIGEST


def _tested_prefixes(g):
    """Every matching prefix at which the enumeration's prefix cut may run,
    walked by the unpruned search of first_found_enumerate: the involution
    (-1 for unmatched) after pairing dart d, for each d below half the
    darts, below cut prefixes too."""
    n_darts = 3 * (2 * g - 2)
    inv = [-1] * n_darts

    def rec(d):
        while d < n_darts and inv[d] != -1:
            d += 1
        if 2 * d >= n_darts:
            return
        cands = []
        untouched_taken = False
        for w in range(n_darts // 3):
            un = [x for x in (3 * w, 3 * w + 1, 3 * w + 2) if inv[x] == -1 and x != d]
            if len(un) == 3:
                if not untouched_taken:
                    cands.append(un[0])
                    untouched_taken = True
            elif un:
                cands.append(un[0])
        for p in cands:
            inv[d], inv[p] = p, d
            yield list(inv)
            yield from rec(d + 1)
            inv[d] = inv[p] = -1

    return rec(0)


@pytest.mark.parametrize("gg", [3, 4])
def test_prefix_cut_drops_no_kept_completion(gg):
    kept = [r.involution for r in first_found_enumerate(gg)]
    blocks = tuple(d // 3 for d in range(3 * (2 * gg - 2)))
    n_cut = 0
    for inv in _tested_prefixes(gg):
        bound = (tuple(inv), blocks)
        if _least_encoding(inv, range(2 * gg - 2), bound) is bound:
            continue
        n_cut += 1
        matched = [d for d, p in enumerate(inv) if p >= 0]
        assert not any(all(r[d] == inv[d] for d in matched) for r in kept)
    assert n_cut > 0


def test_enumeration_genus_5_reaches_few_leaves(monkeypatch):
    # the exhaustive search reached 6,264 leaves, the prefix cut 390
    leaves = []

    def counted(inv):
        leaves.append(1)
        return _matching_connected(inv)

    monkeypatch.setattr(graphs_module, "_matching_connected", counted)
    assert len(_trivalent_classes.__wrapped__(5)) == EXPECTED_CLASS_COUNTS[5]
    assert len(leaves) <= 1500


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_enumeration_canonicalizes_each_class_once(monkeypatch, gg):
    calls = []

    def counted(graph):
        calls.append(graph)
        return canonical_form(graph)

    monkeypatch.setattr(graphs_module, "canonical_form", counted)
    _trivalent_classes.cache_clear()
    assert len(enumerate_trivalent(gg)) == EXPECTED_CLASS_COUNTS[gg]
    assert len(calls) == EXPECTED_CLASS_COUNTS[gg]


def test_enumeration_refuses_two_least_labelings_of_one_class(monkeypatch):
    # a leaf test that keeps every leaf must trip the duplicate check
    def keep_all(graph, seeds, bound=None):
        return bound if bound is not None else _least_encoding(graph, seeds)

    monkeypatch.setattr(graphs_module, "_least_encoding", keep_all)
    with pytest.raises(RuntimeError, match="two least labelings"):
        _trivalent_classes.__wrapped__(2)


def _own_encoding(graph):
    return graph.involution, graph.vertex_of


@pytest.mark.parametrize("gg", [3, 4])
def test_representatives_are_their_own_least_labelings(gg):
    for graph in enumerate_trivalent(gg):
        n = graph.n_vertices
        own = _own_encoding(graph)
        assert _least_encoding(graph, range(n), own) == own
        for sigma in itertools.permutations(range(n)):
            # move star i to block sigma[i], keeping the order inside it
            dart = [3 * sigma[d // 3] + d % 3 for d in range(3 * n)]
            inv = [0] * (3 * n)
            for d, p in enumerate(graph.involution):
                inv[dart[d]] = dart[p]
            other = TrivalentGraph(tuple(inv), graph.vertex_of)
            if other.involution != graph.involution:
                own = _own_encoding(other)
                assert _least_encoding(other, range(n), own) < own


# Frozen reference for _least_encoding: the search as it was before vert_t
# was taken from the one-size rule, computing every complete relabeling's
# vertex encoding and every entering group on the spot.


def _frozen_least_encoding(graph, seeds, bound=None):
    best = bound
    order, new_id, inv_t = [], {}, []

    def vertex_encoding():
        vmap = {}
        for d in order:
            vmap.setdefault(graph.vertex_of[d], len(vmap))
        return tuple(vmap[graph.vertex_of[d]] for d in order)

    def rec(t, tied):
        nonlocal best
        if t == len(order):
            vert_t = vertex_encoding()
            if best is not None and tied and vert_t >= best[1]:
                return False
            best = (tuple(inv_t), vert_t)
            return True
        p = graph.involution[order[t]]
        x = new_id.get(p, len(order))
        if tied and best is not None:
            b = best[0][t]
            if x > b:
                return False
            tied = x == b
        inv_t.append(x)
        if p in new_id:
            found = rec(t + 1, tied)
        else:
            found = False
            rest = [y for y in graph.star(graph.vertex_of[p]) if y != p]
            for tail in itertools.permutations(rest):
                group = (p,) + tail
                for y in group:
                    new_id[y] = len(order)
                    order.append(y)
                if rec(t + 1, tied):
                    found = tied = True
                for y in reversed(group):
                    del new_id[y]
                    order.pop()
                if found and bound is not None:
                    break
        inv_t.pop()
        return found

    for seed in seeds:
        for perm in itertools.permutations(graph.star(seed)):
            order[:] = perm
            new_id.clear()
            new_id.update((d, i) for i, d in enumerate(perm))
            if rec(0, True) and bound is not None:
                return best
    return best


def _shuffle_darts(graph, rng):
    """The same graph with its darts renamed by a random permutation, so
    that stars are no longer blocks and darts no longer follow edge order."""
    pi = list(range(graph.n_darts))
    rng.shuffle(pi)
    inv, vert = [0] * graph.n_darts, [0] * graph.n_darts
    for d, p in enumerate(graph.involution):
        inv[pi[d]] = pi[p]
        vert[pi[d]] = graph.vertex_of[d]
    return TrivalentGraph(tuple(inv), tuple(vert))


def _least_encoding_cases():
    rng = random.Random(23)
    cases = {}
    for gg in (2, 3, 4):
        for i, graph in enumerate(enumerate_trivalent(gg)):
            cases[f"class-{gg}-{i}"] = graph
            for j in range(3):
                vperm = list(range(graph.n_vertices))
                rng.shuffle(vperm)
                cases[f"class-{gg}-{i}-relabeled-{j}"] = _relabel(graph, vperm, rng)
            cases[f"class-{gg}-{i}-shuffled"] = _shuffle_darts(graph, rng)
    for i, graph in enumerate(enumerate_trivalent(5)):
        vperm = list(range(graph.n_vertices))
        rng.shuffle(vperm)
        cases[f"class-5-{i}-relabeled"] = _relabel(graph, vperm, rng)
    for gg in (6, 7):
        for name, make in (("chain", chain_graph), ("multitheta", multi_theta)):
            graph = make(gg)
            vperm = list(range(graph.n_vertices))
            rng.shuffle(vperm)
            cases[f"{name}-{gg}-relabeled"] = _relabel(graph, vperm, rng)
    cases["two-legs"] = TrivalentGraph.from_edges(2, [(0, 1), (0, 1)], parabolic=(1, 0))
    cases["edge-four-legs"] = TrivalentGraph.from_edges(2, [(0, 1)], parabolic=(1, 0, 0, 1))
    cases["contracted-4valent"] = contract_edge(multi_theta(3), 0)[0]
    cases["two-thetas"] = TrivalentGraph.from_edges(
        4, [(0, 2), (1, 3), (0, 2), (3, 1), (2, 0), (1, 3)]
    )
    # Graphs where the twin cut must not fire.  Parallel edges into an
    # already-labeled star: the seed's three partners on star 1 in reverse.
    cases["theta-into-labeled-star"] = TrivalentGraph((5, 4, 3, 2, 1, 0), (0, 0, 0, 1, 1, 1))
    # two legs on one vertex: their partners are themselves, on p's star
    cases["two-legs-one-vertex"] = TrivalentGraph.from_edges(2, [(0, 1)], parabolic=(1, 1, 0, 0))
    # a loop at the seed, entered at a loop dart: the other two darts'
    # partners, that dart itself and the leg, lie on the seed
    cases["loop-leg-seed"] = TrivalentGraph((1, 0, 2), (0, 0, 0))
    # the same vertex twice, as two components
    cases["two-loop-leg-components"] = TrivalentGraph((1, 0, 2, 5, 4, 3), (0, 0, 0, 1, 1, 1))
    return cases


_LEAST_ENCODING_CASES = _least_encoding_cases()


@pytest.mark.parametrize("name", sorted(_LEAST_ENCODING_CASES))
def test_least_encoding_matches_frozen_search(name):
    graph = _LEAST_ENCODING_CASES[name]
    own = _own_encoding(graph)
    for comp in _components(graph):
        for bound in (None, own):
            assert _least_encoding(graph, comp, bound) == _frozen_least_encoding(graph, comp, bound)
    least = _frozen_least_encoding(graph, range(graph.n_vertices))
    assert _least_encoding(graph, range(graph.n_vertices), least) == least


@pytest.mark.parametrize("make", [multi_theta, chain_graph], ids=["multitheta", "chain"])
def test_canonical_form_of_symmetric_genus_18_graphs(make):
    # each doubled edge and each loop doubles the automorphism group; without
    # the twin cut, multi_theta(18) took over a minute
    graph = make(18)
    rng = random.Random(18)
    forms = set()
    for _ in range(3):
        vperm = list(range(graph.n_vertices))
        rng.shuffle(vperm)
        forms.add(canonical_form(_relabel(graph, vperm, rng)))
    assert forms == {canonical_form(graph)}


def test_canonical_form_cap_leaves_room_for_the_callers_frames():
    # the largest component accepted recurses once per vertex and still fits
    # Python's 1,000-frame limit under pytest; a larger one is refused before
    # the search, not stopped by a RecursionError inside it
    graph = chain_graph(MAX_CANONICAL_VERTICES // 2 + 1)
    assert graph.n_vertices == MAX_CANONICAL_VERTICES
    assert graphs_module.graph_from_form(canonical_form(graph)).n_vertices == MAX_CANONICAL_VERTICES
    with pytest.raises(ValueError, match="stop at 800 vertices a component, got 998"):
        canonical_form(chain_graph(500))


def test_canonical_form_refuses_stars_of_more_than_four_darts(monkeypatch):
    bouquet = TrivalentGraph.from_edges(1, [(0, 0)] * 6)

    def no_permutations(*args):
        raise AssertionError("permutations built before the refusal")

    monkeypatch.setattr(itertools, "permutations", no_permutations)
    with pytest.raises(ValueError, match="at most 4 darts"):
        canonical_form(bouquet)


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_enumeration_computes_no_vertex_encoding(monkeypatch, gg):
    # every star of a matching leaf has three darts, so vert_t is t // 3
    calls = []

    def counted(graph, order):
        calls.append(order)
        return _vertex_encoding(graph, order)

    monkeypatch.setattr(graphs_module, "_vertex_encoding", counted)
    _trivalent_classes.cache_clear()
    assert len(enumerate_trivalent(gg)) == EXPECTED_CLASS_COUNTS[gg]
    assert calls == []
    # stars of two sizes still go through the patched function
    canonical_form(contract_edge(multi_theta(3), 0)[0])
    assert calls


def test_enumeration_bad_genus():
    with pytest.raises(ValueError):
        enumerate_trivalent(1)
    with pytest.raises(ValueError):
        enumerate_trivalent(7)


def test_enumeration_returns_fresh_lists():
    first = enumerate_trivalent(3)
    first.clear()
    second = enumerate_trivalent(3)
    assert len(second) == EXPECTED_CLASS_COUNTS[3]
    assert second is not enumerate_trivalent(3)


def test_enumeration_all_valid():
    for gg in (2, 3, 4):
        for graph in enumerate_trivalent(gg):
            assert genus(graph) == gg
            assert graph.is_trivalent()
            assert graph.is_connected()


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------


def test_contract_theta_edge():
    g = theta_graph()
    e = g.edge_ids()[0]
    c, _ = contract_edge(g, e)
    assert c.n_vertices == 1
    assert len(c.edges()) == 2
    assert len(c.star(0)) == 4


def test_contract_dumbbell_bridge():
    g = dumbbell_graph()
    bridge = [e for e in g.edge_ids() if not g.is_loop(e)][0]
    c, _ = contract_edge(g, bridge)
    assert c.n_vertices == 1
    assert len(c.edges()) == 2
    assert all(c.is_loop(e) for e in c.edge_ids())


def test_contract_loop_rejected():
    g = dumbbell_graph()
    loop = [e for e in g.edge_ids() if g.is_loop(e)][0]
    with pytest.raises(ValueError):
        contract_edge(g, loop)


def test_expand_inverts_contract():
    g = theta_graph()
    e = g.edge_ids()[0]
    c, dart_map = contract_edge(g, e)
    star = c.star(0)
    # original partition: darts that came from the source endpoint of e
    side0 = {dart_map[d] for d in g.star(g.vertex_of[e]) if d != e}
    part = (tuple(sorted(side0)), tuple(sorted(set(star) - side0)))
    back = expand_vertex(c, 0, part)
    assert is_isomorphic(back, g)


def test_expand_requires_4valent():
    with pytest.raises(ValueError):
        expand_vertex(theta_graph(), 0, ((0, 2), (4,)))


def test_elementary_theta_nest():
    # contracting a theta edge leaves two loops on a 4-valent vertex; one
    # crossing partition loops them again (dumbbell), the other rebuilds a
    # theta, so the nest is {theta, dumbbell, theta}
    g = theta_graph()
    kinds = sorted(
        "dumbbell" if is_isomorphic(x, dumbbell_graph()) else "theta"
        for x in elementary_transformations(g, g.edge_ids()[0])
    )
    assert kinds == ["dumbbell", "theta"]


def test_elementary_dumbbell_bridge_gives_thetas():
    g = dumbbell_graph()
    bridge = [e for e in g.edge_ids() if not g.is_loop(e)][0]
    a, b = elementary_transformations(g, bridge)
    assert is_isomorphic(a, theta_graph())
    assert is_isomorphic(b, theta_graph())


def test_elementary_loop_flagged():
    # a loop has no elementary move; it is flagged by the error contract_edge raises
    g = dumbbell_graph()
    loop = [e for e in g.edge_ids() if g.is_loop(e)][0]
    with pytest.raises(ValueError, match="cannot contract a loop"):
        elementary_transformations(g, loop)


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_moves_connect_move_graph(gg):
    # elementary transformations act transitively on genus-g classes
    comps = move_graph_components(gg)
    assert len(comps) == 1
    assert len(comps[0]) == EXPECTED_CLASS_COUNTS[gg]


def test_graph_moves_claim_canonicalizes_only_moved_graphs(monkeypatch):
    # the class forms come from the enumeration; each non-loop edge of each
    # class gives two moved graphs, and only those are canonicalized
    from verlinde import claims

    calls = []

    def counted(graph):
        calls.append(graph)
        return canonical_form(graph)

    top = 3  # the full claim's largest genus
    moved = sum(
        2 * sum(not rep.is_loop(e) for e in rep.edge_ids())
        for gg in range(2, top + 1)
        for rep in enumerate_trivalent(gg)
    )
    monkeypatch.setattr(graphs_module, "canonical_form", counted)
    assert claims.graph_moves(False).endswith(f"through genus {top}")
    assert len(calls) == moved


# ---------------------------------------------------------------------------
# Eulerian invariant
# ---------------------------------------------------------------------------


def test_eulerian_theta():
    assert eulerian_invariant(theta_graph()) == 1


def test_eulerian_dumbbell():
    # forced: every loop transition must reuse the loop, hand count gives 3
    assert eulerian_invariant(dumbbell_graph()) == 3


@pytest.mark.parametrize("gg", [2, 3, 4, 5])
def test_eulerian_bounds_and_parity(gg):
    for graph in enumerate_trivalent(gg):
        e = eulerian_invariant(graph)
        assert 1 <= e <= gg + 1
        assert (e - (gg - 1)) % 2 == 0


# Frozen reference for eulerian_invariant: the search as it was before the
# Gray-code walk, rebuilding a successor dict for each of all 2^V systems and
# walking its cycles on the spot.


def _frozen_eulerian_invariant(graph):
    options = []
    for v in range(graph.n_vertices):
        a, b, c = graph.star(v)
        options.append(({a: b, b: c, c: a}, {a: c, c: b, b: a}))
    best = None
    for choice in itertools.product(*options):
        succ = {}
        for d in range(graph.n_darts):
            f = graph.involution[d]
            succ[d] = choice[graph.vertex_of[f]][f]
        seen, n_cycles = set(), 0
        for start in succ:
            if start in seen:
                continue
            n_cycles += 1
            d = start
            while d not in seen:
                seen.add(d)
                d = succ[d]
        if best is None or n_cycles < best:
            best = n_cycles
    return best


def _eulerian_cases():
    cases = {}
    for gg in (2, 3, 4, 5):
        for i, graph in enumerate(enumerate_trivalent(gg)):
            cases[f"class-{gg}-{i}"] = graph
    for gg in range(2, 9):
        cases[f"chain-{gg}"] = chain_graph(gg)
        cases[f"multitheta-{gg}"] = multi_theta(gg)
    return cases


_EULERIAN_CASES = _eulerian_cases()


@pytest.mark.parametrize("name", sorted(_EULERIAN_CASES))
def test_eulerian_matches_frozen_search(name):
    # the walk holds vertex 0 and flips in label order; the minimum must not
    # follow the labels
    graph = _EULERIAN_CASES[name]
    rng = random.Random(name)
    vperm = list(range(graph.n_vertices))
    rng.shuffle(vperm)
    moved = _shuffle_darts(_relabel(graph, vperm, rng), rng)
    want = _frozen_eulerian_invariant(graph)
    assert eulerian_invariant(graph) == want
    assert eulerian_invariant(moved) == want


@pytest.mark.parametrize(
    "graph, message",
    [
        (
            TrivalentGraph.from_edges(2, [(0, 1), (0, 1)], parabolic=(1, 0)),
            "Eulerian systems are defined for closed graphs",
        ),
        # 18 vertices as well: connectivity is checked before size
        (
            graphs_module.graph_from_form(
                canonical_form(multi_theta(5)) + canonical_form(multi_theta(6))
            ),
            "connected graphs only",
        ),
        (contract_edge(multi_theta(3), 0)[0], "Eulerian systems need a trivalent graph"),
        (multi_theta(10), "Eulerian systems stop at 16 vertices, got 18"),
    ],
    ids=["parabolic", "disconnected", "4-valent", "multitheta-10"],
)
def test_eulerian_refusals(graph, message, monkeypatch):
    def walked(perm):
        raise AssertionError("a rotation system was walked before the refusal")

    monkeypatch.setattr(graphs_module, "_orbits", walked)
    with pytest.raises(ValueError, match=f"^{message}$"):
        eulerian_invariant(graph)


# ---------------------------------------------------------------------------
# ribbon structures and faces
# ---------------------------------------------------------------------------


def test_theta_planar_faces():
    g = theta_graph()
    faces, sgenus = trace_faces(g, planar_theta_ribbon())
    assert len(faces) == 3
    assert sgenus == 0


def test_theta_reversed_star():
    g = theta_graph()
    rib = RibbonStructure(cyclic_order={0: (0, 2, 4), 1: (1, 3, 5)})
    faces, sgenus = trace_faces(g, rib)
    assert len(faces) == 1
    assert sgenus == 1


def test_dumbbell_planar_faces():
    g = dumbbell_graph()
    faces, sgenus = trace_faces(g, planar_dumbbell_ribbon())
    assert sgenus == 0


def test_face_degrees_sum():
    g = theta_graph()
    for rib in [
        planar_theta_ribbon(),
        RibbonStructure(cyclic_order={0: (0, 2, 4), 1: (1, 3, 5)}),
    ]:
        faces, _ = trace_faces(g, rib)
        assert sum(len(f) for f in faces) == 2 * len(g.edges())


def test_face_genus_ribbon_relabel_invariant():
    # rotating the cyclic orders is an isomorphism of the ribbon structure
    g = theta_graph()
    rib = planar_theta_ribbon()
    rot = RibbonStructure(
        cyclic_order={v: t[1:] + t[:1] for v, t in rib.cyclic_order.items()}
    )
    assert trace_faces(g, rib)[1] == trace_faces(g, rot)[1]


# Literals copied from the implementation before face tracing and Eulerian
# counts shared one orbit routine; no other test pins the order in which
# faces come out.


def test_trace_faces_frozen_order():
    assert trace_faces(theta_graph(), planar_theta_ribbon()) == (
        [(0, 5), (1, 2), (3, 4)],
        0,
    )
    assert trace_faces(dumbbell_graph(), planar_dumbbell_ribbon()) == (
        [(0, 4, 2, 5), (1,), (3,)],
        0,
    )
    rib = RibbonStructure(cyclic_order={0: (0, 2, 4), 1: (1, 3, 5)})
    assert trace_faces(theta_graph(), rib) == ([(0, 3, 4, 1, 2, 5)], 1)


def test_spanning_tree_records():
    assert spanning_tree(theta_graph()) == [(1, 0, 0)]
    assert spanning_tree(dumbbell_graph()) == [(1, 0, 4)]
    assert spanning_tree(multi_theta(3)) == [(1, 0, 0), (3, 0, 10), (2, 1, 4)]
    assert spanning_tree(chain_graph(3)) == [(1, 0, 8), (2, 1, 4), (3, 2, 10)]
    assert chord_edges(chain_graph(3)) == (0, 2, 6)
    with pytest.raises(ValueError):
        spanning_tree(TrivalentGraph.from_edges(2, [(0, 0), (1, 1)]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    for graph in [theta_graph(), dumbbell_graph(), multi_theta(3)]:
        blob = graph_to_json(graph)
        back = graph_from_json(blob)
        assert is_isomorphic(graph, back)
        # canonical serialization is reproducible
        assert graph_to_json(back, canonical=True) == graph_to_json(
            graph_from_json(graph_to_json(graph, canonical=True)), canonical=True
        )


def test_json_loop_encoding():
    blob = graph_to_json(dumbbell_graph())
    data = json.loads(blob)
    loops = [e for e in data["edges"] if e[0] == e[1]]
    assert len(loops) == 2


def test_json_with_ribbon():
    g = theta_graph()
    rib = planar_theta_ribbon()
    data = json.loads(graph_to_json(g))
    # ribbon orders list edge indices; a loop's first occurrence is its lower dart
    edge_index = {d: i for i, pair in enumerate(g.edges()) for d in pair}
    data["ribbon"] = {str(v): [edge_index[d] for d in cyc] for v, cyc in rib.cyclic_order.items()}
    back, rib2 = graph_from_json(json.dumps(data), with_ribbon=True)
    assert rib2.cyclic_order == rib.cyclic_order
    assert trace_faces(back, rib2)[1] == 0
