"""Tests for admissible weights, U(1) networks, polytopes and their counts.

Counts are cross-checked against the trigonometric closed form evaluated
directly with math.sin (independent of the fusion module).
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde import newstead
from verlinde import weights as weights_module
from verlinde.graphs import (
    TrivalentGraph,
    chain_graph,
    chord_edges,
    contract_edge,
    dumbbell_graph,
    enumerate_trivalent,
    multi_theta,
    spanning_tree,
    theta_graph,
)
from verlinde.weights import (
    InvariantViolation,
    WeightFunction,
    _elimination_order,
    _vertex_flag_edges,
    _weight_edge_ids,
    bs_asymptotics,
    count_weights,
    enumerate_weights,
    level1_networks,
    polytope_volume,
    u1_networks,
    verlinde_count_check,
    weights_to_json,
)


def closed_form_count(g, k):
    """Trigonometric Verlinde sum, evaluated in floating point and rounded."""
    total = ((k + 2) / 2) ** (g - 1) * sum(
        math.sin(n * math.pi / (k + 2)) ** (2 - 2 * g) for n in range(1, k + 2)
    )
    return round(total)


def w(graph, k, numerators):
    """Weight from numerators over 2k, in edge-id order."""
    return WeightFunction(graph, k, tuple(numerators))


# Fraction references that enumerate_weights is compared against: the vertex
# conditions read off the values view, and the continuous weight polytope as
# an H-representation


def is_admissible(w):
    """Check the vertex conditions; returns (ok, list of violations)."""
    graph, k, vals = w.graph, w.level, w.values
    problems = []
    for v in range(graph.n_vertices):
        trip = [vals[e] for e in _vertex_flag_edges(graph, v)]
        total = sum(trip)
        if total % Fraction(1, k) != 0:
            problems.append(f"vertex {v}: parity, sum {total} not in (1/{k})Z")
        if total > 1:
            problems.append(f"vertex {v}: sum {total} exceeds 1")
        for i in range(3):
            w3 = trip[i]
            w1, w2 = (trip[j] for j in range(3) if j != i)
            if not abs(w1 - w2) <= w3 <= min(w1 + w2, 2 - w1 - w2):
                problems.append(f"vertex {v}: triangle fails at flag {i}")
                break
    return not problems, problems


@dataclass(frozen=True, eq=False)
class MomentPolytope:
    """H-representation sum(coeffs * w) <= rhs over edge coordinates."""

    graph: TrivalentGraph
    inequalities: tuple

    def contains(self, values):
        for _, coeffs, rhs in self.inequalities:
            if sum(c * values[e] for e, c in coeffs.items()) > rhs:
                return False
        return True


def polytope(graph):
    """Continuous weight polytope in [0, 1/2]^edges."""
    ineqs = []
    for e in _weight_edge_ids(graph):
        ineqs.append((f"w[{e}] >= 0", {e: -1}, Fraction(0)))
        ineqs.append((f"w[{e}] <= 1/2", {e: 1}, Fraction(1, 2)))
    for v in range(graph.n_vertices):
        flags = _vertex_flag_edges(graph, v)
        total = {}
        for e in flags:
            total[e] = total.get(e, 0) + 1
        ineqs.append((f"vertex {v}: sum <= 1", dict(total), Fraction(1)))
        ineqs.append((f"vertex {v}: sum <= 2", dict(total), Fraction(2)))
        for i in range(3):
            coeffs = {}
            for j, e in enumerate(flags):
                coeffs[e] = coeffs.get(e, 0) + (1 if j == i else -1)
            if any(coeffs.values()):
                ineqs.append((f"vertex {v}: triangle {i}", coeffs, Fraction(0)))
    return MomentPolytope(graph, tuple(ineqs))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_theta_level1_examples():
    g = theta_graph()
    ok, _ = is_admissible(w(g, 1, (1, 1, 0)))
    assert ok
    bad, report = is_admissible(w(g, 1, (1, 0, 0)))
    assert not bad
    assert report


def test_dumbbell_sum_bound():
    g = dumbbell_graph()
    # both loops and the bridge at 1/2: vertex sum 3/2 > 1
    ok, report = is_admissible(w(g, 2, (2, 2, 2)))
    assert not ok
    assert any("sum" in r for r in report)


def test_out_of_range_value_rejected():
    g = theta_graph()
    for k, nums in [
        (1, (2, 0, 0)),  # above the level
        (2, (-1, 1, 0)),
        (2, (Fraction(1, 2), 1, 1)),
        (2, (1.0, 1, 0)),
        (2, (True, 1, 0)),
        (2, (1, 1)),  # one numerator per edge
        (2, (1, 1, 0, 0)),
    ]:
        with pytest.raises(ValueError):
            w(g, k, nums)


def test_loop_counted_twice():
    g = dumbbell_graph()
    # parity at a loop vertex is 2*loop + bridge
    ok, _ = is_admissible(w(g, 2, (1, 1, 2)))
    assert ok  # 2*(1/4) + 1/2 = 1 is in (1/2)Z and sum stays at 1
    ok2, report = is_admissible(w(g, 2, (1, 1, 1)))
    assert not ok2  # 2*(1/4) + 1/4 = 3/4 not in (1/2)Z
    assert any("parity" in r for r in report)


# ---------------------------------------------------------------------------
# enumeration and Verlinde counts
# ---------------------------------------------------------------------------


def test_theta_small_counts():
    assert len(enumerate_weights(theta_graph(), 1)) == 4
    assert len(enumerate_weights(theta_graph(), 2)) == 10


def test_dumbbell_matches_theta():
    assert len(enumerate_weights(dumbbell_graph(), 2)) == 10


def test_enumeration_refuses_past_max_weights(monkeypatch):
    # refused as soon as the search passes the cap: at level 10^4 the whole
    # theta list has about 1.7e11 weights, and ten come in a fraction of that
    monkeypatch.setattr(weights_module, "MAX_WEIGHTS", 10)
    assert len(enumerate_weights(theta_graph(), 2)) == 10
    for k in (3, 10**4):
        with pytest.raises(ValueError, match="weight lists stop at 10 weights"):
            enumerate_weights(theta_graph(), k)


@pytest.mark.parametrize("k", range(1, 13))
def test_genus2_graph_independence(k):
    n_theta = len(enumerate_weights(theta_graph(), k))
    n_dumb = len(enumerate_weights(dumbbell_graph(), k))
    assert n_theta == n_dumb == closed_form_count(2, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_genus3_graph_independence(k):
    counts = {len(enumerate_weights(g, k)) for g in enumerate_trivalent(3)}
    assert counts == {closed_form_count(3, k)}


def test_count_weights_matches_enumeration():
    cases = [(g, 6) for g in enumerate_trivalent(2) + enumerate_trivalent(3)]
    cases += [(g, 12) for g in (theta_graph(), dumbbell_graph())]
    for graph, kmax in cases:
        for k in range(1, kmax + 1):
            assert count_weights(graph, k) == len(enumerate_weights(graph, k))


# graphs with parabolic legs and their lattice counts at dilations 0..7
LEGGED = {
    (1, ((0, 0),), (0,)): [1, 2, 5, 8, 13, 18, 25, 32],
    (2, ((0, 1), (0, 1)), (0, 1)): [1, 4, 17, 48, 113, 228, 417, 704],
    (2, ((0, 1),), (0, 0, 1, 1)): [1, 8, 43, 160, 461, 1112, 2359, 4544],
}


def test_count_weights_without_parity_keeps_polytope_values():
    # lattice counts of the dilated polytopes and the exact volumes they give
    for graph in enumerate_trivalent(2):
        assert [count_weights(graph, t, parity=False) for t in range(6)] == [1, 4, 11, 24, 45, 76]
        assert polytope_volume(graph) == Fraction(1, 24)
    for graph in enumerate_trivalent(3):
        assert [count_weights(graph, t, parity=False) for t in range(6)] == [
            1, 8, 49, 224, 785, 2248,
        ]
        assert polytope_volume(graph) == Fraction(1, 1440)
    for (n, edges, legs), seq in LEGGED.items():
        graph = TrivalentGraph.from_edges(n, list(edges), parabolic=list(legs))
        assert [count_weights(graph, t, parity=False) for t in range(8)] == seq


def _frozen_count_weights(graph, k, parity=True):
    """The elimination as it was before the per-pattern tables: each vertex
    filters every value tuple of its known and fresh edges."""
    processed = set()
    open_edges = []
    states = {(): 1}
    for v in _elimination_order(graph):
        flags = _vertex_flag_edges(graph, v)
        fresh = sorted({e for e in flags if e not in open_edges})
        known = [e for e in flags if e not in fresh]
        slot = {e: i for i, e in enumerate(known + fresh)}
        processed.add(v)

        def still_open(e):
            ends = (graph.vertex_of[e], graph.vertex_of[graph.involution[e]])
            return not all(u in processed for u in ends)

        keep = [i for i, e in enumerate(open_edges) if still_open(e)]
        fresh_keep = [j for j, e in enumerate(fresh) if still_open(e)]
        valid = {}
        for known_vals in itertools.product(range(k + 1), repeat=len(known)):
            combos = []
            for combo in itertools.product(range(k + 1), repeat=len(fresh)):
                vals = known_vals + combo
                a, b, c = (vals[slot[e]] for e in flags)
                total = a + b + c
                if total <= 2 * k and 2 * max(a, b, c) <= total and not (parity and total % 2):
                    combos.append(tuple(combo[j] for j in fresh_keep))
            valid[known_vals] = combos
        known_at = [open_edges.index(e) for e in known]
        new_states = {}
        for key, cnt in states.items():
            head = tuple(key[i] for i in keep)
            for tail in valid[tuple(key[i] for i in known_at)]:
                nk = head + tail
                new_states[nk] = new_states.get(nk, 0) + cnt
        open_edges = [open_edges[i] for i in keep] + [fresh[j] for j in fresh_keep]
        states = new_states
    return sum(states.values())


@pytest.mark.parametrize("gg", [2, 3, 4])
def test_count_weights_matches_frozen_elimination(gg):
    for graph in enumerate_trivalent(gg):
        for k in range(1, 9):
            assert count_weights(graph, k) == _frozen_count_weights(graph, k)
        for t in range(8):
            assert count_weights(graph, t, parity=False) == _frozen_count_weights(graph, t, False)


def test_count_weights_matches_frozen_elimination_on_legs():
    for n, edges, legs in LEGGED:
        graph = TrivalentGraph.from_edges(n, list(edges), parabolic=list(legs))
        for k in range(1, 9):
            assert count_weights(graph, k) == _frozen_count_weights(graph, k)
        for t in range(8):
            assert count_weights(graph, t, parity=False) == _frozen_count_weights(graph, t, False)


@pytest.mark.parametrize(
    "graph",
    [
        contract_edge(multi_theta(3), 0)[0],
        TrivalentGraph.from_edges(2, [(0, 1), (0, 1)]),
    ],
    ids=["4-valent", "2-valent"],
)
def test_count_weights_refuses_graphs_that_are_not_trivalent(graph):
    for parity in (True, False):
        with pytest.raises(ValueError, match="weights are defined on trivalent graphs"):
            count_weights(graph, 2, parity=parity)


def test_count_weights_rejects_bad_level():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            count_weights(theta_graph(), bad)
    with pytest.raises(ValueError):
        count_weights(theta_graph(), -1, parity=False)
    assert count_weights(theta_graph(), 0, parity=False) == 1


def test_verlinde_count_check_spots():
    assert verlinde_count_check(2, 1) == 4
    assert verlinde_count_check(2, 2) == 10
    assert verlinde_count_check(3, 1) == 8
    assert verlinde_count_check(3, 2) == 36


@pytest.mark.parametrize("g, k", [(2.0, 1), (True, 1), (2, 1.0), (2, True), (1, 1), (2, 11)])
def test_verlinde_count_check_refuses_non_int_or_out_of_range(g, k):
    with pytest.raises(ValueError):
        verlinde_count_check(g, k)


def test_enumeration_is_sorted_and_unique():
    # the search emits its tuples in order; nothing sorts them afterwards
    for graph, k in [(theta_graph(), 3)] + [(g, 2) for g in enumerate_trivalent(3)]:
        ws = enumerate_weights(graph, k)
        keys = [tuple(wf.values[e] for e in graph.edge_ids()) for wf in ws]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_boundary_labels():
    # one vertex carrying a loop and a parabolic leg
    g = TrivalentGraph.from_edges(1, [(0, 0)], parabolic=[0])
    leg = g.parabolic_darts()[0]
    ws = enumerate_weights(g, 2, boundary={leg: Fraction(0)})
    assert len(ws) == 3  # loop value free, leg pinned at 0
    with pytest.raises(ValueError):
        enumerate_weights(g, 2)  # legs need prescribed values


@pytest.mark.parametrize(
    "graph, boundary",
    [
        (TrivalentGraph.from_edges(1, [(0, 0)], parabolic=[0]), {5: 0}),  # no dart 5
        (theta_graph(), {0: Fraction(1, 2)}),  # an internal edge, not a leg
    ],
    ids=["missing-dart", "internal-edge"],
)
def test_boundary_keys_must_name_legs(graph, boundary):
    with pytest.raises(ValueError, match="is not a parabolic leg"):
        enumerate_weights(graph, 2, boundary)


def _product_weights(graph, k, pinned=None):
    # every numerator tuple in itertools.product order, filtered afterwards
    # by the quantum triangle condition; a pinned leg takes its value alone
    ids = _weight_edge_ids(graph)
    stars = [[ids.index(graph.edge_of(d)) for d in graph.star(v)] for v in range(graph.n_vertices)]
    ranges = [[pinned[e]] if e in (pinned or {}) else range(k + 1) for e in ids]

    def admissible(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * k - a - b)

    return [
        combo
        for combo in itertools.product(*ranges)
        if all(admissible(*(combo[i] for i in star)) for star in stars)
    ]


@pytest.mark.parametrize("graph", enumerate_trivalent(2) + enumerate_trivalent(3))
@pytest.mark.parametrize("k", range(1, 5))
def test_enumeration_matches_product_filter(graph, k):
    assert [wf.numerators for wf in enumerate_weights(graph, k)] == _product_weights(graph, k)


@pytest.mark.parametrize(
    "graph",
    [
        TrivalentGraph.from_edges(1, [(0, 0)], parabolic=[0]),
        TrivalentGraph.from_edges(2, [(0, 1), (0, 1)], parabolic=[0, 1]),
    ],
    ids=["tadpole", "bigon"],
)
@pytest.mark.parametrize("k", range(1, 5))
def test_legged_enumeration_matches_product_filter(graph, k):
    # every boundary value on every leg
    legs = graph.parabolic_darts()
    for values in itertools.product(range(k + 1), repeat=len(legs)):
        pinned = dict(zip(legs, values))
        boundary = {leg: Fraction(n, 2 * k) for leg, n in pinned.items()}
        got = [wf.numerators for wf in enumerate_weights(graph, k, boundary)]
        assert got == _product_weights(graph, k, pinned), pinned


def test_level_monotonicity():
    # a level-k coloring stays admissible at any higher level
    for wf in enumerate_weights(theta_graph(), 2):
        for k2 in (3, 5, 8):
            ok, _ = is_admissible(w(theta_graph(), k2, wf.numerators))
            assert ok


@pytest.mark.parametrize("graph", [theta_graph(), dumbbell_graph()], ids=["theta", "dumbbell"])
@pytest.mark.parametrize("k", range(1, 5))
def test_values_view_matches_numerators(graph, k):
    # the Fraction view is numerator / 2k edge by edge, and the Fraction
    # reference accepts every weight the integer search lists
    for wf in enumerate_weights(graph, k):
        assert dict(wf.values) == {
            e: Fraction(n, 2 * k) for e, n in zip(graph.edge_ids(), wf.numerators)
        }
        assert is_admissible(wf)[0]


# ---------------------------------------------------------------------------
# U(1) and level-1 networks
# ---------------------------------------------------------------------------


def test_u1_counts_examples():
    assert u1_networks(theta_graph(), 2).count == 4
    assert u1_networks(dumbbell_graph(), 3).count == 9
    assert u1_networks(theta_graph(), 1).count == 1


@pytest.mark.parametrize("gg", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_u1_counts_are_k_pow_g(gg, k):
    for graph in enumerate_trivalent(gg):
        fam = u1_networks(graph, k)
        assert fam.count == k**gg
        assert len(fam.flows) == k**gg


def _u1_flows_by_tree_solve(graph, k):
    # reference: each flow's tree values solved from the leaves inward, as
    # u1_networks did before it solved each tree edge once per family
    chords = chord_edges(graph)
    flows = []
    for combo in itertools.product(range(k), repeat=len(chords)):
        flow = dict(zip(chords, combo))
        for child, _, e in reversed(spanning_tree(graph)):
            total = 0
            for d in graph.star(child):
                ee = graph.edge_of(d)
                if ee != e:
                    total += flow[ee] if d == ee else -flow[ee]
            sign = 1 if graph.vertex_of[e] == child else -1
            flow[e] = (-sign * total) % k
        flows.append(flow)
    return flows


@pytest.mark.parametrize("k", [1, 2, 5])
def test_u1_flows_match_per_flow_tree_solve(k):
    graphs = [*enumerate_trivalent(2), *enumerate_trivalent(3), chain_graph(4), multi_theta(4)]
    for graph in graphs:
        ref = _u1_flows_by_tree_solve(graph, k)
        # the same values under the same keys, in the same order
        assert [list(f.items()) for f in u1_networks(graph, k).flows] == [
            list(f.items()) for f in ref
        ]


def test_u1_kirchhoff():
    g = dumbbell_graph()
    k = 4
    for flow in u1_networks(g, k).flows:
        for v in range(g.n_vertices):
            total = 0
            for d in g.star(v):
                e = g.edge_of(d)
                total += flow[e] if d == e else -flow[e]
            assert total % k == 0


def test_u1_cycle_coordinates_biject():
    g = theta_graph()
    k = 3
    fam = u1_networks(g, k)
    coords = {tuple(flow[e] for e in fam.cycle_basis) for flow in fam.flows}
    assert len(coords) == k ** 2
    assert coords == set(itertools.product(range(k), repeat=2))


def test_level1_theta():
    g = theta_graph()
    e1, e2, e3 = g.edge_ids()
    nets = {frozenset(s) for s in level1_networks(g)}
    assert nets == {
        frozenset(),
        frozenset({e1, e2}),
        frozenset({e1, e3}),
        frozenset({e2, e3}),
    }


def test_level1_dumbbell():
    g = dumbbell_graph()
    loops = {e for e in g.edge_ids() if g.is_loop(e)}
    nets = {frozenset(s) for s in level1_networks(g)}
    assert nets == {frozenset(s) for r in range(3) for s in itertools.combinations(loops, r)}


@pytest.mark.parametrize("gg", [2, 3])
def test_level1_count_and_weights(gg):
    for graph in enumerate_trivalent(gg):
        nets = level1_networks(graph)
        assert len(nets) == 2**gg
        supports = {
            frozenset(e for e, val in wf.values.items() if val)
            for wf in enumerate_weights(graph, 1)
        }
        assert supports == {frozenset(s) for s in nets}


# ---------------------------------------------------------------------------
# polytope and asymptotics
# ---------------------------------------------------------------------------


def test_polytope_contains_weights():
    g = theta_graph()
    p = polytope(g)
    for wf in enumerate_weights(g, 3):
        assert p.contains(wf.values)
    assert p.contains({e: Fraction(0) for e in g.edge_ids()})


def test_polytope_volume_genus2():
    assert polytope_volume(theta_graph()) == Fraction(1, 24)
    assert polytope_volume(dumbbell_graph()) == Fraction(1, 24)


@pytest.mark.parametrize(
    "graph, volume",
    [
        (TrivalentGraph.from_edges(2, [(0, 1), (0, 1)], parabolic=(0, 1)), Fraction(1, 96)),
        (TrivalentGraph.from_edges(1, [(0, 0)], parabolic=(0,)), Fraction(1, 8)),
        (TrivalentGraph.from_edges(2, [(0, 1)], parabolic=(0, 0, 1, 1)), Fraction(1, 240)),
        (theta_graph(), Fraction(1, 24)),
    ],
    ids=["two-legs", "loop-leg", "edge-four-legs", "theta"],
)
def test_polytope_volume_counts_parabolic_legs(graph, volume):
    # legs are coordinates of the polytope
    assert polytope_volume(graph) == volume


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_polytope_volume_meets_bernoulli_leading_coefficient(g):
    # 2^g vol is the k^(3g-3) coefficient of the Verlinde count, which the
    # Bernoulli closed form gives independently of any lattice count
    n = 2 * g - 2
    expected = (-1) ** g * 2 ** (g - 1) * newstead.bernoulli(n) / math.factorial(n)
    assert 2**g * polytope_volume(multi_theta(g)) == expected


def test_lattice_census_matches_enumeration():
    g = theta_graph()
    p = polytope(g)
    for k in (1, 2, 3):
        pts = []
        den = 2 * k
        for nums in itertools.product(range(k + 1), repeat=3):
            vals = dict(zip(g.edge_ids(), (Fraction(n, den) for n in nums)))
            # parity sublattice: vertex sums in (1/k)Z
            parity = all(
                sum(vals[g.edge_of(d)] for d in g.star(v)) % Fraction(1, k) == 0
                for v in range(g.n_vertices)
            )
            if parity and p.contains(vals):
                pts.append(nums)
        counted = {wf.numerators for wf in enumerate_weights(g, k)}
        assert set(pts) == counted


def test_bs_asymptotics_genus2():
    rep = bs_asymptotics(2, range(1, 10))
    assert rep.leading_coefficient == Fraction(1, 6)
    assert rep.density_times_volume == Fraction(1, 6)
    assert rep.consistent


def test_bs_asymptotics_genus3():
    rep = bs_asymptotics(3, range(1, 12))
    assert rep.degree == 6
    assert rep.leading_coefficient == rep.density_times_volume
    assert rep.consistent


def test_bs_asymptotics_genus4_is_exact():
    rep = bs_asymptotics(4, range(1, 12))
    assert rep.density_times_volume == Fraction(1, 3780)
    assert rep.leading_coefficient == rep.density_times_volume
    assert rep.consistent


def test_bs_asymptotics_short_range_warns():
    rep = bs_asymptotics(2, range(1, 3))
    assert rep.fit_warning


@pytest.mark.parametrize("ks", [[1.5, 2.7, 3.2, 4.9, 5.0], [1, 2, True], [0, 1, 2], []])
def test_bs_asymptotics_refuses_non_int_levels(ks):
    # int() would silently fit the levels 1..5 instead
    with pytest.raises(ValueError):
        bs_asymptotics(2, ks)


def test_invariant_violation_carries_witness():
    err = InvariantViolation("count mismatch", witness=("dumbbell", 3))
    assert isinstance(err, Exception)
    assert err.witness == ("dumbbell", 3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_weight_json_roundtrip():
    g = theta_graph()
    ws = enumerate_weights(g, 2)
    data = json.loads(weights_to_json(ws))
    assert (data["level"], data["denominator"]) == (2, 4)
    assert len(data["weights"]) == len(ws)
    for entry, wf in zip(data["weights"], ws):
        assert list(entry) == [str(e) for e in g.edge_ids()]
        assert tuple(entry.values()) == wf.numerators


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_admissible_iff_polytope_and_parity(k, data):
    g = dumbbell_graph()
    nums = data.draw(
        st.tuples(*[st.integers(0, k) for _ in g.edge_ids()])
    )
    wf = w(g, k, nums)
    ok, _ = is_admissible(wf)
    p = polytope(g)
    parity = all(
        sum(wf.values[g.edge_of(d)] for d in g.star(v)) % Fraction(1, k) == 0
        for v in range(g.n_vertices)
    )
    assert ok == (p.contains(wf.values) and parity)
