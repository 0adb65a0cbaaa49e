"""Admissible edge weights on trivalent graphs.

A level-k weight assigns each edge a value in (1/2k)*{0..k}, stored as its
integer numerator over 2k; Fractions appear only in the `values` view.  At
every vertex the three incident values (a loop counts twice) must satisfy
the parity, sum and quantum triangle conditions.  This module lists the
admissible set by the search that lists gauge colorings too, counts it by
vertex elimination without listing it, computes exactly the volume of the
weight polytope whose dilations it counts, solves the mod-k U(1) flows,
whose mod-2 supports are the level-1 even subgraphs, and fits the leading
growth of the count in k.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .graphs import TrivalentGraph, chord_edges, enumerate_trivalent, multi_theta, spanning_tree
from .su2reps import _check_int, check_labels, check_level


class InvariantViolation(Exception):
    """A quantity that must agree between independent routes did not."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- weight functions ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Edge weights at level k, stored as integer numerators over 2k.

    `numerators` holds one int in 0..k per edge, in the sorted order of the
    internal edge ids and parabolic legs; `values` is the read-only
    Fraction view {edge id: numerator / 2k}.
    """

    graph: TrivalentGraph
    level: int
    numerators: tuple

    def __post_init__(self):
        k = self.level
        check_level(k)
        nums = tuple(self.numerators)
        if len(nums) != len(_weight_edge_ids(self.graph)):
            raise ValueError("weights need one numerator per edge")
        check_labels(k, nums)
        object.__setattr__(self, "numerators", nums)

    @property
    def values(self):
        den = 2 * self.level
        ids = _weight_edge_ids(self.graph)
        return MappingProxyType({e: Fraction(n, den) for e, n in zip(ids, self.numerators)})


def _vertex_flag_edges(graph, v):
    # edge ids of the three flags at v; a loop appears twice
    return tuple(graph.edge_of(d) for d in graph.star(v))


def _weight_edge_ids(graph):
    # weights live on internal edges and parabolic legs alike
    return sorted(graph.edge_ids() + graph.parabolic_darts())


# the longest weight list enumerate_weights returns: the count grows like
# k^(3g-3), and `weights list` near this length takes about 155 MB and 1.8 s
MAX_WEIGHTS = 10**5


def enumerate_weights(graph, k, boundary=None):
    """All admissible level-k weights, sorted by numerator tuple.

    Parabolic legs must be pinned through `boundary`, a mapping from leg
    dart (its edge id) to the prescribed value; other keys are refused.  A
    search that passes MAX_WEIGHTS weights is refused.
    """
    check_level(k)
    if not graph.is_trivalent():
        raise ValueError("weights are defined on trivalent graphs")
    legs = set(graph.parabolic_darts())
    preset = {}
    for leg, val in (boundary or {}).items():
        if leg not in legs:
            raise ValueError(f"boundary key {leg!r} is not a parabolic leg")
        num = Fraction(val) * 2 * k
        if num.denominator != 1 or not 0 <= num <= k:
            raise ValueError(f"boundary value {val} out of range at level {k}")
        preset[leg] = int(num)
    if legs - set(preset):
        raise ValueError("parabolic legs need prescribed boundary values")
    found = _labelings(graph, k, 2 * k, preset, MAX_WEIGHTS)
    if len(found) > MAX_WEIGHTS:
        raise ValueError(f"weight lists stop at {MAX_WEIGHTS} weights, level {k} gives more")
    return [WeightFunction(graph, k, tup) for tup in found]


def _labelings(graph, top, vertex_max, pinned, limit):
    """Admissible value tuples on _weight_edge_ids(graph), ascending.

    Each edge takes the values 0..top, or pinned[edge] alone, in ascending
    edge order.  A vertex is tested once its last edge has a value: an even
    sum of at most vertex_max, no value above the other two's sum.  The
    search stops at limit + 1 tuples, which tells the caller it passed.
    """
    edges = _weight_edge_ids(graph)
    ready = [[] for _ in edges]  # the stars whose last edge is edges[i]
    for v in range(graph.n_vertices):
        star = tuple(map(edges.index, _vertex_flag_edges(graph, v)))
        ready[max(star)].append(star)
    # each edge's first and last value; past the last edge, none
    lows = [pinned.get(e, 0) for e in edges] + [0]
    highs = [pinned.get(e, top) for e in edges] + [-1]
    out, combo, n = [], [], lows[0]  # n: the next value to try at len(combo)
    while True:
        i = len(combo)
        if i == len(edges):
            out.append(tuple(combo))
            if len(out) > limit:
                return out
        if n > highs[i]:
            if not combo:
                return out
            n = combo.pop() + 1
            continue
        combo.append(n)
        for a, b, c in ready[i]:
            x, y, z = combo[a], combo[b], combo[c]
            if (x + y + z) % 2 or x + y + z > vertex_max or 2 * max(x, y, z) > x + y + z:
                n = combo.pop() + 1
                break
        else:
            n = lows[i + 1]


def verlinde_count_check(g, k):
    """Count weights on every genus-g graph and demand full agreement.

    The common count is also matched against fusion.verlinde's closed
    route; any mismatch raises InvariantViolation with a witness.
    """
    from .fusion import verlinde

    if not 2 <= _check_int(g, "genus") <= 4:
        raise ValueError("cross-check supports genus 2..4")
    if not 1 <= _check_int(k, "level") <= 10:
        raise ValueError("cross-check supports level 1..10")
    counts = [(graph, count_weights(graph, k)) for graph in enumerate_trivalent(g)]
    baseline = counts[0][1]
    for graph, n in counts:
        if n != baseline:
            raise InvariantViolation(
                f"genus {g} level {k}: count {n} != {baseline}", witness=graph
            )
    closed = verlinde(g, k, "closed")
    if closed != baseline:
        raise InvariantViolation(
            f"genus {g} level {k}: count {baseline} vs closed route {closed}",
            witness=counts[0][0],
        )
    return baseline


# -- U(1) and level-1 analogues ----------------------------------------------


@dataclass(frozen=True, eq=False)
class U1NetworkFamily:
    """All mod-k flows on a graph, coordinatized by a chord basis."""

    graph: TrivalentGraph
    level: int
    flows: tuple
    cycle_basis: tuple

    @property
    def count(self):
        return len(self.flows)


# the largest flow family u1_networks lists: each flow costs about 650 bytes
# and 67 us, so 10^5 flows stay near 65 MB and 7 s
MAX_U1_FLOWS = 10**5


def u1_networks(graph, k):
    """Mod-k edge flows with Kirchhoff condition at every vertex.

    Edges are oriented out of the lower dart; loops are unconstrained.
    Chord values on the complement of a spanning tree parametrize the
    family, so the count is k**genus; families above MAX_U1_FLOWS flows
    are refused before any flow is listed.
    """
    check_level(k)
    if graph.parabolic_darts():
        raise ValueError("flows are defined for graphs without legs")
    chords = chord_edges(graph)
    if k ** len(chords) > MAX_U1_FLOWS:
        raise ValueError(
            f"u1 flow families stop at {MAX_U1_FLOWS} flows, got {k}^{len(chords)}"
        )
    # each tree edge's value as signed chord coefficients, solved from the
    # leaves inward; a loop's two darts cancel
    coeffs = {c: [int(c == cc) for cc in chords] for c in chords}
    tree = []
    for child, _, e in reversed(spanning_tree(graph)):
        row = [0] * len(chords)
        for d in graph.star(child):
            ee = graph.edge_of(d)
            if ee != e:
                sign = 1 if d == ee else -1
                row = [r + sign * c for r, c in zip(row, coeffs[ee])]
        if graph.vertex_of[e] == child:
            row = [-r for r in row]
        coeffs[e] = row
        tree.append(e)
    keys = chords + tuple(tree)
    rows = [coeffs[e] for e in tree]
    flows = tuple(
        dict(zip(keys, combo + tuple([sum(map(operator.mul, row, combo)) % k for row in rows])))
        for combo in itertools.product(range(k), repeat=len(chords))
    )
    return U1NetworkFamily(graph, k, flows, chords)


def level1_networks(graph):
    """Even subgraphs: the 2**genus supports of mod-2 flows and of level-1 weights."""
    if graph.parabolic_darts():
        raise ValueError("even subgraphs are defined for graphs without legs")
    nets = {frozenset(e for e, v in flow.items() if v) for flow in u1_networks(graph, 2).flows}
    return sorted(nets, key=lambda s: (len(s), sorted(s)))


def _elimination_order(graph):
    # greedy: each step takes the vertex that leaves the fewest edges open
    ends = [
        (graph.vertex_of[e], graph.vertex_of[graph.involution[e]])
        for e in _weight_edge_ids(graph)
    ]
    order, done = [], set()

    def open_after(v):
        inside = done | {v}
        return sum((a in inside) != (b in inside) for a, b in ends)

    while len(order) < graph.n_vertices:
        v = min((u for u in range(graph.n_vertices) if u not in done), key=open_after)
        order.append(v)
        done.add(v)
    return order


@functools.lru_cache(maxsize=8)
def _vertex_table(k, parity, pattern, n_known, keep):
    """Admissible values at one vertex, grouped by the known flag values.

    Flag i of the vertex takes its value from slot pattern[i]; slots below
    n_known hold the values of edges already open, the others fresh edges
    (a loop fills two flags from one slot).  Only the triples (a, b, c)
    with |a - b| <= c <= min(a + b, 2k - a - b), and with even sums under
    `parity`, are generated.  Returns {known values: [the kept fresh values
    (slots n_known + j for j in keep)]}, each list in itertools.product
    order over the slots.  Tables are cached and shared, so callers only
    read them.
    """
    n_slots = max(pattern) + 1
    first = operator.itemgetter(*(pattern.index(s) for s in range(n_slots)))
    same = [(i, j) for i, j in itertools.combinations(range(3), 2) if pattern[i] == pattern[j]]
    step = 2 if parity else 1
    trips = [
        (a, b, c)
        for a in range(k + 1)
        for b in range(k + 1)
        for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, step)
    ]
    if same:
        trips = [t for t in trips if all(t[i] == t[j] for i, j in same)]
    tail = _picker([n_known + j for j in keep])
    table = {}
    for row in sorted(map(first, trips)):
        table.setdefault(row[:n_known], []).append(tail(row))
    return table


def _picker(idx):
    # maps a tuple to the tuple of its entries at idx
    if len(idx) == 1:
        return lambda t, i=idx[0]: (t[i],)
    return operator.itemgetter(*idx) if idx else lambda t: ()


def count_weights(graph, k, parity=True):
    """Number of admissible level-k weights, by vertex elimination.

    Counts integer tuples c_e in 0..k with 2*max <= sum <= 2k at every
    vertex and, with `parity`, an even vertex sum: the numerators of the
    weights enumerate_weights lists.  Without parity it counts the lattice
    points of the weight polytope dilated by k/2 (k = 0 allowed).
    Parabolic legs are free coordinates.  Vertices are eliminated one at
    a time, greedily keeping few edges open; a state maps the values of
    the edges still open to the number of partial assignments behind them.

    A vertex's allowed values depend only on its pattern: which flags
    share an edge, how many of its edges are already open and which fresh
    ones stay open.  _vertex_table builds each pattern's table from the
    triangle bounds rather than by filtering all (k+1)^3 value tuples, and
    keeps the last 8 for the process: the graphs of one genus at one level
    share their patterns, six of them at each genus from 3 to 5.
    """
    _check_int(k, "level" if parity else "dilation", 1 if parity else 0)
    if not graph.is_trivalent():
        raise ValueError("weights are defined on trivalent graphs")
    processed = set()
    open_edges = []
    states = {(): 1}
    for v in _elimination_order(graph):
        flags = _vertex_flag_edges(graph, v)
        fresh = sorted({e for e in flags if e not in open_edges})
        known = [e for e in flags if e not in fresh]
        slots = known + fresh
        processed.add(v)

        def still_open(e):
            ends = (graph.vertex_of[e], graph.vertex_of[graph.involution[e]])
            return not all(u in processed for u in ends)

        keep = [i for i, e in enumerate(open_edges) if still_open(e)]
        fresh_keep = tuple(j for j, e in enumerate(fresh) if still_open(e))
        valid = _vertex_table(
            k, parity, tuple(slots.index(e) for e in flags), len(known), fresh_keep
        )
        head_of = _picker(keep)
        known_of = _picker([open_edges.index(e) for e in known])
        new_states = {}
        for state, cnt in states.items():
            head = head_of(state)
            for tail in valid.get(known_of(state), ()):
                nk = head + tail
                new_states[nk] = new_states.get(nk, 0) + cnt
        open_edges = [open_edges[i] for i in keep] + [fresh[j] for j in fresh_keep]
        states = new_states
    return sum(states.values())


def polytope_volume(graph):
    """Exact (Fraction) Euclidean volume of the graph's weight polytope.

    The coordinates are the internal edges and the parabolic legs.  The
    volume is the leading coefficient of the lattice-point counts of the
    polytope's even dilations: on the nodes 0..dim+1 the Newton
    coefficient f[0..d] is the d-th forward difference over d!.
    """
    dim = len(_weight_edge_ids(graph))
    seq = [count_weights(graph, 2 * s, parity=False) for s in range(dim + 2)]
    coeffs = _newton_coefficients(range(dim + 2), seq)
    if coeffs[dim + 1] != 0:
        raise InvariantViolation(
            "dilation counts are not polynomial at even steps", witness=graph
        )
    return coeffs[dim] / Fraction(4) ** dim


# -- growth of the count ------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticsReport:
    """Leading-order fit of the weight count against 2^g times volume."""

    genus: int
    ks: tuple
    counts: tuple
    degree: int
    leading_coefficient: object
    density_times_volume: object
    consistent: bool
    fit_warning: bool
    note: str


def _newton_coefficients(xs, ys):
    # divided differences f[x0..xd] for d = 0..len-1
    level = [Fraction(y) for y in ys]
    coeffs = [level[0]]
    for d in range(1, len(xs)):
        level = [
            (level[i + 1] - level[i]) / (xs[i + d] - xs[i])
            for i in range(len(level) - 1)
        ]
        coeffs.append(level[0])
    return coeffs


def bs_asymptotics(g, k_range):
    """Fit count(k) ~ C * k^(3g-3) and compare C with 2^g * volume.

    The parity sublattice has index 2^(V-1) in (Z/2k)^E, which leaves a
    point density of 2^g relative to the polytope volume in w
    coordinates; a bare volume normalization undercounts by that factor.
    """
    _check_int(g, "genus", 2)
    ks = sorted({_check_int(k, "level", 1) for k in k_range})
    if not ks:
        raise ValueError("need at least one level")
    graph = multi_theta(g)
    counts = [count_weights(graph, k) for k in ks]
    degree = 3 * g - 3
    density = Fraction(2**g) * polytope_volume(graph)
    note = (
        "count ~ C k^(3g-3) with C = 2^g * vol; the bare volume "
        "normalization misses the parity-density factor 2^g"
    )

    if len(ks) < degree + 2:
        lead = Fraction(counts[-1], ks[-1] ** degree)
        return AsymptoticsReport(
            g, tuple(ks), tuple(counts), degree, lead, density, False, True,
            note + "; too few levels for a certified polynomial fit",
        )

    coeffs = _newton_coefficients(ks, counts)
    if any(c != 0 for c in coeffs[degree + 1 :]):
        return AsymptoticsReport(
            g, tuple(ks), tuple(counts), degree, coeffs[degree], density,
            False, False, note + "; counts are not degree-(3g-3) polynomial",
        )
    lead = coeffs[degree]
    return AsymptoticsReport(
        g, tuple(ks), tuple(counts), degree, lead, density, lead == density, False, note
    )


# -- serialization ------------------------------------------------------------


def weights_to_json(ws):
    """Weight list as JSON; numerators over the shared denominator 2k."""
    if not ws:
        return json.dumps({"level": None, "denominator": None, "weights": []})
    k = ws[0].level
    if any(w.level != k for w in ws):
        raise ValueError("all weights must share one level")
    body = [{str(e): n for e, n in zip(_weight_edge_ids(w.graph), w.numerators)} for w in ws]
    return json.dumps({"level": k, "denominator": 2 * k, "weights": body}, indent=1)
