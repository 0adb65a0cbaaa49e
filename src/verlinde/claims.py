"""The cross-check battery: every headline claim, each checked two ways.

CLAIMS is a list of (name, check) pairs.  A check takes one flag, `quick`,
which picks small levels and few samples; it returns a one-line detail
string and raises InvariantViolation when two routes disagree.
`verlinde selftest` prints the battery and tests/test_acceptance.py runs
it at full scale.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import fusion, gauge, graphs, modular, newstead, su2reps, thetacst, weights
from .weights import InvariantViolation

# Verlinde numbers at four (genus, level) points, known independently
_SPOTS = {(2, 1): 4, (2, 2): 10, (3, 1): 8, (3, 2): 36}


def _check(condition, message):
    if not condition:
        raise InvariantViolation(message)


def verlinde_routes(quick):
    for (g, k), expect in _SPOTS.items():
        for via in ("weights", "characters", "closed"):
            got = fusion.verlinde(g, k, via=via)
            _check(got == expect, f"verlinde({g},{k}) via {via}: {got} != {expect}")
    return f"{len(_SPOTS)} spot values, 3 routes each"


def count_routes(kmax, all_routes=True):
    """Genus-2 and genus-3 weight counts for k = 1..kmax against the spot
    values and, with all_routes, the character and closed routes."""
    for g in (2, 3):
        for k in range(1, kmax + 1):
            count = weights.verlinde_count_check(g, k)
            if (g, k) in _SPOTS:
                _check(count == _SPOTS[(g, k)], f"genus {g} level {k}: count {count}")
            if all_routes:
                for via in ("characters", "closed"):
                    got = fusion.verlinde(g, k, via=via)
                    _check(got == count, f"genus {g} level {k}: {via} {got} != count {count}")


def theta_dumbbell(top, listed=True):
    """Theta and dumbbell weight counts agree for k = 1..top and, with listed,
    equal the lengths of their enumerated weight lists."""
    theta, bell = graphs.theta_graph(), graphs.dumbbell_graph()
    for k in range(1, top + 1):
        a = weights.count_weights(theta, k)
        b = weights.count_weights(bell, k)
        _check(a == b, f"theta {a} != dumbbell {b} at level {k}")
        if listed:
            got = (len(weights.enumerate_weights(theta, k)), len(weights.enumerate_weights(bell, k)))
            _check(got == (a, b), f"level {k}: listed {got} != counted {(a, b)}")


def graph_independence(quick):
    kmax = 3 if quick else 8
    top = 6 if quick else 12
    count_routes(kmax, all_routes=not quick)
    theta_dumbbell(top, listed=not quick)
    if not quick:
        # the handle-operator rank against direct enumeration
        for g in (2, 3):
            graph = graphs.multi_theta(g)
            for k in range(1, 7):
                rank, listed = fusion.rk(g, (), k), len(weights.enumerate_weights(graph, k))
                _check(rank == listed, f"genus {g} level {k}: rank {rank} != {listed} weights")
    return f"genus 2-3 up to level {kmax}; theta = dumbbell up to level {top}"


def g2_closed_form(quick):
    kmax = 12 if quick else 40
    for k in range(1, kmax + 1):
        expect = (k + 2) * ((k + 2) ** 2 - 1) // 6
        got = fusion.verlinde(2, k, via="closed")
        _check(got == expect, f"level {k}: {got} != {expect}")
    vol = weights.polytope_volume(weights.polytope(graphs.theta_graph()))
    _check(4 * vol == Fraction(1, 6), f"lattice density times volume is {4 * vol}")
    return f"cubic in k+2 up to level {kmax}; leading coefficient 4/24"


def u1_counts(quick):
    kmax = 6 if quick else 12
    cases = [graphs.TrivalentGraph.from_edges(1, [(0, 0)]), graphs.theta_graph(),
             graphs.dumbbell_graph(), graphs.multi_theta(3)]
    if not quick:
        cases += graphs.enumerate_trivalent(2) + graphs.enumerate_trivalent(3)
    for graph in cases:
        g = graphs.genus(graph)
        for k in range(1, kmax + 1):
            got = weights.u1_networks(graph, k).count
            _check(got == k**g, f"genus {g} level {k}: {got} != {k**g}")
        if not quick and graph.is_trivalent():
            # level 1: even subgraphs from a cycle basis against listed weights
            nets = weights.level1_networks(graph)
            supports = {
                frozenset(e for e, v in w.values.items() if v)
                for w in weights.enumerate_weights(graph, 1)
            }
            _check(set(nets) == supports, f"genus {g}: even subgraphs != level-1 supports")
            counted = weights.count_weights(graph, 1)
            _check(
                len(nets) == 2**g == counted,
                f"genus {g}: {len(nets)} even subgraphs, {counted} counted",
            )
    return f"{len(cases)} graphs up to level {kmax}"


def theta_value(quick):
    top = 8 if quick else 10
    oracle = math.fsum(math.exp(-math.pi * n * n) for n in range(-top, top + 1))
    char = thetacst.ThetaCharacteristic(1, (0,))
    got = thetacst.theta_char(char, [[1j]], [0.0])
    _check(abs(got - 1.0864348112) < 1e-9, f"theta(0, i) = {got}")
    _check(abs(got - oracle) < 1e-12, f"series oracle disagrees: {got} vs {oracle}")
    return "theta(0, i) = 1.0864348112"


def _random_period(rng, g):
    re = rng.uniform(-0.5, 0.5, size=(g, g))
    s = rng.uniform(-0.5, 0.5, size=(g, g))
    im = s @ s.T + np.eye(g)
    return thetacst.PeriodMatrix(0.5 * (re + re.T) + 1j * im)


def theta_quasiperiodicity(quick):
    rng = np.random.default_rng(7)
    draws = 4 if quick else 20
    worst = 0.0
    for _ in range(draws):
        g = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        om = _random_period(rng, g)
        char = thetacst.ThetaCharacteristic(k, tuple(int(c) for c in rng.integers(0, k, size=g)))
        z = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(-0.3, 0.3, size=g)
        p = rng.integers(-1, 2, size=g)
        q = rng.integers(-1, 2, size=g)
        lhs = thetacst.theta_char(char, om, z + p + om.matrix @ q)
        factor = np.exp(
            2j * np.pi * np.dot(char.vector, p)
            - 1j * np.pi * k * (q @ om.matrix @ q)
            - 2j * np.pi * k * np.dot(q, z)
        )
        rhs = factor * thetacst.theta_char(char, om, z)
        # the sides grow like the automorphy factor; gauge the gap against them
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _check(worst < 1e-9, f"quasi-periodicity residual {worst}")
    return f"{draws} random translations, relative residual < 1e-9"


def cst_pipeline(quick):
    rng = np.random.default_rng(11)
    points = 3 if quick else 10
    worst = 0.0
    for k in (1, 2):
        for om in (thetacst.PeriodMatrix([[1j]]), thetacst.PeriodMatrix([[0.25 + 0.8j]])):
            for ch in range(k):
                series = thetacst.abelian_cst(
                    thetacst.delta_distribution((ch,), k), om, 1.0 / k
                )
                char = thetacst.ThetaCharacteristic(k, (ch,))
                for _ in range(points):
                    z = [complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))]
                    got = thetacst.evaluate_series(series, z)
                    ref = thetacst.theta_char(char, om, z)
                    worst = max(worst, abs(got - ref))
    _check(worst < 1e-10, f"transform residual {worst}")
    return "transform of the delta series matches the theta series"


def _check_wilson_loops(graph, conn):
    """Twice-spin 1 on an even subgraph S, 0 elsewhere, is the product of
    the traced holonomies of the cycles of S over 2**(V/2), V the vertices
    S touches.  The sign holds on genus-2 graphs; some genus-3 cycles flip it."""
    for support in weights.level1_networks(graph):
        if not support:
            continue
        darts = [d for d in range(graph.n_darts) if graph.edge_of(d) in support]
        # partner dart, then the other S-dart at that vertex
        succ = {}
        for d in darts:
            f = graph.involution[d]
            succ[d] = next(x for x in graph.star(graph.vertex_of[f]) if x != f and x in darts)
        # each cycle turns up once per orientation; traces cannot tell them apart
        cycles = {frozenset(map(graph.edge_of, c)): c for c in graphs._orbits(succ)}
        product = math.prod(np.trace(gauge.holonomy(conn, c)) for c in cycles.values())
        coloring = {e: int(e in support) for e in graph.edge_ids()}
        value = gauge.spin_network_value(gauge.spin_network(graph, coloring), conn)
        n_vertices = len({graph.vertex_of[d] for d in darts})
        gap = abs(value * 2 ** (n_vertices / 2) - product)
        _check(
            gap < 1e-12 * max(1.0, abs(product)),
            f"Wilson loops on {sorted(support)}: gap {gap}",
        )


def gauge_invariance(quick):
    rng = np.random.default_rng(3 if quick else 0)
    cap = 2 if quick else 4
    samples = 10 if quick else 100
    cases = [graphs.theta_graph()] if quick else graphs.enumerate_trivalent(2)
    worst = 0.0
    for graph in cases:
        conn = gauge.random_connection(graph, rng)
        transforms = [gauge.random_transform(graph, rng) for _ in range(samples)]
        spread = gauge.orbit_spread(conn, gauge.admissible_colorings(graph, cap), transforms)
        worst = max(worst, spread)
        if not quick:
            _check_wilson_loops(graph, conn)
    _check(worst < 1e-10, f"gauge orbit spread {worst}")
    return f"colorings up to twice-spin {cap}, {samples} transforms"


def modular_residuals(quick):
    kmax = 2 if quick else 6
    for k in range(1, kmax + 1):
        rep = modular.residual_report(k)
        for name in ("orthogonality", "symmetry", "pentagon", "yang_baxter"):
            _check(rep[name] is not None, f"level {k} {name} residual is missing")
        for name, val in rep.items():
            if val is not None:
                _check(val < 1e-9, f"level {k} {name} residual {val}")
        _check(rep["s_unitarity"] < 1e-12, f"level {k} s_unitarity residual {rep['s_unitarity']}")
    return f"all relations below 1e-9 up to level {kmax}"


def heegaard_words(quick):
    kmax = 4 if quick else 8
    for k in range(1, kmax + 1):
        one = modular.heegaard_invariant(modular.heegaard_word(""), k)
        _check(one == 1.0, f"identity word at level {k}: {one}")
        s = modular.heegaard_invariant(modular.heegaard_word("S"), k)
        expect = math.sqrt(2.0 / (k + 2)) * math.sin(math.pi / (k + 2))
        _check(abs(s - expect) < 1e-10, f"S word at level {k}: {s} vs {expect}")
    return f"identity and S words up to level {kmax}"


def newstead_exact(quick):
    _check(newstead.n0(3, 0) == -8, f"N0(alpha^3) = {newstead.n0(3, 0)}")
    top = 20 if quick else 40
    for m in range(1, top + 1):
        total = sum(math.comb(m + 1, j) * newstead.bernoulli(j) for j in range(m + 1))
        _check(total == 0, f"Bernoulli recurrence fails at index {m}")
    deg_cap = 12 if quick else 30
    pairs = 0
    for a in range(deg_cap + 1):
        for b in range(a + 1):
            m = newstead.NewsteadMonomial(a, b, 0)
            if m.degree > deg_cap:
                continue
            lifted = newstead.NewsteadMonomial(a, b, 1)
            _check(
                newstead.normalized_value(lifted) == newstead.normalized_value(m),
                f"gamma reduction fails on alpha^{a} beta^{b}",
            )
            if m.degree % 3 == 0:
                # the gamma lift has degree 3g-3 exactly when m has 3(g-1)-3
                g = m.degree // 3 + 2
                _check(
                    newstead.unnormalize(g, lifted)
                    == g * newstead.unnormalize(g - 1, m),
                    f"genus recurrence fails on alpha^{a} beta^{b}",
                )
                pairs += 1
    return f"recurrences exact through degree {deg_cap} ({pairs} genus steps)"


def fusion_associativity(quick):
    kmax = 3 if quick else 8
    for k in range(1, kmax + 1):
        ring = fusion.FusionRing(k)
        for a, b, c, d in itertools.product(ring.labels, repeat=4):
            left = sum(ring.N(a, b, e) * ring.N(e, c, d) for e in ring.labels)
            right = sum(ring.N(b, c, f) * ring.N(a, f, d) for f in ring.labels)
            _check(left == right, f"associativity fails at level {k} on {(a, b, c, d)}")
    return f"exhaustive through level {kmax}"


def fusion_diagonalization(quick):
    kmax = 6 if quick else 8
    worst = 0.0
    for k in range(1, kmax + 1):
        ring = fusion.FusionRing(k)
        for n in range(1, k + 2):
            chi = [fusion.character(k, n, m) for m in ring.labels]
            if not quick:
                # the same characters as irrep traces at the torus element
                z = np.exp(1j * np.pi * n / (k + 2))
                torus = np.array([[z, 0], [0, z.conjugate()]])
                for m in ring.labels:
                    worst = max(worst, abs(su2reps.character(m, torus) - chi[m]))
            for a, b in itertools.product(ring.labels, repeat=2):
                total = sum(ring.N(a, b, c) * chi[c] for c in ring.labels)
                worst = max(worst, abs(total - chi[a] * chi[b]))
    _check(worst < 1e-10, f"diagonalization residual {worst}")
    return f"characters diagonalize the structure constants up to level {kmax}"


def graph_moves(quick):
    top = 2 if quick else 3
    for g in range(2, top + 1):
        comps = graphs.move_graph_components(g)
        _check(len(comps) == 1, f"genus {g} move graph has {len(comps)} components")
    return f"elementary moves connect all classes through genus {top}"


def ribbon_faces(quick):
    for name, make, ribbon in (
        ("theta", graphs.theta_graph, graphs.planar_theta_ribbon),
        ("dumbbell", graphs.dumbbell_graph, graphs.planar_dumbbell_ribbon),
    ):
        faces, h = graphs.trace_faces(make(), ribbon())
        _check(h == 0, f"planar {name} ribbon traces to genus {h}")
        _check(len(faces) == 3, f"planar {name} ribbon has {len(faces)} faces")
    return "planar ribbons close up at genus 0"


def eulerian_parity(quick):
    top = 3 if quick else 4
    for g in range(2, top + 1):
        for rep in graphs.enumerate_trivalent(g):
            e = graphs.eulerian_invariant(rep)
            _check(e % 2 == (g - 1) % 2, f"genus {g} graph with eulerian invariant {e}")
    return f"invariant parity matches genus through {top}"


CLAIMS = [
    ("verlinde-routes", verlinde_routes),
    ("graph-independence", graph_independence),
    ("g2-closed-form", g2_closed_form),
    ("u1-counts", u1_counts),
    ("theta-value", theta_value),
    ("theta-quasiperiodicity", theta_quasiperiodicity),
    ("cst-pipeline", cst_pipeline),
    ("gauge-invariance", gauge_invariance),
    ("modular-residuals", modular_residuals),
    ("heegaard-words", heegaard_words),
    ("newstead-exact", newstead_exact),
    ("fusion-associativity", fusion_associativity),
    ("fusion-diagonalization", fusion_diagonalization),
    ("graph-moves", graph_moves),
    ("ribbon-faces", ribbon_faces),
    ("eulerian-parity", eulerian_parity),
]
