"""Command-line front end: batch computations, cross-checks, reports.

One binary with subcommand dispatch.  JSON is the canonical machine format
(complex numbers as [re, im] pairs, floats rounded to ten decimals,
residual-scale numbers to ten significant digits); CSV is used for tables
only.  Long enumerations stream one record per line with a count at the
end.  Exit codes: 0 success, 1 usage error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fusion, gauge, graphs, modular, newstead, thetacst, weights
from .su2reps import admissible_triple
from .weights import InvariantViolation


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings collected from the parsed command line."""

    subcommand: str
    graph: str | None = None
    level: int | None = None
    genus: int | None = None
    tolerance: float = 1e-12
    seed: int = 0
    fmt: str = "json"
    threads: int | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


# -- output formatting ---------------------------------------------------------


def _f(x):
    """Ten decimal places; json then prints the shortest matching literal."""
    v = round(float(x), 10)
    return 0.0 if v == 0 else v


def _sci(x):
    """Ten significant digits for residual-scale numbers."""
    return float(f"{float(x):.9e}")


def _cx(z):
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


def _jprint(obj):
    print(json.dumps(obj, separators=(",", ":")))


# -- argument parsing ----------------------------------------------------------


_BARE_I = re.compile(r"(?<![\d.])j")


def _parse_complex(text):
    """Complex literal with i or j as the imaginary unit, e.g. 1+2i."""
    t = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    if not t:
        raise ValueError("empty complex literal")
    try:
        return complex(_BARE_I.sub("1j", t))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def _split(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty vector literal")
    return parts


def _complex_array(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise ValueError("omega JSON must be a square matrix of [re, im] pairs")


def _parse_omega(text):
    """Period matrix from an inline literal, inline JSON, or a JSON file."""
    blob = None
    if os.path.isfile(text):
        with open(text) as fh:
            blob = fh.read()
    elif text.lstrip().startswith("["):
        blob = text
    if blob is not None:
        return thetacst.PeriodMatrix(_complex_array(json.loads(blob)))
    return thetacst.PeriodMatrix([[_parse_complex(text)]])


_GENERATORS = {"theta": graphs.theta_graph, "dumbbell": graphs.dumbbell_graph}


def _load_graph(source):
    """Graph from inline JSON, a JSON file, or a generator name.

    Generator names: theta, dumbbell, chain-G, multitheta-G.
    """
    s = source.strip()
    if s.startswith("{"):
        return graphs.graph_from_json(s)
    if os.path.isfile(s):
        with open(s) as fh:
            return graphs.graph_from_json(fh.read())
    if s in _GENERATORS:
        return _GENERATORS[s]()
    name, _, arg = s.partition("-")
    if name in ("chain", "multitheta") and arg.isdigit():
        make = graphs.chain_graph if name == "chain" else graphs.multi_theta
        return make(int(arg))
    raise ValueError(f"unknown graph source {source!r}")


def _thread_count(args):
    n = getattr(args, "threads", None)
    if n is None:
        env = os.environ.get("VERLINDE_THREADS", "").strip()
        if env:
            n = int(env)
    if n is not None and (isinstance(n, bool) or n < 1):
        raise ValueError("thread count must be a positive integer")
    return n


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_graph_show(cfg, args):
    g = _load_graph(cfg.graph)
    print(graphs.graph_to_json(g, canonical=args.canonical))
    return 0


def _cmd_graph_info(cfg, args):
    g = _load_graph(cfg.graph)
    info = {
        "vertices": g.n_vertices,
        "edges": len(g.edges()),
        "genus": graphs.genus(g),
        "connected": g.is_connected(),
        "trivalent": g.is_trivalent(),
        "eulerian": None,
    }
    if info["connected"] and info["trivalent"] and not g.parabolic_darts():
        info["eulerian"] = graphs.eulerian_invariant(g)
    _jprint(info)
    return 0


def _cmd_graph_enumerate(cfg, args):
    reps = graphs.enumerate_trivalent(cfg.genus)
    for rep in reps:
        print(graphs.graph_to_json(rep, canonical=True))
    _jprint({"count": len(reps)})
    return 0


_PLANAR_RIBBONS = {
    "theta": graphs.planar_theta_ribbon,
    "dumbbell": graphs.planar_dumbbell_ribbon,
}


def _cmd_graph_faces(cfg, args):
    if cfg.graph in _PLANAR_RIBBONS:
        g = _GENERATORS[cfg.graph]()
        ribbon = _PLANAR_RIBBONS[cfg.graph]()
    else:
        s = cfg.graph.strip()
        if os.path.isfile(s):
            with open(s) as fh:
                s = fh.read()
        if not s.lstrip().startswith("{"):
            raise ValueError("face tracing needs a ribbon: pass graph JSON or theta/dumbbell")
        g, ribbon = graphs.graph_from_json(s, with_ribbon=True)
    faces, h = graphs.trace_faces(g, ribbon)
    _jprint({"faces": len(faces), "surface_genus": h})
    return 0


def _cmd_weights_list(cfg, args):
    g = _load_graph(cfg.graph)
    ws = weights.enumerate_weights(g, cfg.level)
    print(weights.weights_to_json(ws))
    return 0


def _cmd_weights_count(cfg, args):
    reps = graphs.enumerate_trivalent(cfg.genus)
    counts = [weights.count_weights(rep, cfg.level) for rep in reps]
    if cfg.fmt == "csv":
        print("graph,level,count")
        for i, n in enumerate(counts):
            print(f"{i},{cfg.level},{n}")
    else:
        _jprint({"genus": cfg.genus, "level": cfg.level, "counts": counts})
    return 0


def _cmd_weights_u1(cfg, args):
    g = _load_graph(cfg.graph)
    fam = weights.u1_networks(g, cfg.level)
    _jprint({"genus": graphs.genus(g), "level": cfg.level, "count": fam.count})
    return 0


def _cmd_verlinde(cfg, args):
    if args.via == "all":
        routes = ("weights", "characters", "closed") if cfg.genus >= 2 else ("characters", "closed")
    else:
        routes = (args.via,)
    values, unresolved = {}, {}
    for via in routes:
        try:
            values[via] = fusion.verlinde(cfg.genus, cfg.level, via=via)
        except fusion.UnresolvedRoute as exc:
            values[via] = None if args.via == "all" else exc.witness.exact
            unresolved[via] = str(exc)
    if args.via != "all":
        print(values[args.via])
        for note in unresolved.values():
            print(f"note: {note}", file=sys.stderr)
        return 0
    if unresolved:
        values["unresolved"] = unresolved
    _jprint(values)
    return 0


def _cmd_fusion_table(cfg, args):
    ring = fusion.FusionRing(cfg.level)
    rows = ring.multiplication_rows()
    if cfg.fmt == "json":
        body = [[a, b, [int(c) for c in cs.split()]] for a, b, cs in rows]
        _jprint({"level": cfg.level, "rows": body})
    else:
        print("a,b,channels")
        for a, b, cs in rows:
            print(f"{a},{b},{cs}")
    return 0


def _cmd_fusion_check(cfg, args):
    rep = fusion.ideal_check(cfg.level)
    _jprint({"level": rep.level, "pairs": rep.pairs, "all_match": rep.all_match})
    if not rep.all_match:
        raise InvariantViolation(f"ideal reduction mismatches: {rep.mismatches}")
    return 0


def _cmd_newstead(cfg, args):
    if args.table is not None:
        if args.alpha is not None or args.omega is not None:
            raise ValueError("--table excludes --alpha/--omega")
        deg = 3 * args.table - 3
        print("alpha,beta,gamma,normalized,unnormalized")
        for c in range(deg // 3 + 1):
            for b in range((deg - 3 * c) // 2 + 1):
                a = deg - 2 * b - 3 * c
                m = newstead.NewsteadMonomial(a, b, c)
                try:
                    nv = newstead.normalized_value(m)
                    print(f"{a},{b},{c},{nv},{newstead.unnormalize(args.table, m)}")
                except ValueError:
                    print(f"{a},{b},{c},,")
        return 0
    if args.alpha is None or args.omega is None:
        raise ValueError("pass --alpha and --omega, or --table")
    print(newstead.n0(args.alpha, args.omega))
    return 0


def _cmd_theta_eval(cfg, args):
    ch = tuple(int(p) for p in _split(args.char))
    if args.g is not None and args.g != len(ch):
        raise ValueError("--g disagrees with the characteristic length")
    char = thetacst.ThetaCharacteristic(cfg.level, ch)
    om = _parse_omega(args.omega)
    z = [_parse_complex(p) for p in _split(args.z)]
    val = thetacst.theta_char(char, om, z, tol=cfg.tolerance)
    print(json.dumps(_cx(val)))
    return 0


def _cmd_cst_eval(cfg, args):
    ch = tuple(int(p) for p in _split(args.char))
    om = _parse_omega(args.omega)
    z = [_parse_complex(p) for p in _split(args.z)]
    t = args.time if args.time is not None else 1.0 / cfg.level
    series = thetacst.abelian_cst(thetacst.delta_distribution(ch, cfg.level), om, t)
    print(json.dumps(_cx(thetacst.evaluate_series(series, z))))
    return 0


def _cmd_cst_check(cfg, args):
    om = _parse_omega(args.omega)
    g, k = om.genus, cfg.level
    rng = np.random.default_rng(cfg.seed)
    transformed = {
        ch: thetacst.abelian_cst(thetacst.delta_distribution(ch, k), om, 1.0 / k)
        for ch in itertools.product(range(k), repeat=g)
    }
    worst = 0.0
    for _ in range(args.points):
        z = rng.uniform(-1.0, 1.0, size=g) + 1j * rng.uniform(-0.2, 0.2, size=g)
        for ch, series in transformed.items():
            ref = thetacst.theta_char(thetacst.ThetaCharacteristic(k, ch), om, z)
            worst = max(worst, abs(thetacst.evaluate_series(series, z) - ref))
    _jprint({"points": args.points, "characteristics": k**g, "residual": _sci(worst)})
    if worst > cfg.tolerance:
        raise InvariantViolation(f"transform disagrees with the theta series by {worst}")
    return 0


def _admissible_colorings(graph, cap):
    eids = graph.edge_ids()
    stars = [
        tuple(graph.edge_of(d) for d in graph.star(v)) for v in range(graph.n_vertices)
    ]
    out = []
    for combo in itertools.product(range(cap + 1), repeat=len(eids)):
        coloring = dict(zip(eids, combo))
        if all(admissible_triple(*(coloring[e] for e in st)) for st in stars):
            out.append(coloring)
    return out


def _cmd_gauge_check(cfg, args):
    graph = _load_graph(cfg.graph)
    rng = np.random.default_rng(cfg.seed)
    conn = gauge.random_connection(graph, rng)
    networks = [gauge.spin_network(graph, c) for c in _admissible_colorings(graph, args.cap)]
    base = [gauge.spin_network_value(snf, conn) for snf in networks]
    worst = 0.0
    for _ in range(args.samples):
        moved = gauge.gauge_act(conn, gauge.random_transform(graph, rng))
        for snf, ref in zip(networks, base):
            worst = max(worst, abs(gauge.spin_network_value(snf, moved) - ref))
    _jprint({"colorings": len(networks), "samples": args.samples, "residual": _sci(worst)})
    if worst > cfg.tolerance:
        raise InvariantViolation(f"gauge orbit spread {worst} exceeds tolerance")
    return 0


def _cmd_modular_check(cfg, args):
    rep = modular.residual_report(cfg.level, threads=cfg.threads)
    _jprint({key: (None if v is None else _sci(v)) for key, v in rep.items()})
    return 0


def _cmd_invariant(cfg, args):
    val = modular.heegaard_invariant(modular.heegaard_word(args.word), cfg.level)
    mag, arg = modular.phase_class(val, cfg.level)
    if mag < 1e-12:
        # the argument of a vanishing invariant is numerical noise
        mag, arg = 0.0, 0.0
    _jprint({"value": _cx(val), "phase_class": [_f(mag), _f(arg)]})
    return 0


# -- selftest battery ------------------------------------------------------------


def _check(condition, message):
    if not condition:
        raise InvariantViolation(message)


def _selftest_verlinde_routes(quick):
    spots = {(2, 1): 4, (2, 2): 10, (3, 1): 8, (3, 2): 36}
    for (g, k), expect in spots.items():
        for via in ("weights", "characters", "closed"):
            got = fusion.verlinde(g, k, via=via)
            _check(got == expect, f"verlinde({g},{k}) via {via}: {got} != {expect}")
    return f"{len(spots)} spot values, 3 routes each"


def _selftest_graph_independence(quick):
    kmax = 3 if quick else 8
    for g in (2, 3):
        for k in range(1, kmax + 1):
            weights.verlinde_count_check(g, k)
    theta, bell = graphs.theta_graph(), graphs.dumbbell_graph()
    top = 6 if quick else 12
    for k in range(1, top + 1):
        a = weights.count_weights(theta, k)
        b = weights.count_weights(bell, k)
        _check(a == b, f"theta {a} != dumbbell {b} at level {k}")
    return f"genus 2-3 up to level {kmax}; theta = dumbbell up to level {top}"


def _selftest_g2_closed_form(quick):
    kmax = 12 if quick else 40
    for k in range(1, kmax + 1):
        expect = (k + 2) * ((k + 2) ** 2 - 1) // 6
        got = fusion.verlinde(2, k, via="closed")
        _check(got == expect, f"level {k}: {got} != {expect}")
    vol = weights.polytope_volume(weights.polytope(graphs.theta_graph()))
    _check(4 * vol == Fraction(1, 6), f"lattice density times volume is {4 * vol}")
    return f"cubic in k+2 up to level {kmax}; leading coefficient 4/24"


def _selftest_u1_counts(quick):
    kmax = 6 if quick else 12
    cases = [graphs.TrivalentGraph.from_edges(1, [(0, 0)]), graphs.theta_graph(),
             graphs.dumbbell_graph(), graphs.multi_theta(3)]
    for graph in cases:
        g = graphs.genus(graph)
        for k in range(1, kmax + 1):
            got = weights.u1_networks(graph, k).count
            _check(got == k**g, f"genus {g} level {k}: {got} != {k**g}")
    return f"{len(cases)} graphs up to level {kmax}"


def _selftest_theta_value(quick):
    oracle = math.fsum(math.exp(-math.pi * n * n) for n in range(-8, 9))
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


def _selftest_theta_quasiperiodicity(quick):
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


def _selftest_cst_pipeline(quick):
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


def _selftest_gauge_invariance(quick):
    rng = np.random.default_rng(3)
    cap = 2 if quick else 4
    samples = 10 if quick else 100
    cases = [graphs.theta_graph()] if quick else [graphs.theta_graph(), graphs.dumbbell_graph()]
    worst = 0.0
    for graph in cases:
        conn = gauge.random_connection(graph, rng)
        for coloring in _admissible_colorings(graph, cap):
            snf = gauge.spin_network(graph, coloring)
            ref = gauge.spin_network_value(snf, conn)
            for _ in range(samples):
                moved = gauge.gauge_act(conn, gauge.random_transform(graph, rng))
                worst = max(worst, abs(gauge.spin_network_value(snf, moved) - ref))
    _check(worst < 1e-10, f"gauge orbit spread {worst}")
    return f"colorings up to twice-spin {cap}, {samples} transforms"


def _selftest_modular_residuals(quick, threads=None):
    kmax = 2 if quick else 6
    for k in range(1, kmax + 1):
        rep = modular.residual_report(k, threads=threads)
        for name, val in rep.items():
            if val is not None:
                _check(val < 1e-9, f"level {k} {name} residual {val}")
    return f"all relations below 1e-9 up to level {kmax}"


def _selftest_heegaard_words(quick):
    kmax = 4 if quick else 8
    for k in range(1, kmax + 1):
        one = modular.heegaard_invariant(modular.heegaard_word(""), k)
        _check(one == 1.0, f"identity word at level {k}: {one}")
        s = modular.heegaard_invariant(modular.heegaard_word("S"), k)
        expect = math.sqrt(2.0 / (k + 2)) * math.sin(math.pi / (k + 2))
        _check(abs(s - expect) < 1e-10, f"S word at level {k}: {s} vs {expect}")
    return f"identity and S words up to level {kmax}"


def _selftest_newstead_exact(quick):
    _check(newstead.n0(3, 0) == -8, f"N0(alpha^3) = {newstead.n0(3, 0)}")
    top = 20 if quick else 40
    for m in range(2, top + 1):
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


def _selftest_fusion_associativity(quick):
    kmax = 3 if quick else 8
    for k in range(1, kmax + 1):
        ring = fusion.FusionRing(k)
        for a, b, c, d in itertools.product(ring.labels, repeat=4):
            left = sum(ring.N(a, b, e) * ring.N(e, c, d) for e in ring.labels)
            right = sum(ring.N(b, c, f) * ring.N(a, f, d) for f in ring.labels)
            _check(left == right, f"associativity fails at level {k} on {(a, b, c, d)}")
    return f"exhaustive through level {kmax}"


def _selftest_fusion_diagonalization(quick):
    worst = 0.0
    for k in range(1, 7):
        ring = fusion.FusionRing(k)
        for n in range(1, k + 2):
            chi = [fusion.character(k, n, m) for m in ring.labels]
            for a, b in itertools.product(ring.labels, repeat=2):
                total = sum(ring.N(a, b, c) * chi[c] for c in ring.labels)
                worst = max(worst, abs(total - chi[a] * chi[b]))
    _check(worst < 1e-10, f"diagonalization residual {worst}")
    return "characters diagonalize the structure constants up to level 6"


def _selftest_graph_moves(quick):
    top = 2 if quick else 3
    for g in range(2, top + 1):
        comps = graphs.move_graph_components(g)
        _check(len(comps) == 1, f"genus {g} move graph has {len(comps)} components")
    return f"elementary moves connect all classes through genus {top}"


def _selftest_ribbon_faces(quick):
    for name, make, ribbon in (
        ("theta", graphs.theta_graph, graphs.planar_theta_ribbon),
        ("dumbbell", graphs.dumbbell_graph, graphs.planar_dumbbell_ribbon),
    ):
        faces, h = graphs.trace_faces(make(), ribbon())
        _check(h == 0, f"planar {name} ribbon traces to genus {h}")
        _check(len(faces) == 3, f"planar {name} ribbon has {len(faces)} faces")
    return "planar ribbons close up at genus 0"


def _selftest_eulerian_parity(quick):
    top = 3 if quick else 4
    for g in range(2, top + 1):
        for rep in graphs.enumerate_trivalent(g):
            e = graphs.eulerian_invariant(rep)
            _check(e % 2 == (g - 1) % 2, f"genus {g} graph with eulerian invariant {e}")
    return f"invariant parity matches genus through {top}"


def _selftest_checks(quick, threads):
    return [
        ("verlinde-routes", lambda: _selftest_verlinde_routes(quick)),
        ("graph-independence", lambda: _selftest_graph_independence(quick)),
        ("g2-closed-form", lambda: _selftest_g2_closed_form(quick)),
        ("u1-counts", lambda: _selftest_u1_counts(quick)),
        ("theta-value", lambda: _selftest_theta_value(quick)),
        ("theta-quasiperiodicity", lambda: _selftest_theta_quasiperiodicity(quick)),
        ("cst-pipeline", lambda: _selftest_cst_pipeline(quick)),
        ("gauge-invariance", lambda: _selftest_gauge_invariance(quick)),
        ("modular-residuals", lambda: _selftest_modular_residuals(quick, threads)),
        ("heegaard-words", lambda: _selftest_heegaard_words(quick)),
        ("newstead-exact", lambda: _selftest_newstead_exact(quick)),
        ("fusion-associativity", lambda: _selftest_fusion_associativity(quick)),
        ("fusion-diagonalization", lambda: _selftest_fusion_diagonalization(quick)),
        ("graph-moves", lambda: _selftest_graph_moves(quick)),
        ("ribbon-faces", lambda: _selftest_ribbon_faces(quick)),
        ("eulerian-parity", lambda: _selftest_eulerian_parity(quick)),
    ]


def _cmd_selftest(cfg, args):
    checks = _selftest_checks(args.quick, cfg.threads)
    failures = 0
    for name, fn in checks:
        try:
            detail = fn()
        except (AssertionError, InvariantViolation) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"ok   {name}: {detail}")
    print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise InvariantViolation(f"{failures} selftest checks failed")
    return 0


# -- parser assembly -------------------------------------------------------------


def _add_level(p, required=True):
    p.add_argument("--level", type=int, required=required, help="level k")


def _add_graph(p):
    p.add_argument(
        "--graph",
        required=True,
        help="graph source: inline JSON, a JSON file, or theta/dumbbell/chain-G/multitheta-G",
    )


def _add_format(p, choices, default):
    p.add_argument("--format", choices=choices, default=default, dest="fmt")


def _build_parser():
    parser = _Parser(
        prog="verlinde",
        description="Trivalent-graph spin networks, Verlinde numbers, theta "
        "functions and level-k modular data, with cross-checked routes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("graph", help="inspect, enumerate and serialize graphs")
    gsub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = gsub.add_parser("show", help="print the graph JSON")
    _add_graph(q)
    q.add_argument("--canonical", action="store_true", help="relabel to canonical form")
    q.set_defaults(handler=_cmd_graph_show)
    q = gsub.add_parser("info", help="vertices, edges, genus and invariants")
    _add_graph(q)
    q.set_defaults(handler=_cmd_graph_info)
    q = gsub.add_parser("enumerate", help="stream all genus-g isomorphism classes")
    q.add_argument("--genus", type=int, required=True)
    q.set_defaults(handler=_cmd_graph_enumerate)
    q = gsub.add_parser("faces", help="trace ribbon faces and the surface genus")
    _add_graph(q)
    q.set_defaults(handler=_cmd_graph_faces)

    p = sub.add_parser("weights", help="admissible level-k weight enumeration")
    wsub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = wsub.add_parser("list", help="all weights on one graph as JSON")
    _add_graph(q)
    _add_level(q)
    q.set_defaults(handler=_cmd_weights_list)
    q = wsub.add_parser("count", help="weight counts across all genus-g graphs")
    q.add_argument("--genus", type=int, required=True)
    _add_level(q)
    _add_format(q, ("json", "csv"), "json")
    q.set_defaults(handler=_cmd_weights_count)
    q = wsub.add_parser("u1", help="mod-k flow count on one graph")
    _add_graph(q)
    _add_level(q)
    q.set_defaults(handler=_cmd_weights_u1)

    p = sub.add_parser("verlinde", help="Verlinde numbers by independent routes")
    p.add_argument("--genus", type=int, required=True)
    _add_level(p)
    p.add_argument("--via", default="all", choices=("weights", "characters", "closed", "all"))
    p.set_defaults(handler=_cmd_verlinde)

    p = sub.add_parser("fusion", help="fusion ring tables and ideal reduction")
    fsub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = fsub.add_parser("table", help="multiplication table")
    _add_level(q)
    _add_format(q, ("csv", "json"), "csv")
    q.set_defaults(handler=_cmd_fusion_table)
    q = fsub.add_parser("check", help="reduce all products modulo the level ideal")
    _add_level(q)
    q.set_defaults(handler=_cmd_fusion_check)

    p = sub.add_parser("newstead", help="exact intersection values")
    p.add_argument("--alpha", type=int, help="alpha exponent (multiple of 3)")
    p.add_argument("--omega", type=int, help="omega exponent")
    p.add_argument("--table", type=int, help="print all monomials of degree 3g-3")
    p.set_defaults(handler=_cmd_newstead)

    p = sub.add_parser("theta", help="theta functions with characteristics")
    tsub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = tsub.add_parser("eval", help="evaluate one theta series")
    _add_level(q)
    q.add_argument("--char", required=True, help="characteristic residues, e.g. '0' or '1,0'")
    q.add_argument("--omega", required=True, help="period matrix: literal like 'i', JSON, or a file")
    q.add_argument("--z", required=True, help="argument vector, e.g. '0.1+0.2i,0.3'")
    q.add_argument("--g", type=int, help="genus cross-check")
    q.add_argument("--tol", type=float, default=1e-12, help="series truncation tolerance")
    q.set_defaults(handler=_cmd_theta_eval)

    p = sub.add_parser("cst", help="coherent state transform of coset distributions")
    csub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = csub.add_parser("eval", help="evaluate the transformed delta series")
    _add_level(q)
    q.add_argument("--char", required=True)
    q.add_argument("--omega", required=True)
    q.add_argument("--z", required=True)
    q.add_argument("--time", type=float, help="transform time (default 1/level)")
    q.set_defaults(handler=_cmd_cst_eval)
    q = csub.add_parser("check", help="compare the transform against the theta series")
    _add_level(q)
    q.add_argument("--omega", required=True)
    q.add_argument("--points", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(handler=_cmd_cst_check)

    p = sub.add_parser("gauge", help="gauge invariance of spin network functions")
    asub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = asub.add_parser("check", help="evaluate networks along a random gauge orbit")
    _add_graph(q)
    q.add_argument("--cap", type=int, default=4, help="largest twice-spin")
    q.add_argument("--samples", type=int, default=20, help="random gauge transforms")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(handler=_cmd_gauge_check)

    p = sub.add_parser("modular", help="level-k modular data consistency report")
    msub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = msub.add_parser("check", help="residuals of every implemented relation")
    _add_level(q)
    q.add_argument("--threads", type=int)
    q.set_defaults(handler=_cmd_modular_check)

    p = sub.add_parser("invariant", help="genus-1 Heegaard word invariants")
    p.add_argument("--word", required=True, help="letters S, T, T-1 separated by spaces")
    _add_level(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("selftest", help="run the built-in cross-check battery")
    p.add_argument("--quick", action="store_true", help="small levels and few samples")
    p.add_argument("--threads", type=int)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv):
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    tol = getattr(args, "tol", None)
    try:
        cfg = RunConfig(
            subcommand=args.subcommand,
            graph=getattr(args, "graph", None),
            level=getattr(args, "level", None),
            genus=getattr(args, "genus", None),
            tolerance=1e-12 if tol is None else tol,
            seed=getattr(args, "seed", 0),
            fmt=getattr(args, "fmt", "json"),
            threads=_thread_count(args),
        )
        return args.handler(cfg, args)
    except InvariantViolation as exc:
        witness = "" if exc.witness is None else f"; witness {exc.witness!r}"
        print(f"invariant violation: {exc}{witness}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head -1`); point the descriptor
        # at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
