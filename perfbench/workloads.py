"""The four workloads: seeded inputs, the ops that call the program, and checks.

`WORKLOADS[name](seed)` builds one pass: a list of `Op`s in the order they
run.  The seed changes input values only; op counts and problem sizes are
the same for every seed.  An op makes one public call as a user would and
returns what the check needs; the check runs after the timed region and
compares against `oracles`, returning (ok, relative error or None when the
output is exact).
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles as O

TOL = 1e-9  # largest relative error a float output may carry
# The CLI prints floats with 10 decimals, an absolute rounding of 5e-11, so
# its printed values are compared relative to max(|ref|, PRINTED).
PRINTED = 1.0


@dataclass
class Op:
    kind: str  # the public function called, e.g. "fusion.verlinde"
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]


def exact(ok):
    return bool(ok), None


def close(value, ref, floor=0.0):
    """(ok, error) of a float output, relative to max(|ref|, floor).

    A theta series passes the sum of its term magnitudes as `floor`: its
    float evaluation is accurate to that scale, not to a cancelled sum.
    """
    err = O.rel_err(value, ref, floor)
    return err <= TOL, err


verlinde_number = functools.lru_cache(maxsize=None)(O.verlinde_number)


def _spread(groups):
    """Interleave groups of units so that each group spans the whole pass.

    A unit is a list of ops that must run in order (an object, then its
    uses).  Unit j of a group of n sits at position (j + 0.5) / n.  The
    order is fixed, not seeded, so cache reuse is the same for every seed;
    spreading each kind of op over the pass means its latencies sample the
    machine across the pass rather than in one burst.
    """
    keyed = [
        ((j + 0.5) / len(units), g, j, unit)
        for g, units in enumerate(groups)
        for j, unit in enumerate(units)
    ]
    return [op for *_, unit in sorted(keyed, key=lambda t: t[:3]) for op in unit]


def _edges(graph):
    return [(graph.vertex_of[d], graph.vertex_of[p]) for d, p in graph.edges()]


def _relabeled(graph, rng):
    """The same graph with vertices permuted, edges shuffled and flipped."""
    n = graph.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in _edges(graph)]
    rng.shuffle(edges)
    return type(graph).from_edges(n, edges)


def _tuples(graph):
    return tuple(graph.involution), tuple(graph.vertex_of)


# -- census: exact counting with cold caches ---------------------------------

# The five genus-3 classes as (involution, vertex_of), fixed so that the
# inputs do not depend on the enumeration under test.
GENUS3 = (
    ((1, 0, 3, 2, 6, 7, 4, 5, 9, 8, 11, 10), (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
    ((3, 4, 6, 0, 1, 9, 2, 10, 11, 5, 7, 8), (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
    ((1, 0, 3, 2, 6, 9, 4, 8, 7, 5, 11, 10), (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
    ((1, 0, 3, 2, 6, 9, 4, 10, 11, 5, 7, 8), (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
    ((3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8), (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)),
)
U1_LEVEL = 7


def _classes_ok(out, g):
    reps = [_tuples(x) for x in out]
    if len(reps) != O.CLASS_COUNTS[g]:
        return False
    return not any(O.isomorphic(a, b) for a, b in itertools.combinations(reps, 2))


def census(seed):
    from verlinde import fusion, graphs, newstead, weights

    rng = random.Random(seed)
    ops = []  # large single ops, spread among the grid below
    for g in (2, 3, 4):
        ops.append(Op(
            "graphs.enumerate_trivalent", f"enumerate_trivalent({g})",
            lambda g=g: graphs.enumerate_trivalent(g),
            lambda out, g=g: exact(_classes_ok(out, g)),
        ))

    bases = {
        (name, g): make(g)
        for g in (5, 6)
        for name, make in (("chain", graphs.chain_graph), ("multitheta", graphs.multi_theta))
    }
    copies = {key: (_relabeled(b, rng), _relabeled(b, rng)) for key, b in bases.items()}
    for key, base in bases.items():
        graph = copies[key][0]
        ops.append(Op(
            "graphs.canonical_form", f"canonical_form({key[0]}-{key[1]} relabeled)",
            lambda graph=graph: graphs.canonical_form(graph),
            lambda out, base=_tuples(base): exact(O.isomorphic(O.canonical_form_graph(out), base)),
        ))
    pairs = [
        (copies["chain", 5][0], copies["chain", 5][1]),
        (copies["multitheta", 5][0], copies["multitheta", 5][1]),
        (copies["chain", 5][0], copies["multitheta", 5][0]),
        (copies["chain", 6][1], copies["multitheta", 6][1]),
    ]
    for i, (a, b) in enumerate(pairs):
        ops.append(Op(
            "graphs.is_isomorphic", f"is_isomorphic(pair {i})",
            lambda a=a, b=b: graphs.is_isomorphic(a, b),
            lambda out, a=_tuples(a), b=_tuples(b): exact(out is O.isomorphic(a, b)),
        ))

    for k in range(1, 9):
        ops.append(Op(
            "weights.verlinde_count_check", f"verlinde_count_check(3,{k})",
            lambda k=k: weights.verlinde_count_check(3, k),
            lambda out, k=k: exact(out == verlinde_number(3, k)),
        ))

    for inv, vert in GENUS3:
        graph = _relabeled(graphs.TrivalentGraph(inv, vert), rng)
        ops.append(Op(
            "weights.u1_networks", f"u1_networks(genus-3 class, {U1_LEVEL})",
            lambda graph=graph: weights.u1_networks(graph, U1_LEVEL),
            lambda out, t=_tuples(graph): exact(
                out.count == U1_LEVEL**3 and O.flows_ok(*t, U1_LEVEL, out.flows, out.cycle_basis)
            ),
        ))

    ops.append(Op(
        "newstead.conjecture_scan", "conjecture_scan(30)",
        lambda: newstead.conjecture_scan(30),
        lambda out: exact(
            out.entries == 66
            and out.bound_holds
            and out.zeros == ()
            and out.kappa_zero_flagged == tuple((0, n) for n in range(11))
        ),
    ))

    # the full grid, spurious violations included: they are failed ops
    grid = [
        [
            Op(
                "fusion.verlinde", f"verlinde({g},{k},{via})",
                lambda g=g, k=k, via=via: fusion.verlinde(g, k, via),
                lambda out, g=g, k=k: exact(out == verlinde_number(g, k)),
            )
            for via in ("characters", "closed")
        ]
        for g in range(2, 7)
        for k in range(1, 13)
    ]
    return _spread([[[op] for op in ops], grid])


# -- recoupling: modular data swept over levels --------------------------------

RESIDUAL_KEYS = (
    "orthogonality", "symmetry", "pentagon", "yang_baxter", "braid_inverse",
    "braid_phase_relation", "s_unitarity", "modular_relation", "t_unimodularity", "switching",
)
SOLVED_UP_TO_3 = ("braid_phase_relation", "switching")


def _sample_6j(rng, k):
    """Outer labels and channels of one admissible fusing coefficient."""
    while True:
        j1, j2, j3, j4 = (rng.randint(0, k) for _ in range(4))
        rows = [i for i in range(k + 1) if O.admissible(k, j1, j2, i) and O.admissible(k, j3, j4, i)]
        cols = [j for j in range(k + 1) if O.admissible(k, j2, j3, j) and O.admissible(k, j4, j1, j)]
        if rows and cols:
            return j1, j2, j3, j4, rng.choice(rows), rng.choice(cols)


def _residuals_ok(out, k):
    if tuple(out) != RESIDUAL_KEYS:
        return False
    for key, v in out.items():
        if key in SOLVED_UP_TO_3 and k > 3:
            if v is not None:
                return False
        elif v is None or not 0.0 <= float(v) <= TOL:
            return False
    return True


def _max_close(pairs):
    errs = [O.rel_err(v, r) for v, r in pairs]
    worst = max(errs, default=0.0)
    return worst <= TOL, worst


def recoupling(seed):
    from verlinde import modular

    rng = random.Random(seed)
    samples, reports, tables, sums, words, chains = [], [], [], [], [], []
    for k in (10, 20, 40):
        for _ in range(40):
            labels = _sample_6j(rng, k)
            samples.append(Op(
                "modular.q6j", f"q6j({k},{','.join(map(str, labels))})",
                lambda k=k, labels=labels: modular.q6j(k, *labels),
                lambda out, k=k, labels=labels: close(out, O.q6j(k, *labels)),
            ))

    for k in range(1, 9):
        reports.append(Op(
            "modular.residual_report", f"residual_report({k})",
            lambda k=k: modular.residual_report(k),
            lambda out, k=k: exact(_residuals_ok(out, k)),
        ))

    for k in (9, 10, 12):
        keys = [_sample_6j(rng, k) for _ in range(50)]

        def call(k=k, keys=keys):
            table = modular.six_j_table(k)
            return len(table.entries), [table.coefficient(*key) for key in keys]

        def check(out, k=k, keys=keys):
            ok, err = _max_close((v, O.q6j(k, *key)) for v, key in zip(out[1], keys))
            return ok and out[0] == O.six_j_count(k), err

        tables.append(Op("modular.six_j_table", f"six_j_table({k})", call, check))

    for k in range(1, 25):
        g = rng.choice((2, 3, 4))

        def call(g=g, k=k):
            s = modular.s_torus(k)
            return math.fsum(float(s[0, a]) ** (2 - 2 * g) for a in range(k + 1))

        sums.append(Op(
            "modular.s_torus", f"s_torus verlinde sum (g={g}, k={k})", call,
            lambda out, g=g, k=k: close(out, verlinde_number(g, k)),
        ))

    for n in range(32):
        k = 1 + n % 8
        letters = [rng.choice(("S", "T", "T-1")) for _ in range(8)]
        words.append(Op(
            "modular.heegaard_invariant", f"heegaard_invariant({' '.join(letters)!r},{k})",
            lambda k=k, w=" ".join(letters): modular.heegaard_invariant(w, k),
            lambda out, k=k, letters=letters: close(out, O.torus_word(k, letters)),
        ))

    for g in (2, 3):
        n, edges = O.generator_edges(f"chain-{g}")
        loops = [2 * i for i, (u, v) in enumerate(edges) if u == v]
        others = [2 * i for i, (u, v) in enumerate(edges) if u != v]
        for k in (1, 2, 3):
            for _ in range(2):
                moves = [("S", "first"), ("S", "last")]
                moves += [(t, e) for t in ("T", "T-1") for e in loops + [rng.choice(others)]]
                word = tuple(rng.choice(moves) for _ in range(6))
                chains.append(Op(
                    "modular.genus_chain_invariant", f"genus_chain_invariant({k},{g},{word})",
                    lambda k=k, g=g, word=word: modular.genus_chain_invariant(k, g, list(word)),
                    lambda out, k=k, word=word, loops=loops: close(out, O.chain_word(k, word, *loops)),
                ))
    # six_j_table(10) sits at mid-pass, after every level-10 sample
    return _spread([[[op] for op in group] for group in (samples, reports, tables, sums, words, chains)])


# -- analytic: small-array theta, transform and spin-network routes ---------------


def _period(rng, g):
    # only the real part is seeded: the imaginary part sets how far the
    # series run, and that work must not change with the seed
    x = rng.uniform(-0.4, 0.4, (g, g))
    return (x + x.T) / 2 + 1j * (0.8 * np.eye(g) + 0.1 * np.ones((g, g)))


def _point(rng, g):
    return rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.1, 0.1, g)


def _moved(graph, mats, elements):
    """Gauge transform a -> h(src) a h(tgt)^-1 on every edge."""
    return {
        e: elements[graph.vertex_of[e]] @ a @ O.adjugate(elements[graph.vertex_of[graph.involution[e]]])
        for e, a in mats.items()
    }


def _probe_ok(report, colorings):
    ref = np.diag([math.prod(1.0 / (n + 1) for n in c.values()) for c in colorings])
    return bool(np.all(np.abs(report.gram - ref) <= 6 * report.stderr + 1e-12))


def analytic(seed):
    from verlinde import gauge, graphs, thetacst

    rng = np.random.default_rng(seed)
    thetas, transforms, nonabelian, networks, probes = [], [], [], [], []
    state = {}
    # theta series: every characteristic at seeded points
    setups = {1: (3, 16), 2: (3, 6), 3: (2, 2)}
    periods = {g: _period(rng, g) for g in setups}
    pms = {g: thetacst.PeriodMatrix(om) for g, om in periods.items()}
    for g, (k, n_points) in setups.items():
        for _ in range(n_points):
            z = _point(rng, g)
            for ch in itertools.product(range(k), repeat=g):
                char = thetacst.ThetaCharacteristic(k, ch)
                thetas.append([Op(
                    "thetacst.theta_char", f"theta_char(g={g},k={k},char={ch})",
                    lambda char=char, pm=pms[g], z=z: thetacst.theta_char(char, pm, z),
                    lambda out, k=k, ch=ch, om=periods[g], z=z: close(out, *O.theta_series(k, ch, om, z)),
                )])

    # time-1/k transform of coset distributions against the theta series
    for g, n_chars, n_points in ((1, 3, 3), (2, 3, 3), (3, 1, 2)):
        k = setups[g][0]
        chars = list(itertools.product(range(k), repeat=g))
        picks = rng.choice(len(chars), size=n_chars, replace=False)
        for ch in (chars[int(i)] for i in picks):
            key = (g, ch)
            sample_at = int(rng.integers(1 << 30))

            def call(key=key, ch=ch, k=k, pm=pms[g]):
                state[key] = thetacst.abelian_cst(thetacst.delta_distribution(ch, k), pm, 1.0 / k)
                return state[key]

            def check(out, ch=ch, k=k, om=periods[g], sample_at=sample_at):
                coeffs = out.coefficients
                if any((m - c) % k for n in coeffs for m, c in zip(n, ch)):
                    return False, None
                keys = random.Random(sample_at).sample(sorted(coeffs), 5)
                return _max_close((coeffs[n], O.cst_coefficient(n, om, 1.0 / k)) for n in keys)

            unit = [Op("thetacst.abelian_cst", f"abelian_cst(g={g},char={ch})", call, check)]
            for _ in range(n_points):
                z = _point(rng, g)
                unit.append(Op(
                    "thetacst.evaluate_series", f"evaluate_series(g={g},char={ch})",
                    lambda key=key, z=z: thetacst.evaluate_series(state[key], z),
                    lambda out, k=k, ch=ch, om=periods[g], z=z: close(out, *O.theta_series(k, ch, om, z)),
                ))
            transforms.append(unit)

    # nonabelian theta, pairing variant, on the theta graph
    theta = graphs.theta_graph()
    t_tuple = _tuples(theta)
    theta_cols = O.admissible_colorings(*t_tuple, 4)
    level = 6
    # colorings are fixed (they set the block sizes); values are seeded
    for col in theta_cols[::3][:12]:
        diag = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(0.6, 1.4, 2)
        pm = thetacst.PeriodMatrix(np.diag(diag))
        point = [O.haar_su2(rng), O.haar_su2(rng)]

        def check(out, col=col, diag=diag, point=point):
            # chords of the breadth-first tree of the theta graph are edges 2 and 4
            lam = sum(-1j * w / (2 * math.pi) * n * (n + 2) / 4 for w, n in zip(diag, (col[2], col[4])))
            mats = {0: np.eye(2), 2: point[0], 4: point[1]}
            return close(out, np.exp(-lam / (2 * level)) * O.network_value(*t_tuple, col, mats))

        nonabelian.append([Op(
            "thetacst.nonabelian_theta", f"nonabelian_theta({col})",
            lambda col=col, pm=pm, point=point: thetacst.nonabelian_theta(theta, col, level, pm, point),
            check,
        )])

    # spin networks along seeded gauge orbits
    dumbbell = graphs.dumbbell_graph()
    for graph, cap in ((theta, 4), (dumbbell, 3)):
        gt = _tuples(graph)
        for col in O.admissible_colorings(*gt, cap):
            key = ("snf", gt, tuple(sorted(col.items())))

            def call(key=key, graph=graph, col=col):
                state[key] = gauge.spin_network(graph, col)
                return state[key]

            def check(out, gt=gt, col=col):
                star = O.stars(*gt)
                refs = [O.invariant_tensor(*(col[min(d, gt[0][d])] for d in s)) for s in star]
                return exact(all(np.abs(t - r).max() <= 1e-12 for t, r in zip(out.vertex_tensors, refs)))

            unit = [Op("gauge.spin_network", f"spin_network({col})", call, check)]
            base = {e: O.haar_su2(rng) for e in graph.edge_ids()}
            ref = functools.cache(functools.partial(O.network_value, *gt, col, base))
            for _ in range(6):
                elements = [O.haar_su2(rng) for _ in range(graph.n_vertices)]
                conn = gauge.Connection(graph, _moved(graph, base, elements))
                unit.append(Op(
                    "gauge.spin_network_value", f"spin_network_value({col})",
                    lambda key=key, conn=conn: gauge.spin_network_value(state[key], conn),
                    lambda out, ref=ref: close(out, ref()),
                ))
            networks.append(unit)

    # Monte Carlo probes
    dumbbell_cols = O.admissible_colorings(*_tuples(dumbbell), 3)
    for graph, cols, n in ((theta, theta_cols, 4), (dumbbell, dumbbell_cols, 3)):
        picked = cols[:n]
        probe_seed = int(rng.integers(1 << 30))
        probes.append([Op(
            "gauge.peter_weyl_probe", f"peter_weyl_probe({len(picked)} colorings)",
            lambda graph=graph, picked=picked, s=probe_seed: gauge.peter_weyl_probe(graph, picked, 16384, s),
            lambda out, picked=picked: exact(_probe_ok(out, picked)),
        )])
    for i, j in ((1, 2), (5, 5), (6, 7), (8, 8)):
        a, b, same = theta_cols[i], theta_cols[j], i == j
        probe_seed = int(rng.integers(1 << 30))
        probes.append([Op(
            "gauge.distinguishability_probe", f"distinguishability_probe({a}, {b})",
            lambda a=a, b=b, s=probe_seed: gauge.distinguishability_probe(
                gauge.spin_network(theta, a), gauge.spin_network(theta, b), 2048, s
            ),
            lambda out, same=same: exact(
                (not out.separated and out.max_difference <= 1e-12) if same else out.separated
            ),
        )])
    return _spread([thetas, transforms, nonabelian, networks, probes])


# -- cli-requests: short commands back to back in one interpreter -----------------

README_EXACT = {
    ("verlinde", "--genus", "2", "--level", "2", "--via", "all"): '{"weights":10,"characters":10,"closed":10}\n',
    ("theta", "eval", "--g", "1", "--level", "1", "--char", "0", "--omega", "i", "--z", "0"): "[1.0864348112, 0.0]\n",
    ("invariant", "--word", "S T T S", "--level", "2"): (
        '{"value":[0.3535533906,0.1464466094],"phase_class":[0.3826834324,0.3926990817]}\n'
    ),
}
SELFTEST_FIRST = "ok   verlinde-routes: 4 spot values, 3 routes each"
SELFTEST_LAST = "selftest: 16/16 checks passed"


def _run_cli(argv):
    from verlinde import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _cx(text):
    re_, im = json.loads(text)
    return complex(re_, im)


def _theta_like(code, text, k, ch, om, z):
    if code != 0:
        return False, None
    ref, _ = O.theta_series(k, ch, om, z)
    return close(_cx(text), ref, PRINTED)


def _invariant_ok(code, text, k, letters):
    if code != 0:
        return False, None
    data = json.loads(text)
    ref = O.torus_word(k, letters)
    ok, err = close(complex(*data["value"]), ref, PRINTED)
    mag, arg = data["phase_class"]
    ref_mag, ref_arg, angle = O.phase_class(ref, k)
    ok = ok and abs(mag - ref_mag) <= TOL
    if ref_mag > 1e-6:
        gap = abs(arg - ref_arg) % angle
        ok = ok and min(gap, angle - gap) <= TOL
    return ok, err


def _modular_ok(code, text):
    if code != 0:
        return False
    data = json.loads(text)
    return tuple(data) == RESIDUAL_KEYS and all(v is not None and 0 <= v <= TOL for v in data.values())


def _graph_info_ok(code, text, source):
    if code != 0:
        return False
    n, edges = O.generator_edges(source)
    g = len(edges) - n + 1
    return json.loads(text) == {
        "vertices": n, "edges": len(edges), "genus": g, "connected": True,
        "trivalent": True, "eulerian": O.eulerian_number(n, edges),
    }


def _complex_text(z):
    return f"{z.real:.3f}{z.imag:+.3f}i"


def _omega_arg(om):
    if om.shape == (1, 1):
        return _complex_text(om[0, 0])
    return json.dumps([[[round(x.real, 3), round(x.imag, 3)] for x in row] for row in om])


def _rounded(a):
    return np.round(a.real, 3) + 1j * np.round(a.imag, 3)


def cli_requests(seed):
    import verlinde.cli  # noqa: F401  (the import is part of set-up)

    rng = np.random.default_rng(seed)
    reqs = []  # (argv, check(code, stdout) -> (ok, err))
    for argv, text in README_EXACT.items():
        reqs.append((argv, lambda code, out, text=text: exact(code == 0 and out == text)))
    reqs.append((
        ("modular", "check", "--level", "3"),
        lambda code, out: exact(_modular_ok(code, out) and out.startswith('{"orthogonality":')),
    ))
    reqs.append((
        ("selftest", "--quick"),
        lambda code, out: exact(
            code == 0 and out.splitlines()[0] == SELFTEST_FIRST and out.splitlines()[-1] == SELFTEST_LAST
        ),
    ))

    # genus, level, route, word length, table level and graph follow fixed
    # cycles, and each command's requests are spread over the pass in a
    # fixed order, so the work of a pass and its cache reuse do not depend
    # on the seed; the seed draws the numeric inputs
    for i in range(40):
        g, k, via = 2 + i // 20, 1 + i % 4, ("all", "characters", "closed", "weights")[i // 4 % 4]
        routes = ("weights", "characters", "closed") if via == "all" else (via,)
        expect = (json.dumps(dict.fromkeys(routes, verlinde_number(g, k)), separators=(",", ":"))
                  if via == "all" else str(verlinde_number(g, k))) + "\n"
        reqs.append((
            ("verlinde", "--genus", str(g), "--level", str(k), "--via", via),
            lambda code, out, expect=expect: exact(code == 0 and out == expect),
        ))

    for sub, count, levels in (("theta", 30, 4), ("cst", 20, 3)):
        for i in range(count):
            g, k = 1 + 2 * i // count, 1 + i % levels
            om = _rounded(_period(rng, g))
            z = _rounded(_point(rng, g))
            ch = tuple(int(c) for c in rng.integers(0, k, g))
            argv = (
                sub, "eval", "--level", str(k), "--char", ",".join(map(str, ch)),
                f"--omega={_omega_arg(om)}", f"--z={','.join(_complex_text(x) for x in z)}",
            )
            reqs.append((argv, lambda code, out, k=k, ch=ch, om=om, z=z: _theta_like(code, out, k, ch, om, z)))

    for i in range(30):
        k = 1 + i % 6
        letters = [str(x) for x in rng.choice(["S", "T", "T-1"], size=1 + i // 5)]
        reqs.append((
            ("invariant", "--word", " ".join(letters), "--level", str(k)),
            lambda code, out, k=k, letters=letters: _invariant_ok(code, out, k, letters),
        ))

    for k in (1, 2, 3, 1, 2, 3, 1, 2, 3, 3):
        reqs.append((("modular", "check", "--level", str(k)), lambda code, out: exact(_modular_ok(code, out))))

    for i in range(30):
        k = 1 + i % 10
        if i % 2:
            argv, expect = ("fusion", "table", "--level", str(k), "--format", "json"), O.fusion_table_json(k)
        else:
            argv, expect = ("fusion", "table", "--level", str(k)), O.fusion_table_csv(k)
        reqs.append((argv, lambda code, out, expect=expect: exact(code == 0 and out == expect)))

    sources = ["theta", "dumbbell"] + [f"{n}-{g}" for n in ("chain", "multitheta") for g in range(2, 6)]
    for i in range(35):
        source = sources[i % len(sources)]
        reqs.append((
            ("graph", "info", "--graph", source),
            lambda code, out, source=source: exact(_graph_info_ok(code, out, source)),
        ))

    commands = {}
    for req in reqs:
        commands.setdefault(req[0][0], []).append([req])
    return [
        Op(
            "cli.run", "verlinde " + " ".join(argv),
            lambda argv=argv: _run_cli(argv),
            lambda out, check=check: check(*out),
        )
        for argv, check in _spread(list(commands.values()))
    ]


WORKLOADS = {
    "census": census,
    "recoupling": recoupling,
    "analytic": analytic,
    "cli-requests": cli_requests,
}
