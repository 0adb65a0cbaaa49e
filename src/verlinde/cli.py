"""Command-line front end: batch computations, cross-checks, reports.

One binary with subcommand dispatch.  JSON is the canonical machine format
(complex numbers as [re, im] pairs, floats rounded to ten decimals,
residual-scale numbers to ten significant digits); CSV is used for tables
only.  Long enumerations stream one record per line with a count at the
end.  Exit codes: 0 success, 1 usage error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import sys
from functools import lru_cache

import numpy as np

from . import claims, fusion, gauge, graphs, modular, newstead, thetacst, weights
from .su2reps import _check_int, check_level
from .weights import InvariantViolation


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
    """Finite complex literal with i or j as the imaginary unit, e.g. 1+2i."""
    t = text.strip().replace(" ", "")
    if re.search("inf|nan", t, re.IGNORECASE):
        raise ValueError(f"complex literal {text!r} is not finite")
    t = t.replace("i", "j").replace("I", "j")
    if not t:
        raise ValueError("empty complex literal")
    try:
        z = complex(_BARE_I.sub("1j", t))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


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


def _inline_or_file(source, opener):
    """source itself if it opens with opener (inline JSON), else the text of
    the file it names, else None."""
    s = source.strip()
    if s.startswith(opener):
        return s
    if os.path.isfile(s):
        with open(s) as fh:
            return fh.read()
    return None


def _parse_omega(text):
    """Period matrix from an inline literal, inline JSON, or a JSON file."""
    blob = _inline_or_file(text, "[")
    if blob is not None:
        return thetacst.PeriodMatrix(_complex_array(json.loads(blob)))
    return thetacst.PeriodMatrix([[_parse_complex(text)]])


_GENERATORS = {"theta": graphs.theta_graph, "dumbbell": graphs.dumbbell_graph}


def _load_graph(source):
    """Graph from inline JSON, a JSON file, or a generator name.

    Generator names: theta, dumbbell, chain-G, multitheta-G.
    """
    blob = _inline_or_file(source, "{")
    if blob is not None:
        return graphs.graph_from_json(blob)
    s = source.strip()
    if s in _GENERATORS:
        return _GENERATORS[s]()
    name, _, arg = s.partition("-")
    if name in ("chain", "multitheta") and arg.isdigit():
        make = graphs.chain_graph if name == "chain" else graphs.multi_theta
        return make(int(arg))
    raise ValueError(f"unknown graph source {source!r}")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_graph_show(args):
    g = _load_graph(args.graph)
    print(graphs.graph_to_json(g, canonical=args.canonical))
    return 0


def _cmd_graph_info(args):
    g = _load_graph(args.graph)
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


def _cmd_graph_enumerate(args):
    forms = graphs.enumerate_forms(args.genus)
    for form in forms:
        print(graphs.graph_to_json(graphs.graph_from_form(form)))
    _jprint({"count": len(forms)})
    return 0


_PLANAR_RIBBONS = {
    "theta": graphs.planar_theta_ribbon,
    "dumbbell": graphs.planar_dumbbell_ribbon,
}


def _cmd_graph_faces(args):
    if args.graph in _PLANAR_RIBBONS:
        g = _GENERATORS[args.graph]()
        ribbon = _PLANAR_RIBBONS[args.graph]()
    else:
        blob = _inline_or_file(args.graph, "{")
        if blob is None or not blob.lstrip().startswith("{"):
            raise ValueError("face tracing needs a ribbon: pass graph JSON or theta/dumbbell")
        g, ribbon = graphs.graph_from_json(blob, with_ribbon=True)
    faces, h = graphs.trace_faces(g, ribbon)
    _jprint({"faces": len(faces), "surface_genus": h})
    return 0


def _cmd_weights_list(args):
    g = _load_graph(args.graph)
    ws = weights.enumerate_weights(g, args.level)
    print(weights.weights_to_json(ws))
    return 0


def _cmd_weights_count(args):
    reps = graphs.enumerate_trivalent(args.genus)
    counts = [weights.count_weights(rep, args.level) for rep in reps]
    if args.fmt == "csv":
        print("graph,level,count")
        for i, n in enumerate(counts):
            print(f"{i},{args.level},{n}")
    else:
        _jprint({"genus": args.genus, "level": args.level, "counts": counts})
    return 0


def _cmd_weights_u1(args):
    g = _load_graph(args.graph)
    fam = weights.u1_networks(g, args.level)
    _jprint({"genus": graphs.genus(g), "level": args.level, "count": fam.count})
    return 0


def _cmd_verlinde(args):
    if args.via == "all":
        routes = ("weights", "characters", "closed") if args.genus >= 2 else ("characters", "closed")
    else:
        routes = (args.via,)
    values, unresolved = {}, {}
    for via in routes:
        try:
            values[via] = fusion.verlinde(args.genus, args.level, via=via)
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


def _cmd_fusion_table(args):
    ring = fusion.FusionRing(args.level)
    rows = ring.multiplication_rows()
    if args.fmt == "json":
        _jprint({"level": args.level, "rows": [[a, b, list(cs)] for a, b, cs in rows]})
    else:
        print("a,b,channels")
        for a, b, cs in rows:
            print(f"{a},{b},{' '.join(map(str, cs))}")
    return 0


def _cmd_fusion_check(args):
    rep = fusion.ideal_check(args.level)
    _jprint({"level": rep.level, "pairs": rep.pairs, "all_match": rep.all_match})
    if not rep.all_match:
        raise InvariantViolation(f"ideal reduction mismatches: {rep.mismatches}")
    return 0


def _cmd_newstead(args):
    if args.table is not None:
        if args.alpha is not None or args.omega is not None:
            raise ValueError("--table excludes --alpha/--omega")
        if args.table < 1:
            raise ValueError("--table must be a genus of at least 1")
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


def _cmd_theta_eval(args):
    ch = tuple(int(p) for p in _split(args.char))
    if args.g is not None and args.g != len(ch):
        raise ValueError("--g disagrees with the characteristic length")
    char = thetacst.ThetaCharacteristic(args.level, ch)
    om = _parse_omega(args.omega)
    z = [_parse_complex(p) for p in _split(args.z)]
    val = thetacst.theta_char(char, om, z, tol=args.tol)
    print(json.dumps(_cx(val)))
    return 0


def _cmd_cst_eval(args):
    check_level(args.level)
    ch = tuple(int(p) for p in _split(args.char))
    om = _parse_omega(args.omega)
    z = [_parse_complex(p) for p in _split(args.z)]
    if any(abs(v.imag) > 1 for v in z):
        raise ValueError("cst eval needs |Im z_i| <= 1, the strip its series is truncated for")
    t = args.time if args.time is not None else 1.0 / args.level
    series = thetacst.abelian_cst(thetacst.delta_distribution(ch, args.level), om, t)
    print(json.dumps(_cx(thetacst.evaluate_series(series, z))))
    return 0


def _cmd_cst_check(args):
    _check_int(args.points, "--points", 1)
    om = _parse_omega(args.omega)
    rng = np.random.default_rng(args.seed)
    worst = thetacst.transform_residual(om, args.level, args.points, rng)
    _jprint({"points": args.points, "characteristics": args.level**om.genus, "residual": _sci(worst)})
    if worst > args.tol:
        raise InvariantViolation(f"transform disagrees with the theta series by {worst}")
    return 0


def _cmd_gauge_check(args):
    _check_int(args.cap, "--cap")
    _check_int(args.samples, "--samples", 1)
    graph = _load_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    conn = gauge.random_connection(graph, rng)
    colorings = gauge.admissible_colorings(graph, args.cap)
    transforms = [gauge.random_transform(graph, rng) for _ in range(args.samples)]
    worst = gauge.orbit_spread(conn, colorings, transforms)
    _jprint({"colorings": len(colorings), "samples": args.samples, "residual": _sci(worst)})
    if worst > args.tol:
        raise InvariantViolation(f"gauge orbit spread {worst} exceeds tolerance")
    return 0


def _cmd_modular_check(args):
    rep = modular.residual_report(args.level)
    _jprint({key: (None if v is None else _sci(v)) for key, v in rep.items()})
    return 0


def _cmd_invariant(args):
    val = modular.heegaard_invariant(args.word, args.level)
    mag, arg = modular.phase_class(val, args.level)
    if mag < 1e-12:
        # the argument of a vanishing invariant is numerical noise
        mag, arg = 0.0, 0.0
    _jprint({"value": _cx(val), "phase_class": [_f(mag), _f(arg)]})
    return 0


# -- selftest battery ------------------------------------------------------------


def _cmd_selftest(args):
    failures = 0
    for name, check in claims.CLAIMS:
        try:
            detail = check(args.quick)
        except (AssertionError, InvariantViolation) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"ok   {name}: {detail}")
    total = len(claims.CLAIMS)
    print(f"selftest: {total - failures}/{total} checks passed")
    if failures:
        raise InvariantViolation(f"{failures} selftest checks failed")
    return 0


# -- parser assembly -------------------------------------------------------------


def _add_level(p):
    p.add_argument("--level", type=int, required=True, help="level k")


def _add_graph(p):
    p.add_argument(
        "--graph",
        required=True,
        help="graph source: inline JSON, a JSON file, or theta/dumbbell/chain-G/multitheta-G",
    )


def _add_format(p, choices, default):
    p.add_argument("--format", choices=choices, default=default, dest="fmt")


@lru_cache(maxsize=None)
def _build_parser():
    # built on first use and reused: parse_args leaves the parser unchanged
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
    q.set_defaults(handler=_cmd_modular_check)

    p = sub.add_parser("invariant", help="genus-1 Heegaard word invariants")
    p.add_argument("--word", required=True, help="letters S, T, T-1 separated by spaces")
    _add_level(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("selftest", help="run the built-in cross-check battery")
    p.add_argument("--quick", action="store_true", help="small levels and few samples")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv):
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not tol > 0:
            raise ValueError("tolerance must be positive")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be a nonnegative integer")
        return args.handler(args)
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
