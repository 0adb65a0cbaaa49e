"""Command-line front end: dispatch, output formats, exit codes."""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from verlinde import claims, fusion, graphs, modular, thetacst
from verlinde.cli import run
from verlinde.weights import InvariantViolation


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- documented examples -------------------------------------------------------


def test_verlinde_all_routes_example(capsys):
    code, out, _ = capture(capsys, ["verlinde", "--genus", "2", "--level", "2", "--via", "all"])
    assert code == 0
    assert out == '{"weights":10,"characters":10,"closed":10}\n'


def test_theta_eval_example(capsys):
    argv = ["theta", "eval", "--g", "1", "--level", "1", "--char", "0", "--omega", "i", "--z", "0"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert out == "[1.0864348112, 0.0]\n"


SELFTEST_QUICK = """\
ok   verlinde-routes: 4 spot values, 3 routes each
ok   graph-independence: genus 2-3 up to level 3; theta = dumbbell up to level 6
ok   g2-closed-form: cubic in k+2 up to level 12; leading coefficient 4/24
ok   u1-counts: 4 graphs up to level 6
ok   theta-value: theta(0, i) = 1.0864348112
ok   theta-quasiperiodicity: 4 random translations, relative residual < 1e-9
ok   cst-pipeline: transform of the delta series matches the theta series
ok   gauge-invariance: colorings up to twice-spin 2, 10 transforms
ok   modular-residuals: all relations below 1e-9 up to level 2
ok   heegaard-words: identity and S words up to level 4
ok   newstead-exact: recurrences exact through degree 12 (15 genus steps)
ok   fusion-associativity: exhaustive through level 3
ok   fusion-diagonalization: characters diagonalize the structure constants up to level 6
ok   graph-moves: elementary moves connect all classes through genus 2
ok   ribbon-faces: planar ribbons close up at genus 0
ok   eulerian-parity: invariant parity matches genus through 3
selftest: 16/16 checks passed
"""


def test_selftest_quick(capsys):
    code, out, _ = capture(capsys, ["selftest", "--quick"])
    assert code == 0
    assert out == SELFTEST_QUICK


def test_selftest_reports_failed_claim(capsys, monkeypatch):
    def broken(quick):
        raise InvariantViolation("routes disagree")

    battery = list(claims.CLAIMS)
    battery[4] = ("theta-value", broken)
    monkeypatch.setattr(claims, "CLAIMS", battery)
    code, out, err = capture(capsys, ["selftest", "--quick"])
    assert code == 2
    lines = out.splitlines()
    assert lines[4] == "FAIL theta-value: routes disagree"
    assert lines[-1] == "selftest: 15/16 checks passed"
    assert err.startswith("invariant violation: 1 selftest checks failed")


def readme_examples():
    """(command, expected lines) for each command in the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("# "):
            examples[-1][1].append(line[2:])
        elif line:
            examples.append((line, []))
    return examples


def lines_match(patterns, lines):
    """A `...` pattern line matches any run of lines; `...` inside a line any infix."""
    if not patterns:
        return not lines
    head, rest = patterns[0], patterns[1:]
    if head == "...":
        return any(lines_match(rest, lines[i:]) for i in range(len(lines) + 1))
    if not lines:
        return False
    line = lines[0]
    pre, dots, post = head.partition("...")
    if dots:
        ok = len(line) >= len(pre) + len(post) and line.startswith(pre) and line.endswith(post)
    else:
        ok = line == head
    return ok and lines_match(rest, lines[1:])


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(("command", "expected"), README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example(capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "verlinde"
    code, out, _ = capture(capsys, argv[1:])
    assert code == 0
    assert lines_match(expected, out.splitlines()), out


# -- exit codes ------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = capture(capsys, ["bogus"])
    assert code == 1
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = capture(capsys, ["verlinde", "--genus", "2", "--level", "2", "--nope"])
    assert code == 1
    assert "usage" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = capture(capsys, ["invariant", "--level", "2"])
    assert code == 1


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = capture(capsys, [])
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = capture(capsys, ["--help"])
    assert code == 0
    assert "subcommand" in out


def test_bad_level_is_usage_error(capsys):
    code, _, err = capture(capsys, ["verlinde", "--genus", "2", "--level", "0"])
    assert code == 1
    assert "error" in err


def test_invariant_violation_exits_two(capsys, monkeypatch):
    def boom(*a, **kw):
        raise InvariantViolation("routes disagree")

    monkeypatch.setattr(fusion, "verlinde", boom)
    code, _, err = capture(capsys, ["verlinde", "--genus", "2", "--level", "2"])
    assert code == 2
    assert err.startswith("invariant violation")


def test_zero_tolerance_is_usage_error(capsys):
    argv = ["theta", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", "0", "--tol", "0"]
    code, _, err = capture(capsys, argv)
    assert code == 1
    assert "tolerance" in err


def test_infinite_tolerance_is_usage_error(capsys):
    argv = ["theta", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", "0", "--tol", "inf"]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "tolerance must be finite and positive" in err


def test_unconverged_genus_three_series_stays_small():
    # a nearly flat Omega runs the series out to the radius cap; a shell too
    # large for the bounded cache is walked over its surface one capped run
    # at a time, so memory does not grow with the radius.
    # A child's ru_maxrss starts at the RSS of the process it was forked
    # from, so the command runs under a small launcher, not under pytest.
    omega = json.dumps([[[0, 0.001 if i == j else 0] for j in range(3)] for i in range(3)])
    cmd = [sys.executable, "-m", "verlinde", "theta", "eval", "--level", "1", "--char", "0,0,0",
           "--omega", omega, "--z", "0,0,0"]
    launcher = (
        "import json, resource, subprocess, sys\n"
        f"proc = subprocess.run({cmd!r}, capture_output=True, text=True)\n"
        "peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak_kb]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True, timeout=120)
    code, out, err, peak_kb = json.loads(proc.stdout)
    assert (code, out) == (1, "")
    assert err == "error: theta series not converged within lattice radius 60\n"
    assert peak_kb < 64 * 1024


def test_negative_seed_is_usage_error(capsys):
    code, _, err = capture(capsys, ["gauge", "check", "--graph", "theta", "--seed", "-1"])
    assert code == 1
    assert "seed" in err


def test_threads_flag_is_usage_error(capsys):
    code, _, err = capture(capsys, ["modular", "check", "--level", "3", "--threads", "2"])
    assert code == 1
    assert "unrecognized arguments: --threads 2" in err
    assert capture(capsys, ["selftest", "--quick", "--threads", "2"])[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cst", "check", "--level", "2", "--omega", "0.1+0.001i", "--points", "1"],
        ["cst", "eval", "--level", "2", "--char", "0", "--omega", "0.1+0.001i", "--z", "0"],
    ],
)
def test_nearly_real_omega_is_not_converged(capsys, argv):
    # the shell-decay weight grows without bound here; it must not overflow
    code, _, err = capture(capsys, argv)
    assert code == 1
    assert "damped coset series not converged" in err


@pytest.mark.parametrize("z", ["15.0304i", "16i", "30i", "100i"])
def test_theta_eval_beyond_float_range_is_usage_error(capsys, z):
    # past about 15.03i a term, or at 15.0304i only the sum, overflows a float
    argv = ["theta", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", z]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "outside the float range" in err


def test_theta_eval_near_float_range_still_prints(capsys):
    argv = ["theta", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", "15i"]
    assert capture(capsys, argv)[:2] == (0, "[1.0487773200449865e+307, 0.0]\n")


@pytest.mark.parametrize("z", ["5i", "30i", "0.2-1.5i"])
def test_cst_eval_off_its_strip_is_usage_error(capsys, z):
    # the transformed series is truncated for |Im z| <= 1 only
    argv = ["cst", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", z]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "|Im z_i| <= 1" in err


def test_cst_eval_on_its_strip(capsys):
    argv = ["cst", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", "0.5i"]
    assert capture(capsys, argv)[:2] == (0, "[2.0037348985, 0.0]\n")


# -- verlinde and fusion -----------------------------------------------------------


def test_verlinde_single_route_prints_integer(capsys):
    code, out, _ = capture(capsys, ["verlinde", "--genus", "3", "--level", "2", "--via", "characters"])
    assert code == 0
    assert out == "36\n"


def test_verlinde_large_values_exit_zero(capsys):
    code, out, _ = capture(capsys, ["verlinde", "--genus", "6", "--level", "10"])
    assert code == 0
    assert json.loads(out) == dict.fromkeys(("weights", "characters", "closed"), 11546375776)
    code, out, _ = capture(capsys, ["verlinde", "--genus", "6", "--level", "10", "--via", "closed"])
    assert code == 0
    assert out == "11546375776\n"


def test_verlinde_unresolved_route(capsys):
    # the float bounds at (8, 10) exceed 1/2: reported, never exit 2
    code, out, err = capture(capsys, ["verlinde", "--genus", "8", "--level", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == 92509204759936
    assert data["characters"] is None and data["closed"] is None
    assert set(data["unresolved"]) == {"characters", "closed"}
    assert "cannot resolve" in data["unresolved"]["characters"]
    assert err == ""
    code, out, err = capture(capsys, ["verlinde", "--genus", "8", "--level", "10", "--via", "characters"])
    assert code == 0
    assert out == "92509204759936\n"
    assert err.startswith("note: verlinde(8,10) via characters")


@pytest.mark.parametrize("via", ["closed", "characters"])
def test_verlinde_overflowing_route_is_unresolved(capsys, via):
    # at k = 3 both float routes leave the float range from genus 360 on
    code, out, err = capture(capsys, ["verlinde", "--genus", "400", "--level", "3", "--via", via])
    assert code == 0
    assert out == f"{fusion.rk(400, (), 3)}\n"
    assert err.startswith(f"note: verlinde(400,3) via {via}")
    assert "cannot resolve" in err


def test_invariant_violation_prints_witness(capsys, monkeypatch):
    monkeypatch.setattr(fusion, "rk", lambda *args: 21)
    code, out, err = capture(capsys, ["verlinde", "--genus", "2", "--level", "3", "--via", "closed"])
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation: verlinde(2,3) via closed")
    assert "witness RouteWitness(g=2, k=3, route='closed', value=" in err
    assert "exact=21, bound=" in err


def test_verlinde_genus_one_drops_weights_route(capsys):
    code, out, _ = capture(capsys, ["verlinde", "--genus", "1", "--level", "3", "--via", "all"])
    assert code == 0
    assert json.loads(out) == {"characters": 4, "closed": 4}


def test_fusion_table_csv(capsys):
    code, out, _ = capture(capsys, ["fusion", "table", "--level", "2"])
    assert code == 0
    assert out.splitlines() == [
        "a,b,channels",
        "0,0,0",
        "0,1,1",
        "0,2,2",
        "1,1,2 0",
        "1,2,1",
        "2,2,0",
    ]


def test_fusion_table_json(capsys):
    code, out, _ = capture(capsys, ["fusion", "table", "--level", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 2
    assert [1, 1, [2, 0]] in data["rows"]


def test_fusion_check(capsys):
    code, out, _ = capture(capsys, ["fusion", "check", "--level", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert data["pairs"] == 10


# -- newstead ---------------------------------------------------------------------


def test_newstead_value(capsys):
    code, out, _ = capture(capsys, ["newstead", "--alpha", "3", "--omega", "0"])
    assert code == 0
    assert out == "-8\n"


def test_newstead_kappa_zero_value(capsys):
    code, out, _ = capture(capsys, ["newstead", "--alpha", "0", "--omega", "0"])
    assert code == 0
    assert out == "-1\n"


def test_newstead_table(capsys):
    code, out, _ = capture(capsys, ["newstead", "--table", "2"])
    assert code == 0
    assert out.splitlines() == [
        "alpha,beta,gamma,normalized,unnormalized",
        "3,0,0,-8,-16",
        "1,1,0,2,4",
        "0,0,1,-1,-2",
    ]


def test_newstead_flag_combinations(capsys):
    assert capture(capsys, ["newstead"])[0] == 1
    assert capture(capsys, ["newstead", "--alpha", "3"])[0] == 1
    assert capture(capsys, ["newstead", "--table", "2", "--alpha", "3"])[0] == 1
    # off the 3Z grading
    assert capture(capsys, ["newstead", "--alpha", "2", "--omega", "0"])[0] == 1


@pytest.mark.parametrize("genus", ["0", "-5"])
def test_newstead_table_needs_positive_genus(capsys, genus):
    code, out, err = capture(capsys, ["newstead", "--table", genus])
    assert code == 1
    assert out == ""
    assert "--table" in err


def test_newstead_table_genus_one(capsys):
    code, out, _ = capture(capsys, ["newstead", "--table", "1"])
    assert code == 0
    assert out.splitlines() == ["alpha,beta,gamma,normalized,unnormalized", "0,0,0,-1,-1"]


# -- graph and weights --------------------------------------------------------------


def test_graph_show_roundtrip(capsys):
    code, out, _ = capture(capsys, ["graph", "show", "--graph", "theta", "--canonical"])
    assert code == 0
    assert graphs.is_isomorphic(graphs.graph_from_json(out), graphs.theta_graph())


def test_graph_info(capsys):
    code, out, _ = capture(capsys, ["graph", "info", "--graph", "dumbbell"])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "vertices": 2,
        "edges": 3,
        "genus": 2,
        "connected": True,
        "trivalent": True,
        "eulerian": 3,
    }


def test_graph_enumerate_streams_then_counts(capsys):
    code, out, _ = capture(capsys, ["graph", "enumerate", "--genus", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 2}
    reps = [graphs.graph_from_json(line) for line in lines[:-1]]
    assert len(reps) == 2
    assert not graphs.is_isomorphic(reps[0], reps[1])


# sha256 of stdout.  The representatives and their order are those of
# first_found_enumerate in tests/test_graphs.py and must not change.
ENUMERATION_STDOUT_SHA256 = {
    "graph enumerate --genus 2": "e2c51fdc9cb36277bd856c2df52dba48a6cc6581343dd38dd793d3c718d0b576",
    "graph enumerate --genus 3": "caf0473d293bbbcdd483c25b0cc4083b318ed6a8238aa9c38298320b358ec447",
    "graph enumerate --genus 4": "d59fa1e816faa185a4822ffc4bdb640c7d5db601474a1d53e31bf87e81ebb085",
    "graph enumerate --genus 5": "1bd60ff6e4321925dcdc910a431c8f2d23d6a43a39ddad08f5f82984f3811be8",
    "weights count --genus 4 --level 3 --format csv": (
        "7e274155d341fb1f4f404b94f2b216cbdcc60ec9beed430ec41c2a09e6b5c2d4"
    ),
}


@pytest.mark.parametrize("command", sorted(ENUMERATION_STDOUT_SHA256))
def test_enumeration_stdout_bytes_are_pinned(capsys, command):
    code, out, _ = capture(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATION_STDOUT_SHA256[command]


def test_graph_enumerate_canonicalizes_each_class_once(capsys, monkeypatch):
    # the printed canonical forms are the keys the enumeration sorted by
    calls = []
    canonical_form = graphs.canonical_form

    def counted(graph):
        calls.append(graph)
        return canonical_form(graph)

    monkeypatch.setattr(graphs, "canonical_form", counted)
    graphs._trivalent_classes.cache_clear()
    code, out, _ = capture(capsys, ["graph", "enumerate", "--genus", "4"])
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"count": 17}
    assert len(calls) == 17


def test_graph_faces_planar_theta(capsys):
    code, out, _ = capture(capsys, ["graph", "faces", "--graph", "theta"])
    assert code == 0
    assert json.loads(out) == {"faces": 3, "surface_genus": 0}


def test_graph_faces_needs_ribbon(capsys):
    code, _, err = capture(capsys, ["graph", "faces", "--graph", "chain-3"])
    assert code == 1
    assert "ribbon" in err


def test_graph_file_source(capsys, tmp_path):
    blob = graphs.graph_to_json(graphs.dumbbell_graph())
    path = tmp_path / "graph.json"
    path.write_text(blob)
    code, out, _ = capture(capsys, ["graph", "info", "--graph", str(path)])
    assert code == 0
    assert json.loads(out)["genus"] == 2


def test_graph_faces_file_source_matches_inline(capsys, tmp_path):
    # a non-planar ribbon on the theta graph: one face, genus 1
    blob = '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "ribbon": {"0": [0, 1, 2], "1": [0, 1, 2]}}'
    path = tmp_path / "ribbon.json"
    path.write_text(blob)
    inline = capture(capsys, ["graph", "faces", "--graph", blob])
    from_file = capture(capsys, ["graph", "faces", "--graph", str(path)])
    assert inline == from_file
    assert inline[:2] == (0, '{"faces":1,"surface_genus":1}\n')
    # a file that holds no graph object names no ribbon
    path.write_text("[0, 1]")
    code, out, err = capture(capsys, ["graph", "faces", "--graph", str(path)])
    assert (code, out) == (1, "")
    assert "face tracing needs a ribbon" in err


def test_graph_info_refuses_large_eulerian_search(capsys):
    # multitheta-12 has 22 vertices: 2^21 rotation systems, refused unsearched
    code, out, err = capture(capsys, ["graph", "info", "--graph", "multitheta-12"])
    assert (code, out) == (1, "")
    assert "stop at 16 vertices, got 22" in err


def test_graph_unknown_source(capsys):
    code, _, err = capture(capsys, ["graph", "info", "--graph", "heptagon"])
    assert code == 1
    assert "heptagon" in err


@pytest.mark.parametrize(
    "blob",
    [
        '{}',
        '{"vertices": 2}',
        '{"vertices": 2, "edges": 3}',
        '{"vertices": 2, "edges": [3]}',
        '{"vertices": 2, "edges": [[0, "a"]]}',
        '{"vertices": 2, "edges": [[0, 1]], "parabolic": 5}',
    ],
)
def test_graph_malformed_json_is_usage_error(capsys, blob):
    code, out, err = capture(capsys, ["graph", "info", "--graph", blob])
    assert code == 1
    assert out == ""
    assert err.startswith("error: graph JSON")


@pytest.mark.parametrize(
    "ribbon",
    [
        "",
        ', "ribbon": []',
        ', "ribbon": {"0": [0, 1, 2], "1": [0, 1, "a"]}',
        ', "ribbon": {"0": [0, 1, 2], "1": [0, 1, 7]}',
    ],
)
def test_graph_faces_malformed_ribbon_is_usage_error(capsys, ribbon):
    blob = '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]' + ribbon + "}"
    code, out, err = capture(capsys, ["graph", "faces", "--graph", blob])
    assert code == 1
    assert out == ""
    assert "ribbon" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gauge", "check", "--graph", '{"vertices": 2, "edges": [[0, 1], [0, 1]]}'],
        ["gauge", "check", "--graph", '{"vertices": 2, "edges": [[0, 1]], "parabolic": [0, 0, 1, 1]}'],
        ["weights", "list", "--graph", '{"vertices": 2, "edges": [[0, 1], [0, 1]]}', "--level", "1"],
        [
            "graph", "faces", "--graph",
            '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "ribbon": {"0": [0, 1, 2]}}',
        ],
        ["graph", "show", "--canonical", "--graph", '{"vertices": 1, "edges": [[0, 0]' + ', [0, 0]' * 5 + "]}"],
        # 998 vertices: refused before the search recurses once per vertex
        ["graph", "show", "--canonical", "--graph", "chain-500"],
    ],
    ids=["gauge-bivalent", "gauge-legs", "weights-bivalent", "faces-missing-vertex", "show-bouquet", "show-chain-500"],
)
def test_graph_outside_the_command_domain_is_usage_error(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--omega", "nan+1i"],
        ["--omega", "[[[NaN, 1.0]]]"],
        ["--z", "nan"],
        ["--z", "inf"],
        ["--z", "1+Infinityi"],
        ["--time", "inf"],
        ["--time", "nan"],
    ],
    ids=["omega-nan", "omega-json-nan", "z-nan", "z-inf", "z-inf-imag", "time-inf", "time-nan"],
)
def test_cst_eval_refuses_non_finite_input(capsys, extra):
    argv = ["cst", "eval", "--level", "2", "--char", "1", "--omega", "1i", "--z", "0.1"]
    code, out, err = capture(capsys, argv + extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    # named as not finite, not as unparsable or unconverged
    assert "finite" in err
    assert "converged" not in err


@pytest.mark.parametrize("command", ["theta", "cst"])
def test_integer_argument_prints_the_value_at_zero(capsys, command):
    # both series are 1-periodic in each Re z_i, so z = 1e15 is z = 0
    argv = [command, "eval", "--level", "2", "--char", "1", "--omega", "1i", "--z"]
    _, at_zero, _ = capture(capsys, argv + ["0"])
    assert at_zero == "[0.4157606026, 0.0]\n"
    for z in ("1e15", "1e300"):
        assert capture(capsys, argv + [z]) == (0, at_zero, "")


@pytest.mark.parametrize("char", ["2", "-1"])
def test_out_of_range_characteristic_is_one_error(capsys, char):
    # a coset distribution is its characteristic, so both commands refuse it alike
    argv = ["eval", "--level", "2", "--char", char, "--omega", "1i", "--z", "0.1"]
    theta = capture(capsys, ["theta"] + argv)
    assert theta == (1, "", "error: characteristic entries must lie in [0, level)\n")
    assert capture(capsys, ["cst"] + argv) == theta


def test_weights_list(capsys):
    code, out, _ = capture(capsys, ["weights", "list", "--graph", "theta", "--level", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 1
    assert data["denominator"] == 2
    assert len(data["weights"]) == 4


def test_weights_count_csv(capsys):
    argv = ["weights", "count", "--genus", "2", "--level", "2", "--format", "csv"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert out.splitlines() == ["graph,level,count", "0,2,10", "1,2,10"]


def test_weights_count_json(capsys):
    code, out, _ = capture(capsys, ["weights", "count", "--genus", "3", "--level", "1"])
    assert code == 0
    assert json.loads(out) == {"genus": 3, "level": 1, "counts": [8, 8, 8, 8, 8]}


def test_weights_u1_named_graph(capsys):
    code, out, _ = capture(capsys, ["weights", "u1", "--graph", "multitheta-3", "--level", "3"])
    assert code == 0
    assert json.loads(out) == {"genus": 3, "level": 3, "count": 27}


def test_weights_u1_refuses_large_family(capsys):
    # 40^5 flows would take about 66 GB; refused before any flow is listed
    argv = ["weights", "u1", "--graph", "multitheta-5", "--level", "40"]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "stop at 100000 flows, got 40^5" in err


def test_weights_u1_inline_json_graph(capsys):
    blob = '{"vertices": 1, "edges": [[0, 0]], "parabolic": []}'
    code, out, _ = capture(capsys, ["weights", "u1", "--graph", blob, "--level", "5"])
    assert code == 0
    assert json.loads(out) == {"genus": 1, "level": 5, "count": 5}


# -- theta and cst -------------------------------------------------------------------


def test_theta_eval_omega_file_matches_inline(capsys, tmp_path):
    path = tmp_path / "omega.json"
    path.write_text("[[[0.0, 1.0]]]")
    inline = capture(capsys, ["theta", "eval", "--level", "1", "--char", "0", "--omega", "i", "--z", "0"])
    from_file = capture(
        capsys, ["theta", "eval", "--level", "1", "--char", "0", "--omega", str(path), "--z", "0"]
    )
    assert inline == from_file
    assert inline[0] == 0


def test_theta_eval_genus_two(capsys):
    omega = "[[[0.1,1.0],[0.0,0.2]],[[0.0,0.2],[-0.3,1.1]]]"
    argv = ["theta", "eval", "--level", "2", "--char", "1,0", "--omega", omega, "--z", "0.1,0.2i"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert out == "[0.3357393827, 0.0440529983]\n"


def test_theta_eval_genus_mismatch(capsys):
    argv = ["theta", "eval", "--g", "2", "--level", "1", "--char", "0", "--omega", "i", "--z", "0"]
    code, _, err = capture(capsys, argv)
    assert code == 1
    assert "characteristic" in err


def test_theta_eval_bad_omega_literal(capsys):
    argv = ["theta", "eval", "--level", "1", "--char", "0", "--omega", "banana", "--z", "0"]
    code, _, err = capture(capsys, argv)
    assert code == 1
    assert "complex" in err


def test_cst_eval_matches_theta_at_unit_time_over_level(capsys):
    base = ["--level", "1", "--char", "0", "--omega", "i", "--z", "0.1"]
    theta = capture(capsys, ["theta", "eval"] + base)
    cst = capture(capsys, ["cst", "eval"] + base)
    assert theta[0] == cst[0] == 0
    assert theta[1] == cst[1] == "[1.0699237438, 0.0]\n"


def test_cst_check(capsys):
    argv = ["cst", "check", "--level", "2", "--omega", "0.3+0.9i", "--points", "4"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["characteristics"] == 2
    assert data["residual"] < 1e-10


def test_cst_check_catches_a_perturbed_transform(capsys, monkeypatch):
    exact = thetacst.evaluate_series
    monkeypatch.setattr(thetacst, "evaluate_series", lambda s, z: exact(s, z) * (1 + 1e-8))
    argv = ["cst", "check", "--level", "2", "--omega", "0.3+0.9i", "--points", "4"]
    code, _, err = capture(capsys, argv)
    assert code == 2
    assert err.startswith("invariant violation: transform disagrees")
    with pytest.raises(InvariantViolation):
        claims.cst_pipeline(True)


@pytest.mark.parametrize("time", ["0", "-1"])
def test_cst_eval_refuses_time_not_positive(capsys, time):
    argv = ["cst", "eval", "--level", "2", "--char", "1", "--omega", "i", "--z", "0.1"]
    code, out, err = capture(capsys, argv + ["--time", time])
    assert code == 1
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("level", ["0", "-2"])
@pytest.mark.parametrize(
    "action",
    [["eval", "--char", "0", "--omega", "i", "--z", "0.1"], ["check", "--omega", "i"]],
    ids=["eval", "check"],
)
def test_cst_needs_positive_level(capsys, action, level):
    code, out, err = capture(capsys, ["cst", action[0], "--level", level] + action[1:])
    assert code == 1
    assert out == ""
    assert "level must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cst_check_needs_points(capsys, points):
    argv = ["cst", "check", "--level", "2", "--omega", "0.3+0.9i", "--points", points]
    code, out, err = capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert "--points" in err


# -- gauge ---------------------------------------------------------------------------


def test_gauge_check_deterministic(capsys):
    argv = ["gauge", "check", "--graph", "theta", "--cap", "2", "--samples", "5"]
    first = capture(capsys, argv)
    second = capture(capsys, argv)
    assert first == second
    assert first[0] == 0
    assert json.loads(first[1])["residual"] < 1e-10


@pytest.mark.parametrize(("flag", "value"), [("--samples", "0"), ("--samples", "-2"), ("--cap", "-1")])
def test_gauge_check_rejects_vacuous_counts(capsys, flag, value):
    code, out, err = capture(capsys, ["gauge", "check", "--graph", "theta", flag, value])
    assert code == 1
    assert out == ""
    assert flag in err


def test_gauge_check_refuses_too_many_colorings(capsys):
    # chain-5 has 254,990 admissible colorings at cap 4; the search stops
    # at the first one past the limit
    argv = ["gauge", "check", "--graph", "chain-5", "--cap", "4"]
    code, out, err = capture(capsys, argv)
    assert (code, out) == (1, "")
    assert "colorings stop at 2000, cap 4 gives more" in err


def test_gauge_check_seed_changes_connection_not_verdict(capsys):
    argv = ["gauge", "check", "--graph", "dumbbell", "--cap", "2", "--samples", "3"]
    a = capture(capsys, argv + ["--seed", "1"])
    b = capture(capsys, argv + ["--seed", "2"])
    assert a[0] == b[0] == 0


# -- modular and invariant -------------------------------------------------------------


def test_modular_check_report(capsys):
    code, out, _ = capture(capsys, ["modular", "check", "--level", "2"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "orthogonality",
        "symmetry",
        "pentagon",
        "yang_baxter",
        "braid_inverse",
        "braid_phase_relation",
        "s_unitarity",
        "modular_relation",
        "t_unimodularity",
        "switching",
    }
    assert all(v is not None and v < 1e-9 for v in data.values())


def test_modular_check_skips_unsolved_ranges(capsys):
    code, out, _ = capture(capsys, ["modular", "check", "--level", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["braid_phase_relation"] is None
    assert data["switching"] is None
    assert data["pentagon"] < 1e-9


def test_modular_check_refuses_levels_above_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(modular, "_level_table", built.append)
    code, out, err = capture(capsys, ["modular", "check", "--level", "15"])
    assert (code, out, built) == (1, "", [])
    assert "level 14" in err
    with pytest.raises(ValueError, match="level 14"):
        modular.residual_report(15)
    assert built == []


def test_invariant_word(capsys):
    code, out, _ = capture(capsys, ["invariant", "--word", "S T T S", "--level", "2"])
    assert code == 0
    data = json.loads(out)
    expect = modular.heegaard_invariant("S T T S", 2)
    assert data["value"] == pytest.approx([expect.real, expect.imag], abs=1e-10)
    mag, arg = modular.phase_class(expect, 2)
    assert data["phase_class"] == pytest.approx([mag, arg], abs=1e-10)


def test_invariant_vanishing_word_phase(capsys):
    # a vanishing invariant must not report the phase of its numerical noise
    code, out, _ = capture(capsys, ["invariant", "--word", "S T T S", "--level", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert data["phase_class"] == [0.0, 0.0]


def test_invariant_identity_word(capsys):
    code, out, _ = capture(capsys, ["invariant", "--word", "", "--level", "3"])
    assert code == 0
    assert out == '{"value":[1.0,0.0],"phase_class":[1.0,0.0]}\n'


def test_invariant_bad_letter(capsys):
    code, _, err = capture(capsys, ["invariant", "--word", "S X", "--level", "2"])
    assert code == 1
    assert "error" in err


# -- installed entry point -------------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "verlinde", "verlinde", "--genus", "2", "--level", "1", "--via", "all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"weights":4,"characters":4,"closed":4}\n'


def test_reused_parser_matches_fresh_processes(capsys):
    # one interpreter runs a usage error and two commands on the one parser
    argvs = (
        ["modular", "check"],
        ["modular", "check", "--level", "2"],
        ["graph", "info", "--graph", "theta"],
    )
    for argv in argvs:
        code, out, _ = capture(capsys, argv)
        proc = subprocess.run([sys.executable, "-m", "verlinde", *argv], capture_output=True, text=True)
        assert (code, out) == (proc.returncode, proc.stdout)
    assert [run(argv) for argv in argvs] == [1, 0, 0]


def test_closed_stdout_exits_one_without_traceback():
    # the reader goes away before any output, as with `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "verlinde", "graph", "enumerate", "--genus", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_cli_import_leaves_scipy_unloaded():
    # only the non-diagonal nonabelian flow needs scipy, and it imports it there
    code = "import sys, verlinde.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
