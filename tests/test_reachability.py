"""Every def, class and method in src/verlinde/ is reached from the program.

The walk starts at cli.run and cli.main and at the module-level code of the
package modules, which importing cli runs (claims.CLAIMS among it).  From
there it follows names through the AST: a bare name resolves to a definition
or import of the module it appears in, and `module.name` resolves through an
imported package module.  A method or property counts as reached when reached
code reads `.name` on any object; matching by name alone can over-count reach
but never under-count it.  Dunder methods run implicitly and are exempt.

Tests are not entry points, so a function or method that only tests call is
reported here.  Neither are scripts/ and perfbench/: a name that only they
reach must sit on BENCH_KEEP, with the open ROADMAP item it waits on.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "verlinde"

# Test-only names that stay, each with its reason.  A name wired to an entry
# point must leave this list; the test fails until it does.
KEEP = {
    ("modular", "phase_unit"): "README API; the Gauss-sum comparison of "
    "Heegaard words needs it",
    ("modular", "same_phase_class"): "README API; the Gauss-sum comparison of "
    "Heegaard words needs it",
    ("modular", "switching_operator"): "waits for the closed-form holed S matrix",
    ("newstead", "witten_volume"): "waits for the Riemann-Roch route tying "
    "newstead to fusion",
}

_ITEM2 = "ROADMAP item 2: the Riemann-Roch route and its leading-coefficient claim"
_ITEM4 = "ROADMAP item 4: the nonabelian-theta claim"
_ITEM5 = "ROADMAP item 5: the exact cyclotomic 6j route"
_ITEM6 = "ROADMAP item 6: block-space dimensions and chain invariants against rk"
_ITEM8 = "ROADMAP item 8: give it an exact second route, or delete it with its perfbench op"

# Names that only scripts/ or perfbench/ reach, each with the open ROADMAP
# item that puts it on a claim or deletes it.  No claim checks these yet.
BENCH_KEEP = {
    **{("newstead", n): _ITEM2 for n in ("ConjectureReport", "conjecture_scan")},
    **{
        ("weights", n): _ITEM2
        for n in ("AsymptoticsReport", "bs_asymptotics")
    },
    **{
        ("thetacst", n): _ITEM4
        for n in (
            "_labels", "_lifted_generators", "_su2_generators", "nonabelian_cst",
            "nonabelian_theta", "pw_evaluate", "spin_network_blocks",
            "su2_laplacian_block",
        )
    },
    **{
        ("modular", n): _ITEM5
        for n in ("SixJTable", "SixJTable.coefficient", "_TableEntries", "q6j", "six_j_table")
    },
    **{
        ("modular", n): _ITEM6
        for n in (
            "BlockSpace", "BlockSpace.dim", "BlockSpace.index_of", "_edge_labels",
            "_edge_positions", "_end_switch", "block_space", "genus_chain_invariant",
            "genus_chain_operator",
        )
    },
    **{
        ("gauge", n): _ITEM8
        for n in (
            "PeterWeylReport", "ProbeReport", "_chunks", "_haar_batch",
            "distinguishability_probe", "peter_weyl_probe",
        )
    },
    ("graphs", "is_isomorphic"): _ITEM8,
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _scope(tree, module):
    """Map each name bound by imports or top-level defs to its target.

    A target is ("module", m) for a package module, ("def", m, name) for a
    definition in one.  Imports are collected wherever they sit.
    """
    scope = {}
    if module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = ("def", module, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module and node.module.split(".")[0] == "verlinde":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if source is None:
                    scope[bound] = ("module", alias.name)
                else:
                    scope[bound] = ("def", source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "verlinde":
                    continue
                if alias.asname and len(parts) == 2:
                    scope[alias.asname] = ("module", parts[1])
                elif not alias.asname:
                    scope["verlinde"] = ("package",)
    return scope


def _references(nodes, scope):
    """Targets of the names and attribute chains used inside nodes, and
    every attribute name read there."""
    found, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                target = scope.get(node.id)
                if target and target[0] == "def":
                    found.add(target[1:])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    target = scope.get(node.value.id)
                    if target and target[0] == "module":
                        found.add((target[1], node.attr))
                elif (
                    isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and scope.get(node.value.value.id) == ("package",)
                ):
                    found.add((node.value.attr, node.attr))
    return found, attrs


def _program():
    """Definitions with the nodes reaching each one walks, per-module scopes,
    methods by name, and the package's module-level code."""
    defs, scopes, methods, body = {}, {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = _parse(path)
        scopes[module] = _scope(tree, module)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[(module, node.name)] = [node]
            elif isinstance(node, ast.ClassDef):
                # a reached class runs its decorators, fields and dunders, and
                # a base class from outside the package may call any of its
                # methods (argparse calls error); any other method is walked
                # only once it is reached itself
                walked = [*node.decorator_list, *node.bases]
                hooks = any(
                    not (isinstance(base, ast.Name) and base.id in scopes[module])
                    for base in node.bases
                )
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name) and not hooks:
                        defs[(module, f"{node.name}.{item.name}")] = [item]
                        methods.setdefault(item.name, []).append((module, f"{node.name}.{item.name}"))
                    else:
                        walked.append(item)
                defs[(module, node.name)] = walked
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                body.append((module, node))
    return defs, scopes, methods, body


def reached(extra_roots=()):
    """Keys of the definitions reached from the program's entry points, plus
    the parsed files in extra_roots."""
    defs, scopes, methods, body = _program()
    roots = [([node], scopes[module]) for module, node in body]
    for path in extra_roots:
        tree = _parse(path)
        roots.append(([tree], _scope(tree, None)))
    todo, attrs, seen = [("cli", "run"), ("cli", "main")], set(), set()

    def visit(nodes, scope):
        found, names = _references(nodes, scope)
        todo.extend(found)
        todo.extend(key for name in names - attrs for key in methods.get(name, ()))
        attrs.update(names)

    for nodes, scope in roots:
        visit(nodes, scope)
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            visit(defs[key], scopes[key[0]])
    return seen


def _all_defs():
    return set(_program()[0])


def _bench_roots():
    return sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _names(keys):
    return ", ".join(sorted(f"{m}.{n}" for m, n in keys))


def test_every_definition_is_reached_or_kept():
    core = reached()
    bench_only = reached(_bench_roots()) - core
    missing = _all_defs() - core - set(KEEP) - set(BENCH_KEEP)
    assert not missing, "reached only from tests, or not at all: " + _names(missing)
    bench_missing = bench_only - set(BENCH_KEEP)
    assert not bench_missing, "reached only from scripts or perfbench: " + _names(bench_missing)


def test_keep_list_names_only_unreached_definitions():
    core = reached()
    every = reached(_bench_roots())
    stale = set(KEEP) & every
    assert not stale, "reached now, drop from KEEP: " + _names(stale)
    stale = set(BENCH_KEEP) - (every - core)
    assert not stale, "not reached from scripts or perfbench alone, drop from BENCH_KEEP: " + _names(stale)
    assert all(reason.strip() for reason in [*KEEP.values(), *BENCH_KEEP.values()])
