"""Every top-level def and class in src/verlinde/ is reached from an entry point.

The walk starts at cli.run and cli.main, at the module-level code of every
package module (which holds claims.CLAIMS), and at everything in scripts/
and perfbench/.  From there it follows names through the AST: a bare name
resolves to a definition or import of the module it appears in, and
`module.name` resolves through an imported package module.  Tests are not
entry points, so a function that only tests call is reported here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "verlinde"

# Test-only names that stay, each with its reason.  A name wired to an entry
# point must leave this list; the test fails until it does.
KEEP = {
    ("modular", "pentagon_check"): "the public single-relation pentagon "
    "check that the tests use; level-wide reports go through _pentagon_residual",
    ("modular", "phase_unit"): "README API; the Gauss-sum comparison of "
    "Heegaard words needs it",
    ("modular", "same_phase_class"): "README API; the Gauss-sum comparison of "
    "Heegaard words needs it",
    ("modular", "switching_operator"): "waits for the closed-form holed S matrix",
    ("newstead", "witten_volume"): "waits for the Riemann-Roch route tying "
    "newstead to fusion",
    ("weights", "is_admissible"): "the Fraction reference that tests compare "
    "enumerate_weights against",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


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
    """Targets of the names and attribute chains used inside nodes."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                target = scope.get(node.id)
                if target and target[0] == "def":
                    found.add(target[1:])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = scope.get(node.value.id)
                if target and target[0] == "module":
                    found.add((target[1], node.attr))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and scope.get(node.value.value.id) == ("package",)
            ):
                found.add((node.value.attr, node.attr))
    return found


def unreached():
    defs, scopes, roots = {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = _parse(path)
        scopes[module] = _scope(tree, module)
        body = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                body.append(node)
        roots |= _references(body, scopes[module])
    roots |= {("cli", "run"), ("cli", "main")}
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        roots |= _references([tree], _scope(tree, None))

    seen, todo = set(), [r for r in roots if r in defs]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo += [r for r in _references([defs[key]], scopes[key[0]]) if r in defs]
    return set(defs) - seen


def test_every_definition_is_reached_or_kept():
    missing = sorted(f"{m}.{n}" for m, n in unreached() - set(KEEP))
    assert not missing, "reached only from tests, or not at all: " + ", ".join(missing)


def test_keep_list_names_only_unreached_definitions():
    stale = sorted(f"{m}.{n}" for m, n in set(KEEP) - unreached())
    assert not stale, "reached now, drop from KEEP: " + ", ".join(stale)
