"""The package surface carries no dead weight: every import in
src/ribbonops is used in its module, and every private top-level function
there has a caller in src/ribbonops other than itself.

Read with ast alone, so a leftover wrapper or a stale import fails here
before anything runs it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ribbonops"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(nodes):
    """Every name the nodes read: bare names, attributes and imported names."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found.update(alias.name for alias in sub.names)
    return found


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_package_is_read():
    assert {"cli", "partitions", "positive", "verify"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert unused == [], f"{module} imports {unused} and never uses them"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_function_has_a_caller(module):
    uncalled = []
    for node in TREES[module].body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            elsewhere = [n for m, tree in TREES.items() for n in tree.body if n is not node]
            if node.name not in _names(elsewhere):
                uncalled.append(node.name)
    assert uncalled == [], f"{module} defines {uncalled} and nothing in the package calls them"


def _set_sites(tree):
    """(function, line) of every assignment to a .coeffs or .terms attribute or item."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else child.targets if isinstance(child, ast.Delete) else [])
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and target.attr in ("coeffs", "terms"):
                    sites.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return sites


@pytest.mark.parametrize("module", sorted(TREES))
def test_only_the_constructors_set_coefficients(module):
    # QPoly and FockVec hold no zero coefficient: __init__ filters them and
    # _raw wraps a dict that has none, so no other code may set or edit one
    stray = [site for site in _set_sites(TREES[module]) if site[0] not in ("__init__", "_raw")]
    assert stray == [], f"{module} sets .coeffs or .terms outside the constructors at {stray}"


def test_cli_main_reads_only_n_and_func():
    # every verb checks its own options in its handler, so that each usage
    # error reaches the one `except ValueError` in main
    main = next(node for node in TREES["cli"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    read = {node.attr for node in ast.walk(main)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    read |= {node.args[1].value for node in ast.walk(main)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
             and isinstance(node.args[0], ast.Name) and node.args[0].id == "args"}
    assert read <= {"n", "func"}, f"cli.main reads args.{sorted(read - {'n', 'func'})}"


def test_operator_route_names_nothing_of_the_expansion_route():
    # static twin of the runtime check that the operator route leaves the
    # chain table empty: neither it nor a qlr function it calls, however
    # deep, names the tableau chains or the ribbon function
    funcs = {node.name: node for node in TREES["qlr"].body if isinstance(node, ast.FunctionDef)}
    todo, seen = ["qlr_table_via_operators"], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_names([funcs[name]]) & set(funcs))
    named = _names(funcs[name] for name in seen)
    assert len(seen) > 1
    assert not named & {"_chains_below", "ribbon_function"}, sorted(seen)


def test_strips_and_generators_read_the_move_table():
    # the strips, B_k and the diagonal operators take every move of a shape
    # from partitions.ribbon_moves, not one single move or slot at a time
    funcs = {node.name: node for tree in TREES.values() for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    for name in ("ribbon_strips", "_B_moves", "_diag_moves"):
        named = _names([funcs[name]])
        assert "ribbon_moves" in named or "ribbon_strips" in named, name
        assert not named & {"add_ribbon", "remove_ribbon", "ribbon_slots"}, name
    # _B_moves grows both runs of each hook word over the move table itself: a
    # ribbon_strips call per partial word builds a heads tuple it throws away
    named = _names([funcs["_B_moves"]])
    assert "ribbon_moves" in named and "ribbon_strips" not in named


def _applied_to(node):
    """The vector argument of an apply_*(..., vector) call, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", "").startswith("apply_") and node.args:
        return node.args[-1]
    return None


def test_checkers_compose_through_their_images():
    # each image of the basis vector v is computed once per shape and then
    # read by every rule, so no apply_* call takes apply_*(..., v) as its vector
    nested = [node.lineno for node in ast.walk(TREES["verify"])
              if getattr(_applied_to(_applied_to(node)), "id", None) == "v"]
    assert nested == [], f"verify applies an operator to apply_*(..., v) at lines {nested}"
