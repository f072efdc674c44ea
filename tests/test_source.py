"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiwlab"


def _unused_imports(path):
    """Names a module imports and never reads; an import line marked
    `# noqa: F401` re-exports its names on purpose."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1] or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []


def test_every_private_function_has_a_caller():
    """A private module-level function that no code in the library names is
    dead: deleting its callers left it behind."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    orphans = [f"{module}: {node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__") and node.name not in named]
    assert orphans == []


def _names(tree):
    """Every name a module reads, binds, imports or defines."""
    for node in ast.walk(tree):
        for attr in ("id", "attr", "name"):
            value = getattr(node, attr, None)
            if isinstance(value, str):
                yield value


def test_only_net_holds_the_training_step_policy():
    """The Adam update and the divergence bound live in net.train_step, which
    both trainers call; a module that names either again has a second copy
    of the step policy."""
    held = {"adam_step", "DIVERGENCE_LOSS"}
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py")) if path.name != "net.py"
             for name in _names(ast.parse(path.read_text())) if name in held]
    assert found == []


def test_only_objective_spec_builds_objective_specs_in_cli():
    """Every cli run's objective is the configured section with the run's
    fields replaced, built in _objective_spec; a second ObjectiveSpec call
    is a second path that can drift from it, for one by not reading
    objective.stream."""
    tree = ast.parse((SRC / "cli.py").read_text())
    builders = [getattr(top, "name", "<module level>") for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and "ObjectiveSpec" in set(_names(node.func))]
    assert builders == ["_objective_spec"]


def _exact_type_checks(tree):
    """Line of each `type(...) is` or `type(...) is not` comparison."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot))
                                                 for op in node.ops):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                        and side.func.id == "type"):
                    yield node.lineno


def test_only_ranges_compares_exact_types():
    """The exact-type rule (a bool is not an int, 8.0 is not an int) lives in
    ranges.check_value, which checks config leaves, checkpoint headers and
    Mlp's arguments; a module that compares type(...) again has a second
    copy of it."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "ranges.py"
             for line in _exact_type_checks(ast.parse(path.read_text()))]
    assert found == []
    assert list(_exact_type_checks(ast.parse((SRC / "ranges.py").read_text())))


def _role_reads(tree):
    """Line of each read of a "role" key: x["role"] or x.get("role", ...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value == "role":
            yield node.lineno


def test_only_net_reads_a_checkpoints_role():
    """net.load_net checks the role a reader names, and the output width that
    role needs; a module that reads the role field again has a second copy
    of that check."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "net.py"
             for line in _role_reads(ast.parse(path.read_text()))]
    assert found == []
    assert list(_role_reads(ast.parse((SRC / "net.py").read_text())))


def _batch_shape_raises(tree):
    """Line of each raise whose message names an (n, ...) batch shape."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                   and "(n, " in part.value for part in ast.walk(node.exc)):
                yield node.lineno


def test_only_ranges_checks_a_point_batch():
    """ranges.check_batch is the one check that points are a finite (n, d)
    batch; a module that words an (n, ...) shape error again has a second
    copy of it, which can disagree on nan and inf."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "ranges.py"
             for line in _batch_shape_raises(ast.parse(path.read_text()))]
    assert found == []
    assert list(_batch_shape_raises(ast.parse((SRC / "ranges.py").read_text())))


def _time_range_raisers(tree):
    """Qualified name of each function holding a raise whose message is a
    time's range error (outside [0, T], or below t_eps)."""
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.ClassDef, ast.Module)):
            continue
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and node.exc is not None and any(
                        isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and ("time must lie in" in part.value
                             or "singular below t_eps" in part.value)
                        for part in ast.walk(node.exc)):
                    prefix = "" if isinstance(scope, ast.Module) else f"{scope.name}."
                    yield f"{prefix}{fn.name}"


def test_only_check_times_checks_a_time():
    """VpSchedule.check_times is the one check of a time against the
    schedule; a function that words the range error again has a second copy
    of it, which can disagree on nan or on the horizon."""
    found = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             for name in _time_range_raisers(ast.parse(path.read_text()))}
    assert found == {"sde.py:VpSchedule.check_times"}
