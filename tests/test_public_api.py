"""The names `lognet` exports stay put when modules are merged or split, the value rule, the
float conversion and the halving span each keep their one implementation, and no module keeps an
unused import."""

import ast
import inspect
import os
import types
from pathlib import Path

import lognet


def _public_names() -> list[str]:
    return sorted(
        name for name in dir(lognet)
        if not name.startswith("_") and not isinstance(getattr(lognet, name), types.ModuleType)
    )


def test_public_names_match_the_snapshot(fixture_dir):
    with open(os.path.join(fixture_dir, "public_api.txt")) as f:
        assert _public_names() == f.read().split()


def test_no_public_class_or_function_has_two_names():
    names_by_object: dict[int, list[str]] = {}
    for name in _public_names():
        obj = getattr(lognet, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            names_by_object.setdefault(id(obj), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []


def _owned_nodes():
    """(owner, node) for every AST node of every module in `src/lognet`, where the owner is
    `module.qualname` of the innermost enclosing function or class, or the module's name."""
    for path in sorted(Path(lognet.__file__).parent.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text(), str(path)))]
        while stack:
            owner, node = stack.pop()
            yield owner, node
            for child in ast.iter_child_nodes(node):
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                stack.append((f"{owner}.{child.name}" if named else owner, child))


def _converts_to_float64(node) -> bool:
    return any(isinstance(n, ast.keyword) and n.arg == "dtype"
               and ast.unparse(n.value) == "np.float64" for n in ast.walk(node))


def test_one_guarded_float64_conversion():
    # A try around a float64 conversion is `data._floats`; everywhere else calls it.
    owners = {owner for owner, node in _owned_nodes()
              if isinstance(node, ast.Try) and any(map(_converts_to_float64, node.body))}
    assert owners == {"data._floats"}


def test_one_scalar_short_path():
    # `type(x) is int` (or float) skips the type rule; only the rule itself may take that path.
    owners = {owner for owner, node in _owned_nodes()
              if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and ast.unparse(node.left.func) == "type"
              and any(isinstance(op, ast.Is) for op in node.ops)
              and any(ast.unparse(c) in ("int", "float") for c in node.comparators)}
    assert owners <= {"data._has_type"}


def test_one_halving_span():
    # A shift by a computed amount is the bit-to-AP span; `gates._span` is its one rule, which
    # layer widths and AP windows both read. A shift by a literal, as `fileio._CHUNK`, is a size.
    owners = {owner for owner, node in _owned_nodes()
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
              and not isinstance(node.right, ast.Constant)}
    assert owners == {"gates._span"}
    # The span has two readers, the layer width and the one window rule; a window written
    # anywhere else would be a second rule.
    readers = {owner for owner, node in _owned_nodes()
               if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_span"}
    assert readers == {"gates.ceil_chain", "gates._windows"}


def test_no_module_imports_a_name_it_never_uses():
    # `__init__` imports to export; every other module imports a name to use it.
    unused = []
    for path in sorted(Path(lognet.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []
