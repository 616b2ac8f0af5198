import ast
import functools
import importlib
import re
from pathlib import Path

import synthflow

SRC = Path(synthflow.__file__).resolve().parent


def _private_imports(tree: ast.Module) -> list[str]:
    """``module.name`` for each underscore name, dunders aside, that the
    module takes from another synthflow module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "synthflow":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{module}.{name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    offenders = {
        path.name: names
        for path in modules
        if (names := _private_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


REFERENCE = re.compile(r":(?:func|data|class):`([^`]+)`")


def _resolves(module, target: str) -> bool:
    """Whether the dotted ``target`` names an attribute of ``module``, or of
    the synthflow module its first part names (``.worker.forked``,
    ``nets.rmsprop_step``)."""
    parts = target.lstrip(".").split(".")
    owners = [(module, parts)]
    if len(parts) > 1 and (SRC / f"{parts[0]}.py").is_file():
        owners.append((importlib.import_module(f"synthflow.{parts[0]}"), parts[1:]))
    for owner, path in owners:
        try:
            functools.reduce(getattr, path, owner)
        except AttributeError:
            continue
        return True
    return False


def test_every_docstring_reference_names_a_synthflow_name():
    modules = sorted(SRC.glob("*.py"))
    unresolved, seen = {}, 0
    for path in modules:
        module = importlib.import_module(
            "synthflow" if path.stem == "__init__" else f"synthflow.{path.stem}"
        )
        targets = REFERENCE.findall(path.read_text(encoding="utf-8"))
        seen += len(targets)
        if missing := [t for t in targets if not _resolves(module, t)]:
            unresolved[path.name] = missing
    assert seen > 0
    assert unresolved == {}


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's, a class's,
    or the plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_is_used_outside_the_tests():
    # code used only by its own tests goes: a public module-level name must
    # be referenced, word for word, somewhere in src/, scripts/ or perfbench/
    # beyond its own definition
    root = SRC.parents[1]
    texts = {
        path: path.read_text(encoding="utf-8")
        for part in ("src", "scripts", "perfbench")
        for path in (root / part).rglob("*.py")
    }
    checked, unused = 0, []
    for path in sorted(SRC.glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path]).body:
            public = [n for n in _defined_names(node) if not n.startswith("_")]
            rest = "".join(lines[: node.lineno - 1] + lines[node.end_lineno:])
            for name in public:
                checked += 1
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not any(word.search(rest if p == path else t) for p, t in texts.items()):
                    unused.append(f"{path.stem}.{name}")
    assert checked > 0
    assert unused == []
