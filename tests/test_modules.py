import ast
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
