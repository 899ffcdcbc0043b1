"""No module under ``src/`` imports a name it never uses.

A name is used when the module reads it, or names it in a quoted
annotation.  A package's ``__init__.py`` imports to re-export, so it is
not scanned.  The end-to-end benchmark's tracer
(``benchmarks/e2e/trace.py``) wraps some module attributes with timing
shims, so those modules keep names they do not call themselves: the
device's ``blocked_*`` runners, which it calls through ``globals()``,
and the serve codec's ``relation_to_wire``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: module path under ``src/`` -> names imported only for the tracer.
TRACED = {
    "repro/machine/device.py": {
        "blocked_difference", "blocked_divide", "blocked_intersection",
        "blocked_join", "blocked_remove_duplicates", "blocked_union",
    },
    "repro/serve/client.py": {"relation_to_wire"},
    "repro/serve/server.py": {"relation_to_wire"},
}


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(root: Path = SRC) -> list[str]:
    problems = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        where = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = _imported(tree)
        traced = TRACED.get(where, set())
        used = _used(tree) | traced
        problems += [
            f"{where}:{line}: {name} is imported and never used"
            for name, line in sorted(imported.items())
            if name not in used
        ] + [
            f"{where}: {name} is allowed for the tracer but not imported"
            for name in sorted(traced - set(imported))
        ]
    return problems


def test_src_imports_no_unused_name():
    assert unused_imports() == []


def test_the_scan_refuses_an_unused_import(tmp_path):
    module = tmp_path / "repro" / "mod.py"
    module.parent.mkdir()
    module.write_text(
        "from typing import Iterator, Optional\n"
        "import os\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    os.getcwd()\n"
    )
    (module.parent / "__init__.py").write_text("from os import path\n")
    assert unused_imports(tmp_path) == [
        "repro/mod.py:1: Iterator is imported and never used",
    ]
