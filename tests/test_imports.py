"""Every name a module-level import binds in `src/drax`, `tools` and
`tests` is used in its file.

There is no linter among the test dependencies, so this is the one check
for imports a deletion leaves behind. `src/drax/__init__.py` is skipped: its
imports are re-exports. An import line marked `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "drax"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    [*(ROOT / "tools").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _module_imports(tree: ast.Module):
    """(name, line) for each name bound by an import outside every function
    and class body, `if TYPE_CHECKING:` blocks included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _used_names(tree: ast.Module) -> set[str]:
    """Every `Name` (an attribute's root is one), plus the names inside
    quoted annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in filter(None, annotations):
        trees += [ast.parse(node.value, mode="eval") for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(
    SRC if p.parent == SRC else ROOT)))
def test_every_import_is_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _module_imports(tree)
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def test_quoted_annotations_and_type_checking_imports_count():
    """The scan sees a name used only in a quoted annotation, and an unused
    import under `if TYPE_CHECKING:`."""
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from a import Used, Unused\n"
        "def f(x: 'list[Used]') -> None:\n"
        "    return os.path.sep\n"
    )
    used = _used_names(tree)
    assert sorted(name for name, _ in _module_imports(tree) if name not in used) == ["Unused"]


def test_only_data_py_holds_a_byte_codec():
    """Feature files and checkpoints share one container reader and writer in
    `data.py`: no other `src/drax` module imports `struct` or `zlib`, at any
    depth."""
    codecs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            codecs += [f"{path.name}: {name}" for name in names if name in ("struct", "zlib")]
    assert codecs == ["data.py: struct", "data.py: zlib"]
