"""The library is stdlib-only: every module that `src/teamseq/*.py`
imports belongs to the standard library or to the package itself.  And
every name a library module imports at module level is used there."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "teamseq"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = [f"{path.name}:{line} imports {name}"
               for path in sources
               for line, name in imported_modules(path)
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "teamseq"]
    assert not outside, outside


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in used]


def test_library_modules_use_every_import():
    unused = [f"{path.name}:{line} imports {name} unused"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(path)]
    assert not unused, unused
