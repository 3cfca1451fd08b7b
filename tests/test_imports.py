"""The library is stdlib-only: every module that `src/teamseq/*.py`
imports belongs to the standard library or to the package itself."""

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
