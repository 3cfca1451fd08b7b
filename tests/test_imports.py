"""The library is stdlib-only: every module that `src/teamseq/*.py`
imports belongs to the standard library or to the package itself.  Every
name a library module imports at module level is used there, and every
private function, class, method or module-level constant is used in the
package.  The set of library functions that call themselves is pinned."""

import ast
import sys
from collections import Counter
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


def referenced_names(tree) -> Counter:
    """How often each name is read in `tree`, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def private_definitions(tree):
    """The module-level private functions, classes and constants of `tree`
    and the private methods of its classes, as (name, defining node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id, node


def test_library_references_every_private_definition():
    # a module-level private function, class or constant, or a private
    # method, must be used somewhere in the package outside its own body
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((referenced_names(t) for t in trees.values()), Counter())
    private = [(module, name, node) for module, tree in trees.items()
               for name, node in private_definitions(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 50
    unused = [f"{module}:{node.lineno} defines {name} unused"
              for module, name, node in private
              if everywhere[name] <= referenced_names(node)[name]]
    assert not unused, unused


def _calls_reached(tree, roots):
    """The module-level functions and constants of `tree` that `roots`
    reach through the names they read, the roots included; a constant
    such as a dispatch table leads on to the functions it names."""
    defs = {name: node for name, node in private_definitions(tree)
            if isinstance(node, ast.Assign)}
    defs.update((node.name, node) for node in tree.body
                if isinstance(node, ast.FunctionDef))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for n in referenced_names(defs[name]) if n in defs)
    return reached, defs


def test_checker_is_independent_of_the_builders():
    # the checker is the trust base: it re-derives each rule's premises
    # itself rather than through the code that builds derivations
    tree = ast.parse((PACKAGE / "calculus.py").read_text(encoding="utf-8"))
    reached, defs = _calls_reached(tree, ("check_inference",
                                          "check_derivation"))
    builders = {"infer", "_infer", "premises_of", "actives", "replay_rgd",
                "rebuild"}
    used = {name for fn in reached for name in referenced_names(defs[fn])
            if name in builders or name.startswith("make_")}
    assert not used, used
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"prover", "resolutions", "transforms",
                           "teamseq.prover", "teamseq.resolutions",
                           "teamseq.transforms"}, imported


def called_names(fn, method: bool) -> set:
    """The names `fn` calls: plain names, or for a method, `self.<name>`."""
    out = set()
    for node in ast.walk(fn):
        f = node.func if isinstance(node, ast.Call) else None
        if method and isinstance(f, ast.Attribute) \
                and isinstance(f.value, ast.Name) and f.value.id == "self":
            out.add(f.attr)
        elif not method and isinstance(f, ast.Name):
            out.add(f.id)
    return out


def self_calls(tree, module: str):
    """The functions of `tree` that call themselves, nested functions and
    methods included, as `module.qualified_name`."""
    out = set()

    def visit(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                if child.name in called_names(child, in_class):
                    out.add(f"{module}.{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


# Every library function that calls itself.  Each recursion takes stack
# frames per level of its input, so its public entry points are behind
# `errors.nesting_limited`.  A change that adds or removes one updates
# this set on purpose.
RECURSIVE = {
    "interpolation._interp", "interpolation._interpolant",
    "resolutions._TruthMasks.of", "resolutions._gen",
    "resolutions.is_resolution", "resolutions.partial_resolutions.part",
    "semantics._Space.sat_all", "semantics._Space.sat_points",
    "semantics._Space.sat_set",
    "semantics.eval_classical",
    "syntax._Parser.formula", "syntax._formula_from_json",
}


def test_recursive_functions_are_pinned():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text(encoding="utf-8")),
                            path.stem)
    assert found == RECURSIVE, (sorted(found - RECURSIVE),
                                sorted(RECURSIVE - found))


VARIANT_TAGS = {"LC", "RC", "RAndI", "LOrI"}


def top_level_name(node) -> str:
    """The name a module-level statement defines, or its line."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return f"line {node.lineno}"


def test_variant_rules_are_decided_in_one_place():
    # calculus defines, checks and builds the variant rules; elsewhere only
    # cut elimination names them, and it turns them into G3 rules
    named = {f"{path.stem}.{top_level_name(top)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             if any(isinstance(node, ast.Constant)
                    and node.value in VARIANT_TAGS for node in ast.walk(top))}
    outside = {name for name in named if not name.startswith("calculus.")}
    assert outside == {"transforms._VARIANT", "transforms._elim"}, outside
    assert any(name.startswith("calculus.") for name in named)


def own_calls(fn) -> set:
    """The plain names `fn` calls in its own body, nested definitions
    left out."""
    out, todo = set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_multisets_are_sorted_in_one_place():
    # sides stay canonical as they are built, so the forward step sorts
    # nothing, and `mset` is the one sort of the syntax and the calculus
    sorting = set()
    for module in ("syntax", "calculus"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        sorting |= {f"{module}.{fn.name}" for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and "sorted" in own_calls(fn)}
        if module == "calculus":
            infer, = (fn for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_infer")
            assert not own_calls(infer) & {"Sequent", "mset", "sorted"}
    assert sorting == {"syntax.mset"}, sorting
