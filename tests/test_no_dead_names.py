"""The package keeps no private name nobody uses and no import it does not use."""

import ast
from pathlib import Path

import dp5links

PACKAGE = Path(dp5links.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def used_names(tree: ast.AST) -> set[str]:
    """The names a module reads, as variables, attributes or imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def defined_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names a module binds at its top level, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((name.id, node.lineno) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
    return found


def test_every_private_module_level_name_is_used_in_the_package():
    used = set().union(*(used_names(tree) for tree in TREES.values()))
    dead = [f"{module}:{line} {name}" for module, tree in TREES.items()
            for name, line in defined_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in used]
    assert dead == []


def test_every_import_is_used_by_its_module():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":  # imports there re-export the package's interface
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(alias.asname or alias.name, node.lineno) for alias in node.names]
            else:
                continue
            unused.extend(f"{module}:{line} {name}" for name, line in bound if name not in used)
    assert unused == []
