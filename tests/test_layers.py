"""The package's import layering, read from the source with ``ast``.

Each module imports only from modules of a lower layer, and takes each
private name from the module that defines it, not through a re-import.
"""

import ast
from pathlib import Path

import circshell

SRC = Path(circshell.__file__).parent

# lowest first; a module may import only from a lower layer
LAYERS = (("graphs",), ("kernels",), ("complexes",), ("checkers", "homology"),
          ("suites",), ("cli",))
RANK = {m: r for r, layer in enumerate(LAYERS) for m in layer}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _package_imports(tree):
    """``(module, name)`` for each ``from .module import name``, and
    ``(module, None)`` for each ``from . import module``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, ast.dump(node)
            if node.module:
                out += [(node.module, a.name) for a in node.names]
            else:
                out += [(a.name, None) for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            assert not any(n.split(".")[0] == "circshell" for n in names), ast.dump(node)
    return out


def _defined(tree):
    """The names a module binds at top level other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_modules_import_only_from_lower_layers():
    for module, rank in RANK.items():
        for dep, _ in _package_imports(_tree(module)):
            assert RANK[dep] < rank, f"{module} imports {dep}"
    assert _package_imports(_tree("graphs")) == []


def test_private_names_come_from_the_module_that_defines_them():
    defined = {m: _defined(_tree(m)) for m in RANK}
    for module in RANK:
        tree = _tree(module)
        imports = _package_imports(tree)
        for dep, name in imports:
            if name is not None and name.startswith("_"):
                assert name in defined[dep], f"{module} takes {name} from {dep}"
        # ``from . import dep`` then ``dep._name``
        whole = {dep for dep, name in imports if name is None}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in whole):
                assert node.attr in defined[node.value.id], (
                    f"{module} reads {node.value.id}.{node.attr}")
