"""Static checks over the package source: every import is used and every
private function, class or method is referenced somewhere in the package,
so code that a change leaves behind shows up as a failure."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "indicated"


def _package_sources():
    return {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(sources):
    """file:line name for each imported name its module never uses, unless
    the import line carries `noqa: F401` (a re-export)."""
    out = []
    for fname, text in sources.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        used = _referenced(tree) | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    out.append(f"{fname}:{node.lineno} {bound}")
    return out


def unreferenced_privates(sources):
    """file:line name for each module-level private function or class, and
    each private method of a module-level class, that no module names."""
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    used = set().union(*map(_referenced, trees.values()))
    out = []
    for fname, tree in trees.items():
        defs = list(tree.body)
        defs += [m for node in tree.body if isinstance(node, ast.ClassDef)
                 for m in node.body]
        for node in defs:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__") \
                    and node.name not in used:
                out.append(f"{fname}:{node.lineno} {node.name}")
    return out


def test_package_has_no_unused_imports():
    assert unused_imports(_package_sources()) == []


def test_package_has_no_unreferenced_private_definitions():
    assert unreferenced_privates(_package_sources()) == []


def test_source_checks_catch_leftovers():
    leftover = (
        "import os\n"
        "from .graphs import bits, mask_of  # noqa: F401\n"
        "from .errors import BadParam\n"
        "\n"
        "class _Walker:\n"
        "    def __init__(self):\n"
        "        self._step()\n"
        "\n"
        "    def _step(self):\n"
        "        pass\n"
        "\n"
        "    def _unused(self):\n"
        "        raise BadParam\n"
        "\n"
        "def _bfs_layers(g, roots):\n"
        "    return _Walker()\n"
    )
    assert unused_imports({"m.py": leftover}) == ["m.py:1 os"]
    assert unreferenced_privates({"m.py": leftover}) == \
        ["m.py:15 _bfs_layers", "m.py:12 _unused"]
