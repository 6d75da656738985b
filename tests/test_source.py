"""Static checks over the package source: every import is used, every
private function, class, method or module constant is referenced somewhere
in the package, every function or method reads each of its parameters, and
no parameter is private, so code that a change leaves behind shows up as a
failure."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "indicated"


def _package_sources():
    return {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _bound(node):
    """The names a function or class definition, or an assignment to plain
    names, binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def unreferenced_privates(sources):
    """file:line name for each module-level private function, class or
    constant, and each private method of a module-level class, that no
    module reads."""
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    used = set().union(*map(_referenced, trees.values()))
    out = []
    for fname, tree in trees.items():
        defs = list(tree.body)
        defs += [m for node in tree.body if isinstance(node, ast.ClassDef)
                 for m in node.body if isinstance(m, (ast.FunctionDef, ast.ClassDef))]
        for node in defs:
            out += [f"{fname}:{node.lineno} {name}" for name in _bound(node)
                    if name.startswith("_") and not name.endswith("__") and name not in used]
    return out


def _only_raises_not_implemented(body):
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]    # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _parameters(node):
    a = node.args
    return a.posonlyargs + a.args + a.kwonlyargs + \
        [p for p in (a.vararg, a.kwarg) if p is not None]


def unread_parameters(sources):
    """file:line function(parameter) for each parameter, other than self and
    cls, that a function or method, public or private (nested ones
    included), never reads; dunder methods and abstract stubs that only
    raise NotImplementedError are exempt."""
    out = []
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("__") and node.name.endswith("__") \
                    or _only_raises_not_implemented(node.body):
                continue
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{fname}:{node.lineno} {node.name}({p.arg})" for p in _parameters(node)
                    if p.arg not in read and p.arg not in ("self", "cls")]
    return out


def private_parameters(sources):
    """file:line function(parameter) for each parameter of a function or
    method, public or private, whose name starts with an underscore: a
    private argument makes its callers know what the function should keep
    to itself."""
    out = []
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                out += [f"{fname}:{node.lineno} {node.name}({p.arg})"
                        for p in _parameters(node) if p.arg.startswith("_")]
    return out


def test_package_has_no_unused_imports():
    assert unused_imports(_package_sources()) == []


def test_package_has_no_unreferenced_private_definitions():
    assert unreferenced_privates(_package_sources()) == []


def test_functions_read_every_parameter():
    assert unread_parameters(_package_sources()) == []


def test_functions_take_no_private_parameters():
    assert private_parameters(_package_sources()) == []


def test_source_checks_catch_leftovers():
    leftover = (
        "import os\n"
        "from .graphs import bits, mask_of  # noqa: F401\n"
        "from .errors import BadParam\n"
        "\n"
        "_DEPTH = 2\n"
        "_WALK_LIMIT = 8\n"
        "\n"
        "class _Walker:\n"
        "    def __init__(self):\n"
        "        self.depth = _DEPTH\n"
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
        ["m.py:6 _WALK_LIMIT", "m.py:19 _bfs_layers", "m.py:16 _unused"]
    unread = (
        "def strat_union(parts, k, *rest, scale=1):\n"
        "    def guard(state, v):\n"
        "        return parts[v] * scale\n"
        "    return guard\n"
        "\n"
        "class Strategy:\n"
        "    def __init__(self, name):\n"
        "        pass\n"
        "\n"
        "    def next_vertex(self, state):\n"
        "        \"\"\"Abstract.\"\"\"\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def _private(self, state, k):\n"
        "        return k\n"
        "\n"
        "def _check_sandwich(line, kmax, limit):\n"
        "    return line, limit\n"
    )
    assert unread_parameters({"m.py": unread}) == [
        "m.py:1 strat_union(k)", "m.py:1 strat_union(rest)",
        "m.py:17 _check_sandwich(kmax)", "m.py:2 guard(state)", "m.py:14 _private(state)"]
    private = (
        "def find(host, pattern, _tables=None):\n"
        "    return _tables or host\n"
        "\n"
        "class Solver:\n"
        "    def __init__(self, g, *, _cache=None):\n"
        "        self.t = _cache or g\n"
        "\n"
        "    def _step(self, state):\n"
        "        return state\n"
    )
    assert private_parameters({"m.py": private}) == [
        "m.py:1 find(_tables)", "m.py:5 __init__(_cache)"]
