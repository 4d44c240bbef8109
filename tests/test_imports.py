"""Every module of the package uses every name it imports and imports
nothing beyond the standard library, numpy and the package itself, every
function reads every parameter it declares, the package reads every private
name its modules define, and something besides the tests names every public
one."""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "numindex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
#: what reads the package besides its own modules and the tests
READERS = [*sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


#: top-level packages a module of the package may import: numpy is the one
#: runtime dependency
ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "numindex"}


def foreign_imports(source: str) -> list[str]:
    """Top-level packages that ``source`` imports from outside
    ``ALLOWED_IMPORTS``; a relative import stays inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return [name for name in found if name not in ALLOWED_IMPORTS]


def _module_level_names(tree: ast.Module):
    """(name, statement) of every function, class and assigned name at the
    module level of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                yield from ((n.id, node) for n in ast.walk(t) if isinstance(n, ast.Name))


def unused_private_names(sources: dict) -> list[str]:
    """``module:name`` of every private (``_``-prefixed) function, class or
    assignment at module level of ``sources`` (module name -> source) that
    no module of ``sources`` reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name, _ in _module_level_names(tree)
                    if name.startswith("_")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def unreferenced_public_names(sources: dict, readers: list) -> list[str]:
    """``module:name`` of every public function, class or assignment at
    module level of ``sources`` (module name -> source), and
    ``module:Class.name`` of every public method or property of its classes,
    that appears nowhere but in its own definition: not in the rest of its
    module, another module of ``sources`` or a text of ``readers``.  A name
    must appear as a whole word, a member's as an attribute (``.name``);
    dataclass fields are exempt, since they leave through ``asdict``."""
    unread = []
    for module, source in sources.items():
        lines, tree = source.splitlines(), ast.parse(source)
        names = [(name, name, node, r"\b") for name, node in _module_level_names(tree)]
        names += [(f"{c.name}.{f.name}", f.name, f, r"\.") for c in tree.body
                  if isinstance(c, ast.ClassDef) for f in c.body
                  if isinstance(f, ast.FunctionDef)]
        for label, name, node, lead in names:
            if name.startswith("_"):
                continue
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            texts = ["\n".join(rest), *(v for m, v in sources.items() if m != module), *readers]
            word = re.compile(rf"{lead}{re.escape(name)}\b")
            if not any(word.search(t) for t in texts):
                unread.append(f"{module}:{label}")
    return unread


def unread_parameters(source: str) -> list[str]:
    """``function:parameter`` of every parameter of every ``def`` and
    ``lambda`` of ``source`` that its body never reads; ``self``, ``cls`` and
    ``_``-prefixed names are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
                  if p is not None and p.arg not in ("self", "cls") and p.arg[0] != "_"]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{p}" for p in params if p not in read]
    return unread


def test_unused_imports_are_found():
    assert unused_imports("import math\nfrom numpy import pi, e\nprint(e)\n") == \
        ["math", "pi"]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_foreign_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path, scipy.optimize\n"
              "import numpy as np\nfrom numindex.spaces import lp\nfrom . import radius\n"
              "from .index import mp_constant\nfrom scipy.optimize import minimize_scalar\n"
              "def f():\n    import pandas\n")
    assert foreign_imports(source) == ["scipy", "scipy", "pandas"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text()) == []


def test_unread_parameters_are_found():
    source = ("def f(a, b=1, *args, c, _d, **kw):\n    return a + kw['x']\n"
              "class K:\n    def m(self, x, y):\n        return lambda z, w: x + z\n"
              "    @classmethod\n    def n(cls, v):\n        def g(u):\n            return v\n"
              "        return g\n")
    assert unread_parameters(source) == ["f:b", "f:args", "f:c", "m:y", "g:u", "lambda:w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_unused_private_names_are_found():
    sources = {"a": "_A = 1\n_B: int = 2\n_C, d = 3, 4\ndef _f():\n    return _A\n"
                    "class _K:\n    pass\n",
               "b": "import a\nfrom a import _B\na._f()\n"}
    assert unused_private_names(sources) == ["a:_B", "a:_C", "a:_K"]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_unreferenced_public_names_are_found():
    sources = {"a": "X = 1\nY = X\nZ: int = 2\ndef f():\n    return f()\n"
                    "class K:\n    pass\ndef _g():\n    pass\ndef h():\n    pass\n",
               "b": "from a import K\n"}
    assert unreferenced_public_names(sources, ["print(Y)", "see `h`; Zeta"]) == \
        ["a:Z", "a:f"]


def test_unreferenced_public_members_are_found():
    """Methods and properties count only when read as attributes; fields,
    private and dunder members are exempt."""
    sources = {"a": "class K:\n    field: int = 0\n    _noun = 'k'\n"
                    "    def __init__(self):\n        self.used()\n"
                    "    def used(self):\n        return self._hidden()\n"
                    "    def _hidden(self):\n        return 1\n"
                    "    @property\n    def size(self):\n        return 2\n"
                    "    def unused(self):\n        return self.unused()\n"
                    "    @property\n    def dim(self):\n        return 3\n"
                    "    def read(self):\n        return 4\n",
               "b": "from a import K\nprint(K().read())\n"}
    assert unreferenced_public_names(sources, ["x.size", "dim=2, field"]) == \
        ["a:K.unused", "a:K.dim"]


def test_package_names_every_public_name_outside_the_tests():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unreferenced_public_names(sources, [p.read_text() for p in READERS]) == []
