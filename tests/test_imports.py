"""Every name a module of htlab or of its tests imports is used in that module,
and every private definition of htlab has a reader in htlab.

A name counts as used when the module reads it, or lists it in __all__
(the package's re-exports).  A private definition is a function, class or
method whose name starts with one underscore; it counts as read when its
name is read, as a name or an attribute, somewhere in src/htlab outside its
own body.  Code that only tests read belongs in tests/oracles.py.  The
checks read the source with the stdlib ast module and import nothing.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "htlab"


def unused_imports(source):
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def unread_private_definitions(sources):
    """(module, name) of each private definition in sources, {module: source},
    whose name is read nowhere outside its own body."""
    defs, reads = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((module, node))
            elif isinstance(node, ast.Name):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.attr, node.lineno))

    def read(module, node):
        return any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in reads
        )

    return [(module, node.name) for module, node in defs if not read(module, node)]


def test_the_check_sees_an_unread_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _self(n):\n    return _self(n - 1)\n\n\n"
        "class _Box:\n    def _get(self):\n        return self._put()\n\n    def _put(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert unread_private_definitions(sources) == [("a.py", "_self"), ("a.py", "_Box"), ("a.py", "_get")]


def test_every_private_definition_has_a_reader_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom itertools import chain, repeat\nfrom .base import KElem\n__all__ = ['KElem']\nrepeat(os.sep)\n"
    assert unused_imports(source) == ["chain"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
