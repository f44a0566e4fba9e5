"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mcalc"


def unused_imports(text, filename="<source>"):
    """(line, name) of each imported name that the module never reads.

    Names listed in a literal `__all__` count as used (re-exports), and
    `from __future__` imports are not names at all.
    """
    tree = ast.parse(text, filename=filename)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    text = ("from __future__ import annotations\n"
            "import os, sys\n"
            "from json import dumps, loads as read\n"
            "from .errors import RingMismatch\n"
            "__all__ = ['RingMismatch']\n"
            "print(sys.argv, read)\n")
    assert unused_imports(text) == [(2, "os"), (3, "dumps")]


def test_no_unused_imports_in_the_package():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))]
    assert not found, "unused imports:\n" + "\n".join(found)
