"""Source hygiene: no module of the package imports a name it never uses,
no module but `groebner` reads a Groebner basis's reducer forms, no private
module-level function or class goes unreferenced, and every public function
or class, and every public method or property of an exported class, has a
caller in the package or the benchmark."""

import ast
import functools
import inspect
import pathlib

import mcalc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mcalc"
BENCH = ROOT / "perfbench"


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


# The reducer forms a Groebner basis divides by, and the routines that take
# them, are `groebner`'s own: other modules ask the basis object instead.
BASIS_INTERNALS = {"_forms", "_reduce", "_reducer_form", "_standard_terms"}


def basis_format_reads(text, filename="<source>"):
    """(line, name) of each read of a name in BASIS_INTERNALS, as an
    attribute or in an import, in line order."""
    found = []
    for node in ast.walk(ast.parse(text, filename=filename)):
        if isinstance(node, ast.Attribute) and node.attr in BASIS_INTERNALS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in BASIS_INTERNALS]
    return sorted(found)


def test_basis_format_reads_are_found():
    text = ("from .groebner import _raw_vector, _reduce\n"
            "from . import groebner\n"
            "print(gb.raws, gb._forms, groebner._standard_terms)\n")
    assert basis_format_reads(text) == [(1, "_reduce"), (3, "_forms"), (3, "_standard_terms")]


def test_basis_format_stays_in_groebner():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "groebner.py"
             for line, name in basis_format_reads(path.read_text(encoding="utf-8"), str(path))]
    assert not found, "reducer forms read outside groebner:\n" + "\n".join(found)


def unreferenced_private_definitions(texts):
    """(file, name) of each module-level `_private` function or class that
    no module among texts (file -> source) reads by name, as an attribute or
    in an import."""
    defined = []
    used = set()
    for filename, text in texts.items():
        tree = ast.parse(text, filename=filename)
        defined += [(filename, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [(f, name) for f, name in defined if name not in used]


def test_unreferenced_private_definitions_are_found():
    texts = {"a.py": ("def _dead():\n    pass\n"
                      "def _called():\n    pass\n"
                      "def _by_attribute():\n    pass\n"
                      "class _Imported:\n    pass\n"
                      "def __getattr__(name):\n    pass\n"
                      "_called()\n"),
             "b.py": ("import a\n"
                      "from a import _Imported\n"
                      "print(a._by_attribute)\n")}
    assert unreferenced_private_definitions(texts) == [("a.py", "_dead")]


def test_no_unreferenced_private_definitions_in_the_package():
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = [f"{f}: {name}" for f, name in unreferenced_private_definitions(texts)]
    assert not found, "unreferenced private definitions:\n" + "\n".join(found)


def _reads(node, enclosing, attributes_only, used):
    """Add to used each name node reads, skipping reads inside a definition
    of the same name; bare names count unless attributes_only."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    read = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
        read = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read = node.attr
    if read is not None and read not in enclosing:
        used.add(read)
    for child in ast.iter_child_nodes(node):
        _reads(child, enclosing, attributes_only, used)


def unread_public_names(names, texts, attributes_only=False):
    """Each of names that no module among texts (file -> source) reads, as an
    attribute or, unless attributes_only, as a name. Reads in `__init__.py`
    and inside the name's own definition do not count."""
    used = set()
    for filename, text in texts.items():
        if pathlib.PurePath(filename).name != "__init__.py":
            _reads(ast.parse(text, filename=filename), frozenset(), attributes_only, used)
    return [name for name in names if name not in used]


def public_members(cls):
    """Names of the public methods, classmethods, staticmethods and
    properties that cls itself defines. Operator methods are left out: an
    attribute read never names them."""
    kinds = (classmethod, staticmethod, property, functools.cached_property)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_unread_public_names_are_found():
    texts = {"a.py": ("def called():\n    pass\n"
                      "def recursive(n):\n    return recursive(n - 1)\n"
                      "class Builder:\n    def copy(self):\n        return Builder()\n"
                      "class Result:\n    pass\n"
                      "def exported():\n    return Result()\n"),
             "b.py": "import a\nprint(a.called)\n",
             "__init__.py": "from a import exported\nexported()\n"}
    assert unread_public_names(["called", "recursive", "Builder", "Result", "exported"],
                               texts) == ["recursive", "Builder", "exported"]


def test_unread_public_members_are_found():
    class Shape:
        def area(self):
            pass

        def scale(self):
            return self.scale()

        @classmethod
        def unit(cls):
            pass

        @property
        def size(self):
            pass

        def _private(self):
            pass

    texts = {"a.py": ("def measure(shape):\n    return shape.area()\n"
                      "def grow(shape, scale):\n    return scale * shape.size\n"),
             "__init__.py": "from a import Shape\nShape.unit()\n"}
    assert public_members(Shape) == ["area", "scale", "unit", "size"]
    # a local called scale reads no attribute
    assert unread_public_names(public_members(Shape), texts, attributes_only=True) == [
        "scale", "unit"]


def _package_and_benchmark_texts():
    return {str(path): path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}


def test_public_api_has_a_caller():
    public = [name for name in mcalc.__all__
              if inspect.isfunction(getattr(mcalc, name)) or inspect.isclass(getattr(mcalc, name))]
    found = unread_public_names(public, _package_and_benchmark_texts())
    assert not found, "public names that nothing in the package or the benchmark reads:\n" + \
        "\n".join(found)


def test_public_members_have_a_caller():
    texts = _package_and_benchmark_texts()
    found = [f"{name}.{member}" for name in mcalc.__all__
             if inspect.isclass(getattr(mcalc, name))
             for member in unread_public_names(public_members(getattr(mcalc, name)), texts,
                                               attributes_only=True)]
    assert not found, ("public members of exported classes that nothing in the package or "
                       "the benchmark reads as an attribute:\n" + "\n".join(found))
