"""Source hygiene: no module of the package imports a name it never uses,
no module but `groebner` reads a Groebner basis's reducer forms, no module
but `scalars` uses Fraction, no private module-level function or class goes
unreferenced, and every public function or class, and every public method
or property of an exported class, has a caller in the package or the
benchmark."""

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


# The reducer forms a Groebner basis divides by, the packed term keys they
# hold, the routines that take them, and the Hilbert numerator of its leads,
# are `groebner`'s own: other modules ask the basis object, or pass raw
# vectors, instead.
BASIS_INTERNALS = {"_forms", "_leads", "_layout", "_pack", "_unpack", "_reduce",
                   "_reducer_form", "_submul", "_hilbert_numerator"}


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
            "print(gb.raws, gb._forms, groebner._hilbert_numerator)\n")
    assert basis_format_reads(text) == [(1, "_reduce"), (3, "_forms"),
                                        (3, "_hilbert_numerator")]


def test_basis_format_stays_in_groebner():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "groebner.py"
             for line, name in basis_format_reads(path.read_text(encoding="utf-8"), str(path))]
    assert not found, "reducer forms read outside groebner:\n" + "\n".join(found)


# The coefficient format is `scalars`' own: other modules compute on raw
# values through `FieldSpec.raw` and never build or test for a Fraction.
def fraction_reads(text, filename="<source>"):
    """(line, name) of each import of the fractions module and each read of
    the name Fraction, as a name or an attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(text, filename=filename)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "fractions"))
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append((node.lineno, "Fraction"))
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append((node.lineno, "Fraction"))
    return sorted(found)


def test_fraction_reads_are_found():
    text = ("import fractions\n"
            "from fractions import Fraction as F\n"
            "# a Fraction in a comment, and in a string, is not a read\n"
            "print('Fraction', fractions.Fraction(1), isinstance(x, Fraction))\n")
    assert fraction_reads(text) == [(1, "fractions"), (2, "fractions"), (4, "Fraction"),
                                    (4, "Fraction")]


def test_only_scalars_knows_the_coefficient_format():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "scalars.py"
             for line, name in fraction_reads(path.read_text(encoding="utf-8"), str(path))]
    assert not found, "Fraction used outside scalars:\n" + "\n".join(found)


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


# The division kernel and the Buchberger loop are the only heap users: a
# second division kernel (say one for integer coefficients) would need one.
HEAP_USERS = {"_reduce", "_buchberger"}


def call_sites(text, name, filename="<source>", keep=lambda call: True):
    """(line, function) of each call to name, bare, under an alias it was
    imported as, or as an attribute (`heapq.heappop`), with the innermost
    enclosing function's name (None at module level); only the calls whose
    ast.Call node keep accepts."""
    tree = ast.parse(text, filename=filename)
    bare = {name} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.name == name and a.asname}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr == name)
                    or (isinstance(f, ast.Name) and f.id in bare)) and keep(node):
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_heappop_callers_are_found():
    text = ("import heapq\n"
            "from heapq import heappop as pop\n"
            "def _reduce(heap):\n"
            "    return heapq.heappop(heap)\n"
            "def _reduce_integers(heap):\n"
            "    def step():\n"
            "        return pop(heap)\n"
            "    return step()\n"
            "heapq.heappop([1])\n")
    assert call_sites(text, "heappop") == [(4, "_reduce"), (7, "step"), (9, None)]


def test_only_the_kernel_and_the_loop_pop_a_heap():
    found = [f"{path.name}:{line}: {function}"
             for path in sorted(SRC.glob("*.py"))
             for line, function in call_sites(path.read_text(encoding="utf-8"), "heappop",
                                              str(path))
             if path.name != "groebner.py" or function not in HEAP_USERS]
    assert not found, "heap pops outside the division kernel and the loop:\n" + "\n".join(found)


# Tracked syzygies run only where the generator list is itself the output, so
# its order is pinned: the kernel embedding and the Koszul kernel generators.
# Every other preimage is a submodule, read off an untracked basis.
PREIMAGE_CALLERS = {("fpmodules.py", "kernel_of_map"), ("koszul.py", "koszul_homology")}


def test_preimage_callers_are_found():
    text = ("from . import fpmodules\n"
            "from .fpmodules import preimage_submodule as pre\n"
            "def kernel_of_map(phi):\n"
            "    return preimage_submodule(phi)\n"
            "def gamma_saturation(M):\n"
            "    return [pre(M) for _ in range(2)]\n"
            "fpmodules.preimage_submodule(None)\n")
    assert call_sites(text, "preimage_submodule") == [
        (4, "kernel_of_map"), (6, "gamma_saturation"), (7, None)]


def test_only_pinned_generator_lists_take_tracked_preimages():
    found = [f"{path.name}:{line}: {function}"
             for path in sorted(SRC.glob("*.py"))
             for line, function in call_sites(path.read_text(encoding="utf-8"),
                                               "preimage_submodule", str(path))
             if (path.name, function) not in PREIMAGE_CALLERS]
    assert not found, "tracked preimages outside the pinned generator lists:\n" + "\n".join(found)


# The length table is one reading of one Hilbert series: only
# `multiplicity_data` builds the quotient M/IM, reads a series, and reads
# e and the table off it, only `_rees_series` counts the series of gr_I(M)
# off its second basis, and the only other length-at-the-origin reads in
# `multiplicity` are the Koszul lengths (H_0 alone) and a parameter's
# colength, so a candidate test reads its colength off H_0 in
# `homology_lengths` and a second table route would show here.
TABLE_CALLERS = {"quotient_by_polys": {"multiplicity_data"},
                 "hilbert_series": {"multiplicity_data"},
                 "graded_series": {"_rees_series"},
                 "read_hilbert_series": {"multiplicity_data"},
                 "local_length": {"multiplicity_data", "homology_lengths",
                                  "parameter_colength"}}


def stray_table_calls(text, filename="<source>"):
    """(line, name, function) of each call to a TABLE_CALLERS name from a
    function that is not pinned for it, in line order."""
    return sorted((line, name, function) for name, allowed in TABLE_CALLERS.items()
                  for line, function in call_sites(text, name, filename)
                  if function not in allowed)


def test_stray_table_calls_are_found():
    text = ("def multiplicity_data(M, gens):\n"
            "    return M.quotient_by_polys(gens).local_length()\n"
            "def _validate_candidate(A, seq):\n"
            "    gb = buchberger(A.ring, seq)\n"
            "    return gb.local_length(), A.quotient_by_polys(seq)\n"
            "def parameter_colength(ring, f):\n"
            "    return buchberger(ring, [f]).local_length()\n"
            "FREE.local_length()\n"
            "def _graded_table(M):\n"
            "    return read_hilbert_series(M.gb.graded_series(2), 2)\n")
    assert stray_table_calls(text) == [
        (5, "local_length", "_validate_candidate"),
        (5, "quotient_by_polys", "_validate_candidate"),
        (8, "local_length", None),
        (10, "graded_series", "_graded_table"),
        (10, "read_hilbert_series", "_graded_table")]


def test_one_table_route_in_multiplicity():
    path = SRC / "multiplicity.py"
    found = [f"{path.name}:{line}: {name} in {function}"
             for line, name, function in stray_table_calls(path.read_text(encoding="utf-8"),
                                                           str(path))]
    assert not found, "length-table calls outside the pinned functions:\n" + "\n".join(found)


# The F_p(t) value format, numerator and denominator coefficient tuples, is
# known only to `scalars`: every other module computes through a field's
# tables, so its `_pt_*` helpers and `_ffrac_normalize` have no caller
# elsewhere, in the package, the benchmark or the tests.
def format_helpers():
    """The module-level `_pt_*` functions of `scalars` and `_ffrac_normalize`."""
    tree = ast.parse((SRC / "scalars.py").read_text(encoding="utf-8"))
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and (node.name.startswith("_pt_") or node.name == "_ffrac_normalize"))


def format_helper_reads(text, names, filename="<source>"):
    """(line, name) of each call to, or import of, a name among names, in
    line order; a file whose text never spells a name is not parsed."""
    names = [name for name in names if name in text]
    if not names:
        return []
    found = [(line, name) for name in names for line, _ in call_sites(text, name, filename)]
    found += [(node.lineno, a.name) for node in ast.walk(ast.parse(text, filename=filename))
              if isinstance(node, ast.ImportFrom) for a in node.names if a.name in names]
    return sorted(found)


def test_format_helper_reads_are_found():
    assert {"_pt_mul", "_pt_gcd", "_ffrac_normalize"} <= set(format_helpers())
    text = ("from mcalc.scalars import _pt_gcd as gcd\n"
            "from mcalc import scalars\n"
            "# _pt_mul(a, b, p) in a comment is no read\n"
            "def lead_content(a, b):\n"
            "    return gcd(a, b, 5), scalars._ffrac_normalize(a, b, 5)\n")
    assert format_helper_reads(text, format_helpers()) == [
        (1, "_pt_gcd"), (5, "_ffrac_normalize"), (5, "_pt_gcd")]


def test_only_scalars_knows_the_function_field_format():
    names = format_helpers()
    found = [f"{path.name}:{line}: {name}"
             for path in sorted([*SRC.glob("*.py"), *BENCH.glob("*.py"),
                                 *pathlib.Path(__file__).parent.glob("*.py")])
             if path != SRC / "scalars.py"
             for line, name in format_helper_reads(path.read_text(encoding="utf-8"), names,
                                                   str(path))]
    assert not found, "F_p(t) format helpers used outside scalars:\n" + "\n".join(found)
