"""Every top-level function and every method in src/fpduality is
referenced from the package itself: called, imported (the package's
exported names included) or read as an attribute somewhere other than its
own body.  A method counts as read when its name is read anywhere in the
package, whatever the object, so the scan can miss a dead method but never
flags a live one; special methods (__init__, __eq__, ...) are called by
the language and are not scanned.  A function or method that only the
tests or the benchmark reach is dead code in the library: it moves into
the test that calls it, or goes.  ALLOWED names the exceptions, methods as
Class.method, each with its reason; an exception that gains a caller or
disappears must leave the list."""

import ast
import pathlib

import fpduality

SOURCES = sorted(pathlib.Path(fpduality.__file__).parent.glob("*.py"))

ALLOWED = {
    "solve_in_span": "benchmark/tracer.py wraps it by name; it goes once the tracer follows SpanSolver.solve",
    "mod_cohomology": "benchmark/tracer.py wraps it by name; it goes once the tracer follows cohomology",
    "lift_map_of_resolutions": "benchmark/tracer.py wraps it by name; it goes once the tracer follows lift_chain_map",
    "regrouping_map": "the verified change of generators F^{e+1}_* R -> F^e_*(F_* R) that an iterated pushforward is to be built by",
    "mono_div": "the monomial quotient beside mono_lcm and mono_divides, with which the tests build S-vectors term by term",
    "PolyRing.from_terms": "benchmark/workloads.py builds polynomials with it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _is_special(name):
    return name.startswith("__") and name.endswith("__")


def _unreferenced(texts):
    """The top-level functions (by name) and methods (as Class.method) of
    the module texts that no statement other than their own definition
    reads."""
    defined = {}  # reported name -> name read
    read = set()
    for text in texts:
        for node in ast.parse(text).body:
            if isinstance(node, _FUNCTIONS):
                defined[node.name] = node.name
                # a recursive call is not a caller
                read |= _names_read(node) - {node.name}
            elif isinstance(node, ast.ClassDef):
                for part in node.bases + node.keywords + node.decorator_list:
                    read |= _names_read(part)
                for stmt in node.body:
                    if isinstance(stmt, _FUNCTIONS) and not _is_special(stmt.name):
                        defined["%s.%s" % (node.name, stmt.name)] = stmt.name
                        read |= _names_read(stmt) - {stmt.name}
                    else:
                        read |= _names_read(stmt)
            else:
                read |= _names_read(node)
    return {shown for shown, name in defined.items() if name not in read}


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "groebner.py", "modules.py", "frobenius.py", "gabber.py"} <= names


def test_scan_finds_an_unreferenced_function():
    module = (
        "from .other import imported\n"
        "def called():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def dead():\n    return called()\n"
    )
    exporter = "from .module import imported\n"
    assert _unreferenced([module, exporter]) == {"recursive", "dead"}
    assert _unreferenced([module, "x = dead.attr\n"]) == {"recursive"}


def test_scan_finds_an_unreferenced_method():
    module = (
        "class Base:\n    pass\n"
        "class Thing(Base):\n"
        "    size = 1\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return self.size\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
        "    def dead(self):\n        return 0\n"
        "    def __eq__(self, other):\n        return True\n"
    )
    assert _unreferenced([module]) == {"Thing.recursive", "Thing.dead"}
    # a read of the name on any object counts
    assert _unreferenced([module, "def f(x):\n    return x.dead()\n"]) == {"Thing.recursive", "f"}


def test_every_function_is_referenced_from_the_package():
    texts = [path.read_text() for path in SOURCES]
    assert _unreferenced(texts) - set(ALLOWED) == set()


def test_exceptions_are_current():
    texts = [path.read_text() for path in SOURCES]
    assert set(ALLOWED) <= _unreferenced(texts)
    assert all(reason.strip() for reason in ALLOWED.values())
