"""Every top-level function in src/fpduality is referenced from the package
itself: called, imported (the package's exported names included) or read
as an attribute somewhere other than its own body.  A function that only
the tests or the benchmark reach is dead code in the library: it moves
into the test that calls it, or goes.  ALLOWED names the exceptions, each
with its reason; an exception that gains a caller or disappears must
leave the list."""

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
}


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


def _unreferenced(texts):
    """The top-level functions of the module texts that no statement other
    than their own definition reads."""
    defined = set()
    read = set()
    for text in texts:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                # a recursive call is not a caller
                read |= _names_read(node) - {node.name}
            else:
                read |= _names_read(node)
    return defined - read


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


def test_every_function_is_referenced_from_the_package():
    texts = [path.read_text() for path in SOURCES]
    assert _unreferenced(texts) - set(ALLOWED) == set()


def test_exceptions_are_current():
    texts = [path.read_text() for path in SOURCES]
    assert set(ALLOWED) <= _unreferenced(texts)
    assert all(reason.strip() for reason in ALLOWED.values())
