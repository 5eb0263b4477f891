"""Module vectors above groebner.py are built with vector_of and read with
nonzero_slots.  A dense list padded with zeros, or a vector made straight
from a term dict, outside groebner.py would bring back the per-slot idiom
that the term-dict vectors replaced."""

import pathlib
import re

import fpduality

SOURCES = sorted(pathlib.Path(fpduality.__file__).parent.glob("*.py"))

# [ring.zero()] * n, [amb.zero()] * (m * n), ...
ZERO_PADDING = re.compile(r"\[[^\[\]]*\.zero\(\)\]\s*\*")
TERM_DICT_VECTOR = re.compile(r"VectorPoly\._of\b")


def _offending_lines(pattern):
    found = []
    for path in SOURCES:
        if path.name == "groebner.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                found.append("%s:%d: %s" % (path.name, number, line.strip()))
    return found


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"groebner.py", "complexes.py", "modules.py", "duality.py"} <= names


def test_patterns_match_the_dense_idiom():
    assert ZERO_PADDING.search("comps = [amb.zero()] * len(tgt)")
    assert ZERO_PADDING.search("VectorPoly(S, [S.zero()]*n)")
    assert not ZERO_PADDING.search("VectorPoly(amb, [amb.zero()])")
    assert TERM_DICT_VECTOR.search("return VectorPoly._of(ring, rank, acc)")


def test_no_zero_padded_vectors_outside_groebner():
    assert _offending_lines(ZERO_PADDING) == []


def test_no_term_dict_vectors_outside_groebner():
    assert _offending_lines(TERM_DICT_VECTOR) == []
