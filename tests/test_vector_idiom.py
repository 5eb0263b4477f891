"""Module vectors above groebner.py are built with vector_of and read with
nonzero_slots.  A dense list padded with zeros, or a vector made straight
from a term dict, outside groebner.py would bring back the per-slot idiom
that the term-dict vectors replaced.

Coefficient vectors have one format too: the solvers return a VectorPoly,
and combine, the one columns-times-coefficients product, reads its flat
terms ((j, m), c) term by term, with no per-slot polynomial.  A dense
components tuple passed to combine, or a solver result wrapped again as a
VectorPoly, would bring back the list format they replaced.

Rows that an elimination changes entry by entry hold term dicts
{slot: {mono: coeff}} (groebner.slot_terms), not slot views: a row made
as dict(nonzero_slots(v)) would bring back a Polynomial per slot and per
update.

The polynomial of a rank-one vector is read with poly_from_vector, from
its terms: v.components[0] would build a slot view and a dense tuple to
read one slot."""

import pathlib
import re

import fpduality

SOURCES = sorted(pathlib.Path(fpduality.__file__).parent.glob("*.py"))

# [ring.zero()] * n, [amb.zero()] * (m * n), ...
ZERO_PADDING = re.compile(r"\[[^\[\]]*\.zero\(\)\]\s*\*")
TERM_DICT_VECTOR = re.compile(r"VectorPoly\._of\b")
# combine(self.columns, v.components, ...)
DENSE_COMBINE = re.compile(r"\bcombine\(.*\.components\b")
# VectorPoly(amb, coords): a solver result rebuilt from a list
REWRAPPED_SOLUTION = re.compile(r"\bVectorPoly\(\s*[\w.]+\s*,\s*(coords|coeffs|cls|sol|ident|id_coords)\s*\)")
# rows = [dict(nonzero_slots(r)) for r in M.relations]
SLOT_VIEW_ROWS = re.compile(r"\bdict\(\s*nonzero_slots\(")
# values = (col.components[0] for col in phi.columns)
RANK_ONE_COMPONENT = re.compile(r"\.components\[\s*0\s*\]")


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
    assert DENSE_COMBINE.search("return combine(self.columns, v.components, self.target.ambient, n)")
    assert DENSE_COMBINE.search("lhs = combine(d_tgt, self.column(d, j).components, amb, r)")
    assert not DENSE_COMBINE.search("return combine(self.columns, nonzero_slots(v), amb, n)")
    assert REWRAPPED_SOLUTION.search("cols.append(VectorPoly(amb, coords))")
    assert REWRAPPED_SOLUTION.search("VectorPoly(S, id_coords),")
    assert REWRAPPED_SOLUTION.search("cols.append(VectorPoly(self.module.ambient, coords))")
    assert not REWRAPPED_SOLUTION.search("VectorPoly(amb, [g]) for g in gens")
    assert not REWRAPPED_SOLUTION.search("VectorPoly(amb, coordsys)")
    assert SLOT_VIEW_ROWS.search("rows = [dict(nonzero_slots(r)) for r in M.relations]")
    assert SLOT_VIEW_ROWS.search("row = dict( nonzero_slots(v))")
    assert not SLOT_VIEW_ROWS.search("rows = [slot_terms(r) for r in M.relations]")
    assert not SLOT_VIEW_ROWS.search("entries = nonzero_slots(v)")
    assert RANK_ONE_COMPONENT.search("values = (col.components[0] for col in phi.columns)")
    assert RANK_ONE_COMPONENT.search("f = v.components[ 0 ]")
    assert not RANK_ONE_COMPONENT.search("values = (poly_from_vector(col) for col in phi.columns)")
    assert not RANK_ONE_COMPONENT.search("g = v.components[1]")


def test_no_zero_padded_vectors_outside_groebner():
    assert _offending_lines(ZERO_PADDING) == []


def test_no_term_dict_vectors_outside_groebner():
    assert _offending_lines(TERM_DICT_VECTOR) == []


def test_no_dense_coefficients_passed_to_combine_outside_groebner():
    assert _offending_lines(DENSE_COMBINE) == []


def test_no_solver_result_rewrapped_outside_groebner():
    assert _offending_lines(REWRAPPED_SOLUTION) == []


def test_no_rows_of_slot_views_outside_groebner():
    assert _offending_lines(SLOT_VIEW_ROWS) == []


def test_no_rank_one_polynomial_read_through_components_outside_groebner():
    assert _offending_lines(RANK_ONE_COMPONENT) == []
