import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULT_LINES
    except Exception:
        return
    if RESULT_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def hom_condition_systems(monkeypatch):
    """(rows, columns) of each system that complexes.syzygies solves while
    the test runs.  Hom(M, N) is H^0 of a Hom complex, whose cocycles are
    the one syzygies call of its cohomology: the condition columns modulo
    the relations of N, one copy per condition."""
    import fpduality.complexes as complexes

    shapes = []
    original = complexes.syzygies

    def recorded(vectors, modulo=()):
        vectors, modulo = list(vectors), list(modulo)
        if vectors:
            shapes.append((vectors[0].rank, len(vectors) + len(modulo)))
        return original(vectors, modulo=modulo)

    monkeypatch.setattr(complexes, "syzygies", recorded)
    return shapes
