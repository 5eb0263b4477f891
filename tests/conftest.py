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
    """(rows, columns) of each system that modules.syzygy_heads solves
    while the test runs: HomModule reads its raw generators off the one
    call that it makes, on its stacked condition system."""
    import fpduality.modules as modules

    shapes = []
    original = modules.syzygy_heads

    def recorded(cols, k):
        if cols:
            shapes.append((cols[0].rank, len(cols)))
        return original(cols, k)

    monkeypatch.setattr(modules, "syzygy_heads", recorded)
    return shapes
