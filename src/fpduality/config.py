"""Run-wide resource limits, overridable from the CLI.

degree_budget bounds every term that a division reduces, the dividend's
own terms included: a bracket power f^[q], of degree q deg f, trips it
when divided, before anything grows.  size_cap bounds p^(e n), the
restricted monomials of a Frobenius pushforward F^e_* over n variables."""

DEFAULT_DEGREE_BUDGET = 60
DEFAULT_SIZE_CAP = 4096


class EngineConfig:
    def __init__(self):
        self.reset()

    def reset(self):
        self.degree_budget = DEFAULT_DEGREE_BUDGET
        self.size_cap = DEFAULT_SIZE_CAP

    def override(self, degree_budget=None, size_cap=None):
        """Set each budget given; None keeps the current value."""
        if degree_budget is not None:
            self.degree_budget = degree_budget
        if size_cap is not None:
            self.size_cap = size_cap


config = EngineConfig()
