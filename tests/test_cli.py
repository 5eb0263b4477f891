"""Session language parsing, execution, reports, determinism."""

import io
import json
import subprocess
import sys

import pytest

from fpduality.errors import ParseError
from fpduality.session import Session, execute, parse_session


def run_script(text):
    session = Session()
    reports = [execute(session, stmt) for stmt in parse_session(text)]
    return session, reports


class TestParser:
    def test_ring_declaration(self):
        stmts = parse_session("ring R = Fp(2)[x,y] / (x*y);")
        assert stmts[0][0] == "ring"
        assert stmts[0][2] == 2
        assert stmts[0][3] == ["x", "y"]

    def test_let_call(self):
        stmts = parse_session("let M = frobenius_pushforward(R, 1);")
        assert stmts[0][0] == "let"
        assert stmts[0][2][0] == "call"

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_session("ring R = ;")

    def test_comments_and_whitespace(self):
        stmts = parse_session("# a comment\n  print 1;\n")
        assert len(stmts) == 1

    def test_unterminated(self):
        with pytest.raises(ParseError):
            parse_session("print 1")


class TestExecution:
    def test_ring_and_check(self):
        session, reports = run_script(
            "ring S = Fp(2)[x];\ncheck frobenius_duality(S);\n"
        )
        assert all(r.status == "ok" for r in reports)
        assert reports[1].payload == {"certified": True}

    def test_hilbert_print(self):
        _s, reports = run_script(
            "ring S = Fp(2)[x];\nlet A = cyclic(S, x^2);\nprint hilbert(A, 3);\n"
        )
        assert reports[2].payload == [1, 1, 0, 0]

    def test_gabber_check(self):
        text = (
            "ring S = Fp(2)[X];\n"
            "ring F = Fp(2)[];\n"
            "let pi = ringmap(S, F, [0]);\n"
            "check gabber_kernels(S, pi, 2);\n"
        )
        session, reports = run_script(text)
        assert reports[3].payload == {"certified": True}

    def test_name_error_report(self):
        _s, reports = run_script("print nosuchname;")
        assert reports[0].status == "error"
        assert reports[0].error_kind == "NameError"

    def test_ring_mismatch_reported_not_raised(self):
        text = (
            "ring S = Fp(2)[x];\nring T = Fp(3)[y];\n"
            "let A = cyclic(S);\nlet B = cyclic(T);\nlet C = tensor(A, B);\n"
        )
        session, reports = run_script(text)
        assert reports[4].status == "error"

    def test_failed_check_flips_exit_condition(self):
        text = "ring S = Fp(2)[x,y];\ncheck p_basis(S, [x]);\n"
        session, reports = run_script(text)
        assert reports[1].payload == {"certified": False}

    # one run of each builtin that no other test reaches, and its payload
    BUILTIN_RUNS = [
        (
            "ring R = Fp(2)[x,y] / (y^2 + x*y + y + x^3 + x + 1);\n"
            "let Q = ideal_module(R, x + 1, y + 1);\n"
            "print minimal_generators_at(Q, [x + 1, y + 1]);\n",
            1,
        ),
        (
            "ring S = Fp(2)[x,y];\nlet I = ideal(S, x + y, x*y);\nprint bracket_power(I, 2);\n",
            {"groebner_basis": ["x^4 + y^4", "y^8"]},
        ),
        (
            "ring S = Fp(2)[x,y];\nring T = Fp(2)[t];\nlet phi = ringmap(S, T, [t, t^2]);\nprint kernel_ideal(phi);\n",
            {"groebner_basis": ["x^2 + y"]},
        ),
        (
            "ring T = Fp(2)[t];\nprint gabber_truncation(T, [t], 2);\n",
            "Fp(2)[t,X1_1,X1_2]/(X1_1^2 + t, X1_2^2 + X1_1)",
        ),
        ("ring A = Fp(2)[x] / (x^2);\nprint omega_degrees(A);\n", [0]),
        (
            "ring S = Fp(2)[x,y];\nlet I = ideal(S, x, y);\nlet J = ideal(S, x + y, y);\ncheck equal_ideals(I, J);\n",
            {"certified": True},
        ),
        ("ring T = Fp(2)[t];\ncheck p_generating(T, [t]);\n", {"certified": True}),
        ("ring T = Fp(2)[t];\ncheck p_generating(T, [t^2]);\n", {"certified": False}),
        ("ring T = Fp(2)[t,u];\ncheck extend_pgens(T, [t, u], [t + u], 1);\n", {"certified": True}),
        ("ring S = Fp(2)[x];\ncheck eta(S, [x]);\n", {"certified": True}),
        ("ring S = Fp(2)[x];\ncheck xi_factorizations(S);\n", {"certified": True}),
        ("check commutation_signs(2);\n", {"certified": True}),
    ]

    @pytest.mark.parametrize("text, payload", BUILTIN_RUNS)
    def test_builtin_payload(self, text, payload):
        _s, reports = run_script(text)
        assert all(r.status == "ok" for r in reports)
        assert reports[-1].payload == payload

    def test_set_budget(self):
        from fpduality.config import config

        old = config.degree_budget
        try:
            _s, reports = run_script("set budget.degree = 42;")
            assert config.degree_budget == 42
        finally:
            config.degree_budget = old

    PRESENTATIONS = (
        "ring A = Fp(2)[x] / (x^2);\n"
        "ring B = Fp(2)[x] / (x^3);\n"
        "ring S = Fp(2)[x];\n"
        "ring T = Fp(2)[u,v];\n"
        "let p1 = ringmap(S, A, [x]);\n"
        "let p2 = ringmap(T, A, [x, 0]);\n"
    )

    def test_presentations_of_the_ring(self):
        _s, reports = run_script(self.PRESENTATIONS + "check presentations(A, p1, p2);\n")
        assert reports[-1].payload == {"certified": True}

    def test_presentations_of_another_ring_are_refused(self):
        # p1 and p2 present A, not B: no verdict on B
        session, reports = run_script(self.PRESENTATIONS + "check presentations(B, p1, p2);\n")
        assert reports[-1].status == "error"
        assert reports[-1].error_kind == "RingMismatch"

    @pytest.mark.parametrize(
        "call, message",
        [
            ("print hom(M);", "hom expects 2 argument(s), got 1"),
            ("print hom(M, M, M);", "hom expects 2 argument(s), got 3"),
            ("print ideal();", "ideal expects at least 1 argument(s), got 0"),
            ("check symmetry(S, M, M, 0, 0, 0);", "symmetry expects 3 to 5 argument(s), got 6"),
            ("check associativity(S, M, M, M, 0, 0, 0, 0);", "associativity expects 4 to 7 argument(s), got 8"),
            ("check frobenius_duality();", "frobenius_duality expects 1 to 2 argument(s), got 0"),
        ],
    )
    def test_argument_counts_are_checked(self, call, message):
        _s, reports = run_script("ring S = Fp(2)[x];\nlet M = cyclic(S, x);\n" + call + "\n")
        assert reports[-1].status == "error"
        assert reports[-1].error_kind == "ParseError"
        assert reports[-1].message == message

    def test_associativity_reads_each_shift(self):
        # one or two optional shifts given: the others default to 0
        text = "ring S = Fp(2)[x];\nlet O = cyclic(S);\nlet N = cyclic(S, x);\n"
        calls = ["check associativity(S, O, N, O%s);" % tail for tail in (", 0", ", 0, 0", ", 0, 0, 0")]
        _s, reports = run_script(text + "\n".join(calls) + "\n")
        assert [r.payload for r in reports[3:]] == [{"certified": True}] * 3

    def test_serialization_deterministic(self):
        text = "ring R = Fp(2)[x,y] / (x*y);\nlet Q = ideal(R, x + 1, y + 1);\nprint Q;\n"
        _s1, r1 = run_script(text)
        _s2, r2 = run_script(text)
        assert json.dumps([r.to_dict() for r in r1], sort_keys=True) == json.dumps(
            [r.to_dict() for r in r2], sort_keys=True
        )


class TestCommandLine:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "fpduality.cli", *argv],
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_run_session_file(self, tmp_path):
        f = tmp_path / "demo.session"
        f.write_text(
            "ring S = Fp(2)[x];\ncheck trace_generator(S);\nprint hilbert(cyclic(S, x^2), 2);\n"
        )
        out = self._run("run", str(f))
        assert out.returncode == 0
        assert "certified" in out.stdout

    def test_run_json_replay_identical(self, tmp_path):
        f = tmp_path / "demo.session"
        f.write_text(
            "ring R = Fp(2)[x,y] / (x*y);\n"
            "let M = frobenius_pushforward(R, 1);\n"
            "print generic_rank(M);\n"
            "check frobenius_duality(R);\n"
        )
        a = self._run("run", str(f), "--json")
        b = self._run("run", str(f), "--json")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        lines = [json.loads(line) for line in a.stdout.splitlines()]
        assert all(rec["status"] == "ok" for rec in lines)

    def test_failing_check_exit_code(self, tmp_path):
        f = tmp_path / "bad.session"
        f.write_text("ring S = Fp(2)[x,y];\ncheck p_basis(S, [x]);\n")
        out = self._run("run", str(f))
        assert out.returncode == 1

    def test_zero_ring_is_a_typed_error(self, tmp_path):
        # F_2[x]/(1) is zero: its dualizing complex has no cohomology
        f = tmp_path / "zero.session"
        f.write_text(
            "ring Z = Fp(2)[x] / (1);\n"
            "check unit(Z, cyclic(Z));\n"
            "check frobenius_duality(Z);\n"
            "check rigidifier(Z);\n"
            "print omega_module(Z);\n"
        )
        out = self._run("run", str(f), "--json")
        assert out.returncode == 1
        ring, *statements = [json.loads(line) for line in out.stdout.splitlines()]
        assert ring["status"] == "ok"
        assert [(r["status"], r["error_kind"]) for r in statements] == [("error", "ZeroRing")] * 4

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "broken.session"
        f.write_text("ring R = ;")
        out = self._run("run", str(f))
        assert out.returncode == 2


class TestSettings:
    @pytest.mark.parametrize(
        "flag, script, error_kind",
        [
            ("budget_degree", "ring S = Fp(2)[x,y];\nprint ideal(S, x^2, x*y);\n", "DegreeBudgetExceeded"),
            ("size_cap", "ring S = Fp(2)[x];\nlet M = frobenius_pushforward(S, 1);\n", "SizeCapExceeded"),
        ],
        ids=["budget-degree", "size-cap"],
    )
    def test_zero_flag_is_applied(self, tmp_path, flag, script, error_kind):
        import argparse

        from fpduality.cli import cmd_run
        from fpduality.config import config

        f = tmp_path / "zero.session"
        f.write_text(script)
        args = argparse.Namespace(file=str(f), json=True, budget_degree=None, size_cap=None)
        setattr(args, flag, 0)
        out = io.StringIO()
        try:
            code = cmd_run(args, out=out)
        finally:
            config.reset()
        last = json.loads(out.getvalue().splitlines()[-1])
        assert code == 1
        assert last["status"] == "error" and last["error_kind"] == error_kind

    def test_settings_do_not_leak_into_later_sessions(self):
        from fpduality.config import DEFAULT_DEGREE_BUDGET, DEFAULT_SIZE_CAP, config

        try:
            run_script("set budget.degree = 5;\nset size.cap = 7;\n")
            assert (config.degree_budget, config.size_cap) == (5, 7)
            Session()
            assert (config.degree_budget, config.size_cap) == (DEFAULT_DEGREE_BUDGET, DEFAULT_SIZE_CAP)
        finally:
            config.reset()

    def test_seed_is_not_a_setting(self):
        _s, reports = run_script("set seed = 3;")
        assert reports[0].status == "error"
        assert reports[0].error_kind == "NameError"
        assert "unknown setting" in reports[0].message


@pytest.mark.parametrize("expr", ["(x+1)*y", "x - (y - 1)", "(x+y)^2", "-(x+y)", "x*y - z^2"])
def test_unparse_round_trip(expr):
    from fpduality.session import unparse

    ast = parse_session("print %s;" % expr)[0][1]
    assert parse_session("print %s;" % unparse(ast))[0][1] == ast


def test_unparse_echo_keeps_parentheses():
    _s, reports = run_script("ring S = Fp(2)[x,y];\nprint ideal(S, (x+1)*y);\n")
    assert reports[1].command == "print ideal(S, (x + 1) * y);"


def test_selftest_json_matches_golden_stream():
    """`fpdual selftest --json` run in process is byte-identical to the
    stream recorded in benchmark/golden/selftest.jsonl."""
    import argparse
    import os

    from fpduality.cli import cmd_selftest

    golden = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "golden", "selftest.jsonl")
    with open(golden, encoding="utf-8") as fh:
        expected = fh.read()
    out = io.StringIO()
    cmd_selftest(argparse.Namespace(json=True), out=out)
    assert out.getvalue() == expected


def test_main_writes_to_redirected_stdout():
    """main() resolves sys.stdout when it runs, so redirect_stdout captures
    the selftest stream (compared with the golden file, never written)."""
    import contextlib
    import os

    from fpduality.cli import main

    golden = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "golden", "selftest.jsonl")
    with open(golden, encoding="utf-8") as fh:
        expected = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selftest", "--json"])
    assert out.getvalue() == expected
    all_pass = all(json.loads(line)["status"] == "pass" for line in expected.splitlines())
    assert code == (0 if all_pass else 1)


def test_duality_ladder_matches_golden_reports():
    """The six duality-ladder scripts, run through parse_session/execute in
    one session, reproduce the reports recorded in benchmark/golden/ladder.json
    (read, never written)."""
    import os

    golden = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "golden", "ladder.json")
    with open(golden, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert len(expected) == 6
    session = Session()
    for name, reports in sorted(expected.items()):
        script = "\n".join(report["command"] for report in reports)
        got = [execute(session, stmt).to_dict() for stmt in parse_session(script)]
        assert got == reports, name
