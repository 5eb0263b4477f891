"""Command line front end: run session scripts, run the acceptance corpus."""

import argparse
import json
import sys

from .config import config
from .errors import ParseError
from .selftest import run_corpus
from .session import Session, execute, parse_session


def _emit(report_dict, as_json, out):
    if as_json:
        out.write(json.dumps(report_dict, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if report_dict["status"] == "ok":
        payload = report_dict.get("payload")
        out.write("ok    %s -> %s\n" % (report_dict["command"], json.dumps(payload, sort_keys=True)))
    else:
        out.write(
            "error %s -> %s: %s\n"
            % (report_dict["command"], report_dict["error_kind"], report_dict["message"])
        )


def cmd_run(args, out=None):
    if out is None:
        out = sys.stdout
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        out.write("error: cannot read %s: %s\n" % (args.file, exc))
        return 2
    try:
        statements = parse_session(text)
    except ParseError as exc:
        _emit(
            {"command": args.file, "status": "error", "error_kind": "ParseError", "message": str(exc)},
            args.json,
            out,
        )
        return 2
    session = Session()
    # after Session(), which restores the default budgets
    config.override(args.budget_degree, args.size_cap)
    failed = False
    for stmt in statements:
        report = execute(session, stmt).to_dict()
        _emit(report, args.json, out)
        # an error, or a check that did not certify
        failed |= report["status"] == "error" or (stmt[0] == "check" and report["payload"] == {"certified": False})
    return 1 if failed else 0


def cmd_selftest(args, out=None):
    if out is None:
        out = sys.stdout
    all_passed = True
    rows = []
    for crit, name, passed, payload, note in run_corpus():
        all_passed = all_passed and passed
        rows.append((crit, name, passed, payload, note))
        if args.json:
            record = {
                "criterion": crit,
                "name": name,
                "status": "pass" if passed else "fail",
                "payload": payload,
            }
            if note:
                record["note"] = note
            out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    if not args.json:
        width = max(len(name) for _c, name, _p, _pl, _n in rows)
        out.write("criterion  %-*s  result\n" % (width, "clause"))
        out.write("-" * (13 + width + 8) + "\n")
        for crit, name, passed, _payload, note in rows:
            line = "%-9s  %-*s  %s" % (crit, width, name, "pass" if passed else "FAIL")
            if note:
                line += "   [%s]" % note
            out.write(line + "\n")
        out.write(
            "%d/%d clauses passed\n" % (sum(1 for r in rows if r[2]), len(rows))
        )
    return 0 if all_passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fpdual",
        description="Dualizing complexes, Frobenius pushforwards and the shriek tensor product over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a session script")
    run_p.add_argument("file", help="the .session script")
    run_p.add_argument("--json", action="store_true", help="one JSON object per report line")
    run_p.add_argument("--budget-degree", type=int, default=None)
    run_p.add_argument("--size-cap", type=int, default=None)
    st_p = sub.add_parser("selftest", help="run the built-in acceptance corpus")
    st_p.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "selftest":
        return cmd_selftest(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
