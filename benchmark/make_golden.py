"""Write the known answers of the corpus and duality_ladder workloads.

    PYTHONPATH=src python3 benchmark/make_golden.py

The committed files were written on the commit that introduced the
benchmark.  Rewriting them on a later commit would make the benchmark
accept whatever that commit answers; do it only for a deliberate,
reviewed change of an answer.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from checks import GOLDEN  # noqa: E402


def main():
    from fpduality.session import Session, execute, parse_session

    runs = workloads.prepare_part("corpus", {"order": list(range(workloads.CORPUS_SIZE))})
    with open(os.path.join(GOLDEN, "selftest.jsonl"), "w", encoding="utf-8") as fh:
        for _kind, run, finish in runs:
            fh.write(finish(run()) + "\n")
    ladder = {}
    for index, (name, _ring) in enumerate(workloads.LADDER):
        session = Session()
        ladder[name] = [execute(session, stmt).to_dict() for stmt in parse_session(workloads.ladder_script(index))]
    with open(os.path.join(GOLDEN, "ladder.json"), "w", encoding="utf-8") as fh:
        json.dump(ladder, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
