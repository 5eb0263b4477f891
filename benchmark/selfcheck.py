"""The benchmark's own tests.

    python3 benchmark/selfcheck.py

1. The same seed gives byte-identical inputs, and another seed other ones.
2. Two traced passes of the same workload and seed give identical counts.
3. The checks bite: a perturbed known answer is counted as a failure,
   while the unperturbed answers, the red Nakayama clause included, pass.

Takes about half a minute; exits non-zero on the first failed test.
"""

import json
import sys

from run import run_pass
import workloads
from checks import Checker


def test_inputs_are_seeded():
    for workload in list(workloads.WORKLOADS) + list(workloads.PARTS):
        first = json.dumps(workloads.make_inputs(workload, 7), sort_keys=True)
        again = json.dumps(workloads.make_inputs(workload, 7), sort_keys=True)
        other = json.dumps(workloads.make_inputs(workload, 8), sort_keys=True)
        assert first == again, workload
        assert first != other, workload


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        layers = run_pass("engine", 3, True)["layers"]
        counts.append({k: v for k, v in layers.items() if not k.endswith("_s")})
    assert counts[0] == counts[1], "traced counts differ between two runs"
    assert counts[0]["polyring.pow.calls"] > 0


def _perturbed(expected, index, value):
    out = list(expected)
    out[index] = value
    return out


def test_perturbed_answer_fails():
    result = run_pass("cli", 1, False)
    checker = Checker("cli", workloads.make_inputs("cli", 1))
    assert checker.failures(result) == [], "the seed's own answers must pass, the red clause included"
    red = [i for i, line in enumerate(checker.expected) if isinstance(line, str) and '"status":"fail"' in line]
    assert len(red) == 1 and '"computed":1' in checker.expected[red[0]]
    # one byte of one record: the computed Nakayama count 1 -> 2
    checker.expected = _perturbed(checker.expected, red[0], checker.expected[red[0]].replace('"computed":1', '"computed":2'))
    assert checker.failures(result) == [red[0]]

    result = run_pass("engine", 1, False)
    checker = Checker("engine", workloads.make_inputs("engine", 1))
    assert checker.failures(result) == []
    k = result["kinds"].index("bracket_power")
    p = checker.inputs["tower"]["ops"][0]["p"]
    gens = json.loads(json.dumps(checker.expected[k]))
    gens[0][0][1] = gens[0][0][1] % p + 1
    checker.expected = _perturbed(checker.expected, k, gens)
    assert checker.failures(result) == [k]


def main():
    for test in (test_inputs_are_seeded, test_traced_counts_repeat, test_perturbed_answer_fails):
        test()
        print("ok  %s" % test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
