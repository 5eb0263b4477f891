"""The fpduality benchmark: one workload, timed end to end or traced.

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each pass runs in a fresh interpreter (worker.py), one at a time,
until the next pass would overrun --seconds (at least one pass; with
--trace 1 at least one untraced and one traced pass, alternating).  All
passes of a run use the inputs of --seed.  Every output is then checked
against its known answer (checks.py).  Pass and operation times are
reported at the reference speed (calibrate.py); the raw times are printed
beside them.

Human-readable lines go first; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402

SETUP_SAMPLES = 3
# passes must end this long after the run starts, leaving time for the
# checks within the 180 s a run may take
PASSES_DEADLINE_S = 150


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr[-4000:]))
    return proc.stdout


def setup_sample():
    """Seconds to start a fresh interpreter and import fpduality."""
    t0 = time.perf_counter()
    _run([sys.executable, "-c", "import fpduality"], 60)
    return time.perf_counter() - t0


def setup_samples(calibrator):
    """SETUP_SAMPLES set-up times as (raw, at the reference speed) pairs;
    each is scaled by the calibration samples taken just before and after it."""
    out, before = [], calibrator.sample()
    for _ in range(SETUP_SAMPLES):
        raw = setup_sample()
        after = calibrator.sample()
        out.append((raw, raw * 2 * calibrate.REFERENCE_S / (before + after)))
        before = after
    return out


def run_pass(workload, seed, trace, timeout=PASSES_DEADLINE_S):
    out = _run([sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed), "1" if trace else "0"],
               timeout)
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Passes until the next one would end after `seconds`.

    Set-up is sampled SETUP_SAMPLES times before each pass and after the
    last, so that its median spans the run as the passes do.  Returns the
    passes and the set-up samples (raw, at the reference speed)."""
    setup_sample()  # compiles the bytecode once, as an installed package has it
    passes, durations, setups = [], [], []
    start = time.perf_counter()
    with calibrate.Calibrator() as calibrator:
        while True:
            setups.extend(setup_samples(calibrator))
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append(run_pass(workload, seed, traced, PASSES_DEADLINE_S - (t0 - start)))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            need_traced = trace and not any(p["trace"] for p in passes)
            if not need_traced and elapsed + statistics.median(durations) > seconds:
                setups.extend(setup_samples(calibrator))
                return passes, setups


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it; None below 100 samples, where that is no tail."""
    if len(samples) < 100:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return int(100 * (k + 1) / len(ordered)), ordered[k]


def end_to_end(passes, setup_s):
    """Each metric of a pass, as its median over the passes; op_p50_ref_ms
    is the median over the operations of each one's median over the passes,
    so that one disturbed pass does not move the operation at the median."""
    per_op = [statistics.median(op) for op in zip(*(p["ref_latencies_s"] for p in passes))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "op_p50_ref_ms": (1000 * statistics.median(per_op), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced, traced):
    """Counts from the traced passes (identical in each), times as medians."""
    counts_differ = False
    layers = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name.endswith("_s"):
            layers[name] = statistics.median(values)
        else:
            counts_differ = counts_differ or len(set(values)) > 1
            layers[name] = values[0]
    untraced_wall = statistics.median(p["wall_ref_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_ref_s"] for p in traced)
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return layers, counts_differ


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def environment():
    return "python %s, %s, nproc %d" % (platform.python_version(), platform.machine(), os.cpu_count() or 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + list(workloads.PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "fpduality", "__init__.py")):
        sys.stderr.write("no fpduality sources under %s: run from the root of a checkout\n" % SRC)
        return 2

    # the run, its passes and all their calibration samples share one CPU
    calibrate.pin_to_this_cpu()
    passes, setups = run_passes(args.workload, args.seed, args.seconds, args.trace == 1)
    setup_s = statistics.median(ref for _raw, ref in setups)

    checker = Checker(args.workload, workloads.make_inputs(args.workload, args.seed))
    attempted = failed = 0
    for n, result in enumerate(passes):
        bad = checker.failures(result)
        attempted += len(result["outputs"])
        failed += len(bad)
        for i in bad[:5]:
            print("FAIL pass %d op %d (%s): %s" % (n, i, result["kinds"][i], result["errors"][i] or "wrong answer"))

    untraced = [p for p in passes if not p["trace"]]
    print("workload %s, seed %d, %d passes (%d traced), %d set-up samples; %s"
          % (args.workload, args.seed, len(passes), len(passes) - len(untraced), len(setups), environment()))
    e2e = end_to_end(untraced, setup_s)
    for name, (value, unit) in e2e.items():
        print("%-14s %12.4f %s" % (name, value, unit))
    for part in workloads.parts_of(args.workload):
        part_wall = statistics.median(
            sum(t for t, q in zip(p["ref_latencies_s"], p["parts"]) if q == part) for p in untraced)
        print("  %-14s %10.4f s   (part of wall_ref_s)" % (part, part_wall))
    latencies = [t for p in untraced for t in p["ref_latencies_s"]]
    found = tail(latencies)
    if found:
        print("%-14s %12.4f ms  (p%d of %d operations)" % ("op_tail_ref_ms", 1000 * found[1], found[0], len(latencies)))
    queries = [t for p in untraced for t, k in zip(p["ref_latencies_s"], p["kinds"]) if k == "query"]
    if queries:
        print("%-14s %12.4f ms  (%d queries)" % ("query_p50_ref_ms", 1000 * statistics.median(queries), len(queries)))
    samples = [c for p in untraced for c in p["calibration_s"]]
    print("%-14s %12.4f s   (raw, at this machine's speed)" % ("wall_s", statistics.median(p["wall_s"] for p in untraced)))
    print("%-14s %12.4f s   (raw)" % ("setup_raw_s", statistics.median(raw for raw, _ref in setups)))
    print("%-14s %12.4f ms  (median of %d samples; reference %.4f ms)"
          % ("calibration", 1000 * statistics.median(samples), len(samples), 1000 * calibrate.REFERENCE_S))
    print("%-14s %12.4f      (%d of %d operations)" % ("fail_frac", failed / attempted, failed, attempted))

    if args.trace:
        layers, counts_differ = per_layer(untraced, [p for p in passes if p["trace"]])
        if counts_differ:
            print("FAIL per-layer counts differ between traced passes")
            failed += 1
        print("tracing overhead: %.1f%% of untraced wall time" % (100 * layers["trace.overhead_frac"]))
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
