"""Run one pass of a workload in this fresh interpreter and print its
result as one JSON line.

    python3 benchmark/worker.py <workload> <seed> <trace 0|1>

`run.py` starts one of these per pass, with `src/` on the
path.  Only the calls into the library are timed; preparing inputs,
serializing outputs and checking them happen outside that region.
Calibration samples (calibrate.py) are taken between operations, at
least every CALIBRATE_EVERY_S of operation time, and each operation's
time is also given at the reference speed.  The pass and its calibration
process stay on the CPU the pass started on.
"""

import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_BUDGETS = [60, 4096]
# seconds of operations between two calibration samples
CALIBRATE_EVERY_S = 0.2


def _budgets():
    from fpduality.config import config

    return [config.degree_budget, config.size_cap]


def _timed(ops, calibrator, results, errors):
    """Run the operations in order, with calibration samples between them.

    Returns each operation's time, the samples, and each operation's
    segment: samples[k] and samples[k + 1] bracket the operations of
    segment k, which are scaled by the median of samples k-1 to k+2, so
    that one disturbed sample does not skew them."""
    clock = time.perf_counter
    latencies, samples, segments, since = [], [calibrator.sample()], [], 0.0
    for n, (_part, _kind, run, _finish) in enumerate(ops):
        t0 = clock()
        try:
            result, error = run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(clock() - t0)
        results.append(result)
        errors.append(error)
        segments.append(len(samples) - 1)
        since += latencies[-1]
        if since >= CALIBRATE_EVERY_S or n == len(ops) - 1:
            samples.append(calibrator.sample())
            since = 0.0
    return latencies, samples, segments


def run_pass(workload, seed, trace):
    inputs = workloads.make_inputs(workload, seed)
    budgets_start = _budgets()
    tracer = None
    if trace:
        # installed before prepare() so that the names it binds are the
        # traced ones; what preparing the inputs calls is then cleared
        tracer = Tracer()
        tracer.install()
    ops = workloads.prepare(workload, inputs)
    if tracer:
        tracer.clear()
    results, errors = [], []
    calibrate.pin_to_this_cpu()
    with calibrate.Calibrator() as calibrator:
        latencies, samples, segments = _timed(ops, calibrator, results, errors)
    scale = [calibrate.REFERENCE_S / statistics.median(samples[max(k - 1, 0):k + 3]) for k in range(len(samples) - 1)]
    ref_latencies = [t * scale[k] for t, k in zip(latencies, segments)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer:
        layers = tracer.metrics()
        tracer.uninstall()
    outputs = []
    for k, ((_part, _kind, _run, finish), result) in enumerate(zip(ops, results)):
        if errors[k] is None:
            try:
                outputs.append(finish(result))
                continue
            except Exception as exc:  # an unreadable result is a wrong answer
                errors[k] = "unreadable result: %s: %s" % (type(exc).__name__, exc)
        outputs.append(None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "parts": [part for part, _kind, _run, _finish in ops],
        "kinds": [kind for _part, kind, _run, _finish in ops],
        "latencies_s": latencies,
        "ref_latencies_s": ref_latencies,
        "wall_s": sum(latencies),
        "wall_ref_s": sum(ref_latencies),
        "calibration_s": samples,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "errors": errors,
        "budgets_ok": budgets_start == DEFAULT_BUDGETS and _budgets() == DEFAULT_BUDGETS,
        "layers": layers,
    }


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.stdout.write(json.dumps(run_pass(workload, seed, trace)) + "\n")
