"""The machine's momentary speed, measured with a fixed reference computation.

On a shared virtual machine identical work drifts in speed by up to a
factor of 2, in phases of 10 to 20 s, so a raw pass time says as much
about the neighbours as about fpduality.  A pass therefore interleaves
calibration samples with its operations.  A sample is a Groebner basis of
a fixed ideal, computed by sympy: pure Python, with the same kind of work
as fpduality (small dicts, tuples, integers mod p), and no part of the
code under test.  An operation's time is then scaled by REFERENCE_S over
the samples taken around it, which gives its time at the reference speed.
run.py scales each set-up sample the same way.

The samples run in a child process, one at a time while the pass waits,
so that neither sympy nor fpduality's heap reaches into the other's time
or memory.

    python3 benchmark/calibrate.py      # serve: one sample per input line
"""

import gc
import os
import subprocess
import sys
import time

# the median time of one sample on the reference machine (2-vCPU Intel Xeon
# VM, Python 3.11.7, sympy 1.14.0); every run prints its own median too
REFERENCE_S = 0.025


def _ideal():
    from sympy import symbols

    x, y, z, w = symbols("x y z w")
    gens = [x**2 + 2*y*z + 3*w**2 + x*y, y**2 + x*z + 5*w*x + 3*z*w, z**2 + x*w + 4*y*w + x*y]
    return gens, (x, y, z, w)


def sample(ideal):
    """Seconds to compute the reference Groebner basis twice (one basis is
    about 12 ms, short enough for one timer tick or interrupt to matter)."""
    from sympy import groebner

    gens, gens_vars = ideal
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            groebner(gens, *gens_vars, modulus=7, order="grevlex")
        return time.perf_counter() - t0
    finally:
        gc.enable()


def pin_to_this_cpu():
    """Keep this process and the ones it starts (which inherit this) on the
    CPU it runs on, so that the samples see the speed the timed work sees."""
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # not Linux: leave the scheduler alone


class Calibrator:
    """The child process that takes the samples; use it as a context manager."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the calibration process did not start")

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    ideal = _ideal()
    for _ in range(5):  # first-call costs
        sample(ideal)
    print("ready", flush=True)
    for _line in sys.stdin:
        print(repr(sample(ideal)), flush=True)


if __name__ == "__main__":
    serve()
