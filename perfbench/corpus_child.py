"""Run the reesloop command line with each harness instance's service time
reported on stderr as ``perfbench-job <pid> <seconds>``; stdout is
untouched.  Each worker also times the calibration kernel when it starts
and after every ``SAMPLE_EVERY_S`` of jobs, reported as ``perfbench-speed
<pid> <seconds>``, so that its service times can be scaled by its own
speed (``calibrate.scale_worker_stream``).

Usage: PYTHONPATH=src python3 perfbench/corpus_child.py corpus [options]

``cli.run_job`` is replaced under its own module and name, so the process
pool pickles the timed version and forked workers run it.
"""

import os
import sys
import time

import calibrate
from reesloop import cli

SAMPLE_EVERY_S = 0.1

_run_job = cli.run_job
_unsampled_s = None  # job seconds since this process last timed the kernel


def _report_speed():
    global _unsampled_s
    sys.stderr.write(f"perfbench-speed {os.getpid()} {calibrate.sample()!r}\n")
    _unsampled_s = 0.0


def run_job(item):
    global _unsampled_s
    if _unsampled_s is None:
        _report_speed()
    t0 = time.perf_counter()
    out = _run_job(item)
    dt = time.perf_counter() - t0
    sys.stderr.write(f"perfbench-job {os.getpid()} {dt!r}\n")
    _unsampled_s += dt
    if _unsampled_s >= SAMPLE_EVERY_S:
        _report_speed()
    return out


run_job.__module__ = cli.__name__
run_job.__qualname__ = _run_job.__qualname__

if __name__ == "__main__":
    cli.run_job = run_job
    sys.exit(cli.main(sys.argv[1:]))
