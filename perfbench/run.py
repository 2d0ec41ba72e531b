"""The reesloop benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rees_heavy, small_many, negative_fail, corpus_w2 (see
BENCHMARK.json for why each was chosen).  Each is a closed loop: one caller
waits for every verdict before it starts the next.  With ``--trace 0`` the
run reports the end-to-end metrics with tracing off; with ``--trace 1`` it
traces the same draw from outside the program, reruns it untraced, and
reports the per-layer metrics.  End-to-end times are scaled to a reference
host speed measured alongside the workload (see calibrate.py), so that the
host's drift does not show in them.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line before it is
the run's record (provenance, probes, failures), also written to
perfbench/out/.  Exits 2 without a result when reesloop cannot be imported
from this checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import SpeedMeter
from spans import Tracer
from workloads import HERE, ROOT, SRC, WORKLOADS, closed_loop, percentile_ms

OUT = HERE / "out"

# Per-layer metrics: (layer group, statistic); "calls" and "self_s" come
# from the loop phase of the traced run.
LAYER_STATS = (
    ("language.determinize", ("calls", "self_s")),
    ("language.minimize", ("calls", "self_s")),
    ("language.shortest_separator", ("calls", "self_s")),
    ("language.construct", ("calls", "self_s")),
    ("language.quotient", ("calls", "self_s")),
    ("language.other", ("self_s",)),
    ("transduce.apply", ("calls", "self_s")),
    ("transduce.build_rees_transducer", ("self_s",)),
    ("transduce.other", ("self_s",)),
    ("loops", ("calls", "self_s")),
    ("semigroup.rees_matrix", ("calls", "self_s")),
    ("semigroup.rees_quotient", ("self_s",)),
    ("semigroup.other", ("self_s",)),
    ("theorems.verify", ("calls", "self_s")),
    ("cli.run_job", ("self_s",)),
)
SETUP_GROUPS = ("semigroup.enumerate_semigroups", "cli.iter_instances")

# Kernel samples before each set-up: a set-up may last seconds, too long
# for its neighbours' samples to tell its speed.
SPARSE_SAMPLES = 5


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "reesloop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_commit": _git_commit(),
            "source_sha256": _source_sha256()}


def _setups(wl, seed: int, size: int, meter: SpeedMeter):
    """Set up ``wl.setup_reps`` times; return the last set-up and the
    median set-up seconds, raw and scaled to the reference speed."""
    raw, stretches = [], []
    rl = items = None
    for _ in range(wl.setup_reps):
        rl = items = None  # release the previous set-up before the next
        gc.collect()
        meter.begin(SPARSE_SAMPLES)
        t0 = time.perf_counter()
        rl = workloads.import_reesloop()
        items = wl.draw(rl, seed, size)
        dt = time.perf_counter() - t0
        raw.append(dt)
        stretches.append(meter.stretch(dt))
    return (rl, items, statistics.median(raw),
            statistics.median(map(meter.scaled, stretches)))


def _end_to_end_metrics(verdicts: int, wall: float, lat: list[float], setup_s: float,
                        peak_kb: int, record: dict) -> dict:
    if len(lat) >= 1000:
        record["instance_p99_ms"] = percentile_ms(lat, 99)
    return {"verdicts_per_s": (verdicts / wall, "1/s"), "wall_s": (wall, "s"),
            "instance_p50_ms": (percentile_ms(lat, 50), "ms"),
            "instance_p90_ms": (percentile_ms(lat, 90), "ms"),
            "setup_s": (setup_s, "s"), "peak_rss_mb": (peak_kb / 1024, "MB")}


def run_end_to_end(wl, args, record) -> tuple[int, int, list[str], dict]:
    """Returns (attempted, failed, failure messages, metrics)."""
    size = wl.draw_size(args.seconds)
    rl, items, raw_setup_s, setup_s = _setups(wl, args.seed, size, SpeedMeter())
    record["raw_setup_s"] = raw_setup_s
    gc.collect()
    if isinstance(wl, workloads.CorpusW2):
        return _corpus_end_to_end(wl, args, record, items, setup_s)
    meter = SpeedMeter()
    lines, lat, wall, errors = closed_loop(wl, rl, items, meter=meter)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bad = wl.check(rl, items, lines)
    record.update(instances=len(items), distinct_instances=len({id(i) for i in items}),
                  strata=len({i.stratum for i in items}), errors=errors[:3],
                  speed=meter.record())
    metrics = _end_to_end_metrics(len(items), wall, lat, setup_s, peak_kb, record)
    return len(items), len(bad), bad, metrics


def _corpus_end_to_end(wl, args, record, items, setup_s):
    """Corpus runs, each scaled by its workers' own kernel samples: they
    time the kernel while both workers run, as the corpus does."""
    reps = wl.draw_size(args.seconds)
    walls, raw_walls, lat, bad = [], [], [], []
    failed = 0
    for _ in range(reps):
        wall, stdout, run_lat, code, scale = wl.invoke(args.seed)
        raw_walls.append(wall)
        walls.append(wall * scale)
        lat.extend(run_lat)
        wrong = wl.compare(stdout)
        if wrong or code != 0:
            failed += max(wrong, 1)
            bad.append(f"exit {code}, {wrong} RESULT lines differ from the reference")
        if len(run_lat) != len(items):
            failed += 1
            bad.append(f"{len(run_lat)} job timings for {len(items)} instances")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record.update(instances=len(items), corpus_runs=reps, corpus_walls_s=walls,
                  raw_corpus_walls_s=raw_walls, command=wl.command(args.seed)[1:])
    metrics = _end_to_end_metrics(len(items), statistics.median(walls), lat, setup_s,
                                  peak_kb, record)
    return reps * len(items), min(failed, reps * len(items)), bad, metrics


def run_traced(wl, args, record) -> tuple[int, int, list[str], dict]:
    size = wl.draw_size(args.seconds)
    rl = workloads.import_reesloop()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("setup") as setup:
            items = wl.draw(rl, args.seed, size)
        gc.collect()
        with tracer.phase("loop") as loop:
            lines, _lat, traced_wall, errors = closed_loop(wl, rl, items, tracer,
                                                           SpeedMeter())
    finally:
        tracer.uninstall()
    gc.collect()
    plain_lines, plain_lat, plain_wall, _ = closed_loop(wl, rl, items, meter=SpeedMeter())
    bad = wl.check(rl, items, lines)
    bad += [f"traced {a!r} != untraced {b!r}" for a, b in zip(lines, plain_lines) if a != b]

    groups = tracer.per_group(loop)
    setup_groups = tracer.per_group(setup)
    self_sum = sum(tracer.self_times(loop.lo, loop.hi))
    if self_sum > loop.wall:
        bad.append(f"summed self time {self_sum} exceeds traced wall {loop.wall}")
    metrics = {}
    for group, stats in LAYER_STATS:
        for stat in stats:
            value = groups.get(group, {}).get(stat, 0 if stat == "calls" else 0.0)
            metrics[f"{group}.{stat}"] = (value, "count" if stat == "calls" else "s")
    for name, value in loop.counts.items():
        metrics[name] = (value, "count")
    states_in = loop.counts["language.minimize.states_in"]
    metrics["language.minimize.kept_ratio"] = (
        loop.counts["language.minimize.states_out"] / states_in if states_in else 0.0, "ratio")
    for group in SETUP_GROUPS:
        metrics[f"{group}.s"] = (setup_groups.get(group, {}).get("incl_s", 0.0), "s")

    efficiency = 0.0
    if isinstance(wl, workloads.CorpusW2):
        walls = []
        for _ in range(size):
            wall, stdout, _run_lat, code, scale = wl.invoke(args.seed)
            walls.append(wall * scale)
            if wl.compare(stdout) or code != 0:
                bad.append(f"corpus run exit {code} differs from the reference")
        efficiency = sum(plain_lat) / (int(workloads.CORPUS_WORKERS) * statistics.median(walls))
        record["corpus_walls_s"] = walls
    metrics["cli.pool.efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.wall_s"] = (loop.wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.spans"] = (loop.hi - loop.lo, "count")

    record.update(instances=len(items), distinct_instances=len({id(i) for i in items}),
                  trace_overhead_s=traced_wall - plain_wall, untraced_wall_s=plain_wall,
                  errors=errors[:3], slowest_instances=[
                      dict(rec, iid=items[rec["instance"]].iid)
                      for rec in tracer.slowest_instances(loop)],
                  functions=tracer.per_function(loop),
                  setup_functions=tracer.per_function(setup))
    return len(items), min(len(bad), len(items)), bad, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.import_reesloop()
    except ImportError as exc:
        print(f"perfbench: cannot import reesloop from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    record = provenance(args)
    run = run_traced if args.trace else run_end_to_end
    attempted, failed, bad, metrics = run(wl, args, record)

    rl = workloads.import_reesloop()
    probe_counts = workloads.probes(rl)
    wrong_probes = {k: v for k, v in probe_counts.items() if v != workloads.PROBE_EXPECTED[k]}
    if args.trace:
        metrics.update({k: (v, "count") for k, v in probe_counts.items()})
    record.update(probes=probe_counts, wrong_probes=wrong_probes, attempted=attempted,
                  failed=failed, error_rate=failed / attempted, failures=bad[:10])
    result = {"correct": failed == 0 and not wrong_probes, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("functions", "setup_functions")}
    print(json.dumps({"record": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
