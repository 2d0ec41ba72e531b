"""Host speed, measured alongside the workload.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within a minute, the same for every program on it.  A fixed
kernel, run between chunks of instances, measures that speed as the run
goes: a subset construction on a seeded 60-state NFA, the kind of work
``language.determinize`` does, written here so that no change to reesloop
changes it.  Each timed stretch is scaled by ``REFERENCE_S`` over the mean
of the kernel times measured just before and just after it, which gives
seconds at the reference speed.  Runs report scaled times as their
end-to-end metrics and keep the raw ones in their record.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median kernel seconds on the reference host: a 2-vCPU VM on an Intel
# Xeon, CPython 3.11.
REFERENCE_S = 1.6e-3

_LETTERS = 4
_SUBSETS = 100


def _make_delta(n_states: int = 60, seed: int = 0) -> dict:
    rng = random.Random(seed)
    return {(q, a): frozenset(rng.sample(range(n_states), rng.choice((1, 2, 2, 3))))
            for q in range(n_states) for a in range(_LETTERS)}


_DELTA = _make_delta()


def kernel() -> int:
    """Subset construction from {0} until ``_SUBSETS`` subsets are found;
    returns the number of edges built, which is always the same."""
    start = frozenset((0,))
    seen = {start: 0}
    todo = [start]
    edges = []
    while todo and len(seen) < _SUBSETS:
        cur = todo.pop()
        for a in range(_LETTERS):
            nxt = frozenset().union(*[_DELTA[(q, a)] for q in cur])
            if nxt not in seen:
                seen[nxt] = len(seen)
                todo.append(nxt)
            edges.append((seen[cur], a, seen[nxt]))
    return len(edges)


KERNEL_EDGES = kernel()
WINDOW = 3


def sample() -> float:
    """Time the kernel once, with the collector off so that it does not pay
    for the workload's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    edges = kernel()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    if edges != KERNEL_EDGES:
        raise RuntimeError(f"calibration kernel built {edges} edges, not {KERNEL_EDGES}")
    return dt


def windowed_scale(samples: list[float], before: int) -> float:
    """Reference seconds per measured second for a stretch that follows
    sample ``before``: the reference kernel time over the median of the
    samples within ``WINDOW`` of the stretch."""
    near = samples[max(0, before + 1 - WINDOW):before + 1 + WINDOW]
    return REFERENCE_S / statistics.median(near)


def scale_worker_stream(lines: list[str]) -> tuple[list[float], float]:
    """From the stderr lines of ``corpus_child.py`` (``perfbench-job PID
    SECONDS`` per job, ``perfbench-speed PID SECONDS`` per kernel sample):
    the job seconds at the reference speed, each worker's jobs scaled by its
    own samples, and the scale of the run as a whole, from the median of all
    the workers' samples."""
    samples: dict[str, list[float]] = {}
    jobs: list[tuple[str, int, float]] = []  # (pid, sample before, seconds)
    for line in lines:
        kind, pid, seconds = line.split()
        if kind == "perfbench-speed":
            samples.setdefault(pid, []).append(float(seconds))
        elif kind == "perfbench-job":
            jobs.append((pid, len(samples[pid]) - 1, float(seconds)))
    scaled = [dt * windowed_scale(samples[pid], before) for pid, before, dt in jobs]
    every = [x for xs in samples.values() for x in xs]
    return scaled, REFERENCE_S / statistics.median(every) if every else 1.0


class SpeedMeter:
    """The kernel samples of one run and the timed stretches between them.
    A stretch's scale is the reference kernel time over the median of the
    samples within ``WINDOW`` of it, so that one disturbed sample does not
    mis-scale the stretch next to it."""

    def __init__(self):
        self.samples: list[float] = []
        self.stretches: list[tuple[float, int]] = []  # (raw seconds, sample before)
        self.begin()

    def begin(self, samples: int = 1):
        """Start a stretch: sample the kernel now, ``samples`` times for a
        stretch too long to have neighbours within a second or so."""
        for _ in range(samples):
            self.sample()

    def sample(self) -> float:
        dt = sample()
        self.samples.append(dt)
        return dt

    def stretch(self, raw: float) -> int:
        """End the stretch of ``raw`` seconds that began at the latest
        sample, sample again, and return the stretch's number."""
        self.stretches.append((raw, len(self.samples) - 1))
        self.sample()
        return len(self.stretches) - 1

    def scale(self, k: int) -> float:
        """Stretch ``k``'s scale: reference seconds per measured second."""
        return windowed_scale(self.samples, self.stretches[k][1])

    def scaled(self, k: int) -> float:
        """Stretch ``k``'s seconds at the reference speed."""
        return self.stretches[k][0] * self.scale(k)

    def record(self) -> dict:
        return {"kernel_samples": len(self.samples),
                "kernel_median_ms": statistics.median(self.samples) * 1e3,
                "kernel_min_ms": min(self.samples) * 1e3,
                "kernel_max_ms": max(self.samples) * 1e3,
                "raw_s": sum(raw for raw, _ in self.stretches),
                "scaled_s": sum(map(self.scaled, range(len(self.stretches))))}
