"""The benchmark's workloads: seeded, stratified draws of verifier
instances, the closed loop that runs them one at a time, the checks of
every verdict against a reference the language engine did not produce, and
the exact-count probes."""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calibrate
import oracle
from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

DEFAULT_BASES = ("trivial", "c2", "c3")
CORPUS_ARGS = ("corpus", "--jmax", "1")  # the corpus_w2 command, before --seed
CORPUS_WORKERS = "2"


def import_reesloop() -> SimpleNamespace:
    """A fresh import of reesloop from this checkout's src/.  Earlier
    imports are dropped first, so every set-up pays for its imports."""
    for name in [n for n in sys.modules if n == "reesloop" or n.startswith("reesloop.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("reesloop")
    if Path(pkg.__file__).resolve().parent != SRC / "reesloop":
        raise ImportError(f"reesloop imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"reesloop.{m}") for m in MODULES})


@dataclass(frozen=True)
class Item:
    iid: str
    stratum: tuple
    payload: tuple


def stratified_draw(pool: list[Item], size: int, rng: random.Random) -> list[Item]:
    """``size`` items drawn with the same count from every stratum on every
    seed: quotas proportional to stratum size, rounded by largest remainder.
    A stratum whose quota exceeds its size is drawn in repeated seeded
    passes.  The result is shuffled."""
    strata: dict[tuple, list[Item]] = {}
    for item in pool:
        strata.setdefault(item.stratum, []).append(item)
    keys = list(strata)
    quota = {k: size * len(strata[k]) / len(pool) for k in keys}
    count = {k: int(quota[k]) for k in keys}
    by_remainder = sorted(range(len(keys)), key=lambda i: (count[keys[i]] - quota[keys[i]], i))
    for i in by_remainder[:size - sum(count.values())]:
        count[keys[i]] += 1
    drawn: list[Item] = []
    for k in keys:
        need = count[k]
        while need > 0:
            batch = rng.sample(strata[k], min(need, len(strata[k])))
            drawn.extend(batch)
            need -= len(batch)
    rng.shuffle(drawn)
    return drawn


class Workload:
    name = ""
    setup_reps = 3       # set-ups per run; setup_s is their median
    rate = 1.0           # instances per second on a 2-vCPU 2.1 GHz VM, Python 3.11
    min_instances = 100  # so that p90 has at least ten samples beyond it

    def draw_size(self, seconds: float) -> int:
        return max(self.min_instances, round(self.rate * seconds))

    def pool(self, rl, seed: int) -> list[Item]:
        raise NotImplementedError

    def draw(self, rl, seed: int, size: int) -> list[Item]:
        return stratified_draw(self.pool(rl, seed), size, random.Random(seed))

    def run(self, rl, item: Item) -> str:
        """Decide one instance and return its RESULT line."""
        raise NotImplementedError

    def check(self, rl, items: list[Item], lines: list[str]) -> list[str]:
        """One message per instance whose verdict is wrong."""
        raise NotImplementedError


class CorpusDraw(Workload):
    """Instances of ``cli.iter_instances``, run through ``cli.run_job``.
    Every theorem holds, so the reference verdict is PASS throughout."""

    tags: tuple[str, ...] = ()
    max_order = 3

    def stratum(self, rl, tag: str, iid: str, cache: dict) -> tuple:
        raise NotImplementedError

    def pool(self, rl, seed):
        cache: dict = {}
        out = []
        for tag in self.tags:
            bases = rl.cli.DEFAULT_BASES.get(tag, DEFAULT_BASES)
            for iid, job in rl.cli.iter_instances(tag, max_order=self.max_order,
                                                  bases=bases, seed=seed):
                out.append(Item(iid, (tag,) + self.stratum(rl, tag, iid, cache),
                                (tag, job)))
        return out

    def run(self, rl, item):
        return rl.cli.run_job((item.iid, item.payload[1]))[2]

    def check(self, rl, items, lines):
        return [f"{line!r} != {want!r}" for item, line in zip(items, lines)
                if line != (want := f"RESULT {item.payload[0]} {item.iid} PASS")]


def _normalizable(g, rows) -> bool:
    """Whether P[j][i] = a_j b_i on every nonzero entry for some a, b in the
    group g: such sandwich matrices give far smaller Rees products."""
    ni, nj = len(rows[0]), len(rows)
    firsts = [g.identity] if g.identity is not None else range(g.order)
    for a0 in firsts:
        for rest in itertools.product(range(g.order), repeat=nj - 1 + ni):
            a, b = (a0,) + rest[:nj - 1], rest[nj - 1:]
            if all(v is None or g.mul(a[j], b[i]) == v
                   for j, row in enumerate(rows) for i, v in enumerate(row)):
                return True
    return False


class ReesHeavy(CorpusDraw):
    name = "rees_heavy"
    tags = ("semitorees", "semitoreeszero", "czeros")
    setup_reps = 25  # set-up is under 0.1 s here; many repeats steady its median
    rate = 4.5

    def stratum(self, rl, tag, iid, cache):
        """Base, I x J, where the zero entries of P sit and whether P
        normalizes: instances of one class determinize (nearly) the same
        number of subsets, so every seed draws the same work."""
        parts = iid.split(":")
        if len(parts) < 3:
            return (iid,)
        base, size, p_text = parts[0], parts[1], parts[2][len("P="):]
        if base not in cache:
            cache[base] = rl.semigroup.NAMED_SEMIGROUPS[base]()
        g = cache[base]
        rows = [[None if tok == "0" else g.index(tok) for tok in row.split(",")]
                for row in p_text.split(";")]
        zeros = (tuple(sorted(sum(v is None for v in row) for row in rows)),
                 tuple(sorted(sum(row[i] is None for row in rows) for i in range(len(rows[0])))))
        return (base, size, zeros, _normalizable(g, rows))


class SmallMany(CorpusDraw):
    name = "small_many"
    tags = ("rees-quotient", "subsemigroup", "adjoin-zero", "remove-zero")
    max_order = 4
    rate = 600.0

    def stratum(self, rl, tag, iid, cache):
        return (iid.split("i", 1)[0],)  # the order, "n1" .. "n4"


class NegativeFail(Workload):
    """Order <= 4 subsemigroups that are not weakly pseudo-right-unitary, run
    through the intersection verifier without its hypothesis.  The
    reference is the committed list of FAIL instances, which the oracle
    derived and which it re-certifies separator by separator."""

    name = "negative_fail"
    rate = 1100.0
    max_order = 4

    def __init__(self, reference: dict | None = None):
        ref = reference or json.loads((DATA / "negative_fail.json").read_text())
        self.pool_size = ref["pool_size"]
        self.fails = frozenset(ref["fail"])

    @classmethod
    def pairs(cls, rl):
        """(order, instance id, payload) for every pair, in a fixed order."""
        sg = rl.semigroup
        for n in range(1, cls.max_order + 1):
            for k, s in enumerate(sg.enumerate_semigroups(n)):
                tau = sg.full_generator_map(s)
                for r in range(1, n + 1):
                    for sub in itertools.combinations(range(n), r):
                        tset = frozenset(sub)
                        if not sg.is_subsemigroup(s, tset) or sg.is_weakly_pru(s, tset):
                            continue
                        labels = tuple(s.labels[v] for v in sub)
                        yield n, f"n{n}i{k}:T=" + ".".join(labels), (s, tau, tset, labels)

    def pool(self, rl, seed):
        out = [Item(iid, (n, iid in self.fails), payload)
               for n, iid, payload in self.pairs(rl)]
        if len(out) != self.pool_size:
            raise RuntimeError(f"negative pool has {len(out)} pairs, reference {self.pool_size}")
        return out

    def run(self, rl, item):
        s, tau, tset, labels = item.payload
        rep = rl.theorems.verify_subsemigroup_intersection(
            s, tau, tset, labels, require_hypothesis=False)
        return rl.theorems.result_line(rep, item.iid)

    def check(self, rl, items, lines):
        bad = []
        certified: dict[str, bool] = {}
        for item, line in zip(items, lines):
            want = "FAIL" if item.iid in self.fails else "PASS"
            toks = line.split(" ")
            if toks[:3] != ["RESULT", "subsemigroup", item.iid] or toks[3:4] != [want]:
                bad.append(f"{line!r}: expected {want}")
            elif want == "FAIL":
                if item.iid not in certified:
                    s, _tau, tset, _labels = item.payload
                    ok = len(toks) == 5
                    if ok:
                        word = oracle.parse_separator(s.labels, toks[4])
                        ok = oracle.SubsemigroupOracle(s.table, tset).certifies(word)
                    certified[item.iid] = ok
                if not certified[item.iid]:
                    bad.append(f"{line!r}: separator rejected by the oracle")
        return bad


class CorpusW2(Workload):
    """The real ``reesloop corpus`` command as a subprocess with two pool
    workers, repeated; its stdout must match the committed stream byte for
    byte.  In-process, the same instances serve set-up and tracing."""

    name = "corpus_w2"
    setup_reps = 25    # as for rees_heavy, set-up is under 0.1 s
    rate = 1.0         # corpus runs per second; draw_size counts corpus runs
    min_instances = 3  # corpus runs, so that the median wall has company

    def __init__(self, reference: bytes | None = None):
        if reference is None:
            reference = (DATA / "corpus_w2.stdout").read_bytes()
        self.reference = reference

    def pool(self, rl, seed):
        """The instances ``cmd_corpus`` builds for the corpus_w2 command."""
        out = []
        cli = rl.cli
        args = cli.build_parser().parse_args([*CORPUS_ARGS, "--seed", str(seed)])
        for tag in cli.VERIFY_TAGS:
            bases = cli.DEFAULT_BASES.get(tag, DEFAULT_BASES)
            items = cli.iter_instances(tag, max_order=args.max_order, bases=bases,
                                       imax=args.imax, jmax=args.jmax, seed=args.seed)
            for iid, job in sorted(items, key=lambda kv: kv[0]):
                out.append(Item(iid, (tag,), (tag, job)))
        return out

    def draw(self, rl, seed, size):
        return self.pool(rl, seed)

    def run(self, rl, item):
        return rl.cli.run_job((item.iid, item.payload[1]))[2]

    def check(self, rl, items, lines):
        want = self.reference.decode().splitlines()[:-1]
        if len(want) != len(lines):
            return [f"{len(lines)} RESULT lines, reference has {len(want)}"]
        return [f"{got!r} != {ref!r}" for got, ref in zip(lines, want) if got != ref]

    def command(self, seed: int) -> list[str]:
        return [sys.executable, str(HERE / "corpus_child.py"), *CORPUS_ARGS,
                "--seed", str(seed)]

    def invoke(self, seed: int) -> tuple[float, bytes, list[float], int, float]:
        """One corpus run: wall seconds, stdout, per-instance service times
        reported by the workers and scaled by each worker's own kernel
        samples, exit code, and the run's scale from all those samples."""
        env = dict(os.environ, PYTHONPATH=str(SRC), REES_LOOP_WORKERS=CORPUS_WORKERS)
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(seed), cwd=ROOT, env=env,
                              capture_output=True, timeout=150)
        wall = time.perf_counter() - t0
        lat, scale = calibrate.scale_worker_stream(
            [ln for ln in proc.stderr.decode().splitlines() if ln.startswith("perfbench-")])
        return wall, proc.stdout, lat, proc.returncode, scale

    def compare(self, stdout: bytes) -> int:
        """Number of RESULT lines that differ from the reference stream."""
        if stdout == self.reference:
            return 0
        got, want = stdout.decode().splitlines(), self.reference.decode().splitlines()
        return max(1, sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want)))


WORKLOADS = {w.name: w for w in (ReesHeavy, SmallMany, NegativeFail, CorpusW2)}


# -- the closed loop -------------------------------------------------------

CHUNK_S = 0.05  # seconds of instances between two samples of a SpeedMeter


def closed_loop(workload: Workload, rl, items: list[Item], tracer=None, meter=None):
    """Decide each instance in turn.  Returns the RESULT lines (an ERROR
    line for an instance that raised), per-instance seconds, loop wall
    seconds and the tracebacks of the instances that raised.  With a
    ``meter``, the meter samples host speed after every ``CHUNK_S`` of
    instances, and the seconds returned are scaled to the reference speed,
    the meter's samples left out."""
    lines: list[str] = []
    lat: list[float] = []
    errors: list[str] = []
    perf = time.perf_counter
    chunks: list[tuple[int, int, int]] = []  # (first instance, stretch, end)
    chunk_lo = 0
    if meter is not None:
        meter.begin()
    t_start = t_chunk = perf()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.current_instance = k
        t0 = perf()
        try:
            line = workload.run(rl, item)
        except Exception as exc:  # a crashing instance is a failure, not a lost run
            line = f"ERROR {item.iid} {type(exc).__name__}"
            errors.append(traceback.format_exc())
        t1 = perf()
        lat.append(t1 - t0)
        lines.append(line)
        if meter is not None and (t1 - t_chunk >= CHUNK_S or k + 1 == len(items)):
            chunks.append((chunk_lo, meter.stretch(t1 - t_chunk), k + 1))
            chunk_lo = k + 1
            t_chunk = perf()
    if meter is None:
        return lines, lat, perf() - t_start, errors
    wall = 0.0
    for lo, stretch, hi in chunks:
        scale = meter.scale(stretch)
        wall += meter.scaled(stretch)
        lat[lo:hi] = [x * scale for x in lat[lo:hi]]
    return lines, lat, wall, errors


def percentile_ms(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e3


# -- exact-count probes ----------------------------------------------------

PROBE_EXPECTED = {
    "probe.c3_I2J2.image_states": 357,
    "probe.c3_I2J2.star_states": 358,
    "probe.c3_I2J2.subsets": 1969,
    "probe.c3_I2J2.minimal_states": 132,
    "probe.enumerate.order1": 1,
    "probe.enumerate.order2": 8,
    "probe.enumerate.order3": 113,
    "probe.enumerate.order4": 3492,
}


def probes(rl) -> dict[str, int]:
    """Counts that must repeat exactly: the rhs star(image) of the
    semitorees instance c3 I=J=2, P = g2,g2;g,e, and the labelled semigroup
    counts of orders 1 to 4."""
    sg = rl.semigroup
    c3 = sg.NAMED_SEMIGROUPS["c3"]()
    gmap = sg.full_generator_map(c3)
    p = sg.sandwich([[c3.index(x) for x in row] for row in (("g2", "g2"), ("g", "e"))])
    m, rs = sg.rees_matrix(c3, 2, 2, p, with_zero=False)
    trans = rl.transduce.build_rees_transducer(gmap, rs, sg.full_generator_map(m))
    image = rl.transduce.apply(trans, rl.loops.loop_problem(gmap))
    rhs = rl.language.star(image)
    dfa = rl.language.determinize(rhs)
    out = {
        "probe.c3_I2J2.image_states": image.n_states,
        "probe.c3_I2J2.star_states": rhs.n_states,
        "probe.c3_I2J2.subsets": dfa.n_states,
        "probe.c3_I2J2.minimal_states": rl.language.minimize(dfa).n_states,
    }
    for n in range(1, 5):
        out[f"probe.enumerate.order{n}"] = sum(1 for _ in sg.enumerate_semigroups(n))
    return out
