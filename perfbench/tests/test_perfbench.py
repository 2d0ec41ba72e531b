"""Tests of the benchmark itself: draws, tracing, self-time arithmetic,
layer coverage, the oracle and the output contract.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import calibrate
import oracle
import run
import spans
import workloads
from spans import Tracer
from workloads import WORKLOADS, closed_loop, stratified_draw


@pytest.fixture(scope="module")
def rl():
    return workloads.import_reesloop()


def _cheap(pool, count):
    """rees_heavy instances with I = 2, J = 1 (the same code paths, cheap),
    of every tag that has them."""
    return [item for item in pool if ":I2J1:" in item.iid][:count]


def _cheap_rees(rl, count):
    return _cheap(WORKLOADS["rees_heavy"]().pool(rl, seed=0), count)


# -- draws -------------------------------------------------------------------

@pytest.mark.parametrize("name,size", [("rees_heavy", 40), ("negative_fail", 300)])
def test_same_seed_gives_same_draw(rl, name, size):
    wl = WORKLOADS[name]()
    first = wl.draw(rl, 7, size)
    again = wl.draw(rl, 7, size)
    other = wl.draw(rl, 8, size)
    assert [i.iid for i in first] == [i.iid for i in again]
    assert [i.iid for i in first] != [i.iid for i in other]
    assert Counter(i.stratum for i in first) == Counter(i.stratum for i in other)
    assert len(first) == size


def test_stratified_draw_repeats_passes_when_pool_is_short():
    pool = [workloads.Item(str(k), (k % 3,), ()) for k in range(30)]
    drawn = stratified_draw(pool, 75, random.Random(1))
    assert len(drawn) == 75
    assert Counter(i.stratum for i in drawn) == {(0,): 25, (1,): 25, (2,): 25}
    assert max(Counter(i.iid for i in drawn).values()) == 3


def test_small_many_draw_is_seeded(rl):
    pool = WORKLOADS["small_many"]().pool(rl, seed=0)
    assert Counter(i.stratum[0] for i in pool) == {
        "rees-quotient": 13170, "subsemigroup": 26056,
        "adjoin-zero": 3614, "remove-zero": 3614}
    a = stratified_draw(pool, 500, random.Random(5))
    b = stratified_draw(pool, 500, random.Random(5))
    assert [i.iid for i in a] == [i.iid for i in b]


# -- tracing -----------------------------------------------------------------

def test_self_times_on_synthetic_nested_spans():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping, and
    # c [8, 12] running past the root; a has a child [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent, 0, 5)
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])
    # a window starting at a child treats spans before it as outside
    assert spans.self_times(start, end, parent, 1, 5) == pytest.approx([2, 3, 4, 1])


def test_install_rebinds_every_binding_and_uninstall_restores(rl):
    original = rl.language.minimal_dfa
    tracer = Tracer()
    tracer.install()
    try:
        assert rl.theorems.minimal_dfa is rl.language.minimal_dfa
        assert rl.language.minimal_dfa.__wrapped__ is original
        assert rl.theorems.t_apply is rl.transduce.apply
        assert hasattr(rl.transduce.apply, "__wrapped__")
        assert sys.modules["reesloop"].determinize is rl.language.determinize
        with tracer.phase("loop") as loop:
            rl.theorems.verify_adjoin_zero(
                *(lambda s: (s, rl.semigroup.full_generator_map(s)))(
                    rl.semigroup.NAMED_SEMIGROUPS["c2"]()))
        calls = tracer.per_function(loop)
        assert calls["language.minimal_dfa"]["calls"] == 2
        assert calls["language.determinize"]["calls"] >= 2
    finally:
        tracer.uninstall()
    assert rl.language.minimal_dfa is original
    assert rl.theorems.minimal_dfa is original


def _traced(wl, rl, items, setup=None):
    """Trace an optional set-up returning the items, then the closed loop."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("setup") as setup_phase:
            if setup is not None:
                items = setup()
        with tracer.phase("loop") as loop:
            lines = closed_loop(wl, rl, items, tracer)[0]
    finally:
        tracer.uninstall()
    return tracer, setup_phase, loop, items, lines


@pytest.mark.parametrize("name", ["rees_heavy", "negative_fail"])
def test_tracing_on_and_off_give_identical_result_lines(rl, name):
    wl = WORKLOADS[name]()
    items = _cheap_rees(rl, 12) if name == "rees_heavy" else wl.draw(rl, 3, 200)
    plain = closed_loop(wl, rl, items)[0]
    tracer, _setup, loop, _items, traced = _traced(wl, rl, items)
    assert traced == plain
    assert wl.check(rl, items, plain) == []
    self_sum = sum(tracer.self_times(loop.lo, loop.hi))
    assert 0 < self_sum <= loop.wall
    if name == "negative_fail":
        assert any(" FAIL " in line for line in plain)


# Layer groups that must record calls on the workload the metric serves.
SERVES = {
    "rees_heavy": ("language.determinize", "language.minimize",
                   "language.shortest_separator", "language.construct",
                   "language.quotient", "transduce.apply",
                   "transduce.build_rees_transducer", "loops",
                   "semigroup.rees_matrix", "semigroup.rees_quotient",
                   "theorems.verify", "cli.run_job"),
    "small_many": ("language.determinize", "language.construct",
                   "language.quotient", "loops", "semigroup.rees_quotient",
                   "theorems.verify", "cli.run_job"),
    "negative_fail": ("language.shortest_separator", "language.determinize",
                      "theorems.verify"),
}
SETUP_SERVES = {
    "rees_heavy": ("cli.iter_instances",),
    "small_many": ("semigroup.enumerate_semigroups", "cli.iter_instances"),
    "negative_fail": ("semigroup.enumerate_semigroups",),
}


@pytest.mark.parametrize("name", sorted(SERVES))
def test_every_layer_records_calls_on_the_workload_it_serves(rl, name):
    wl = WORKLOADS[name]()
    if name == "rees_heavy":
        def setup():
            pool = wl.pool(rl, 0)
            return _cheap(pool, 200) + [i for i in pool if i.stratum[0] == "czeros"][:2]
    else:
        def setup():
            return wl.draw(rl, 1, 300)
    tracer, setup, loop, _, _ = _traced(wl, rl, None, setup)
    groups = tracer.per_group(loop)
    for group in SERVES[name]:
        assert groups.get(group, {}).get("calls", 0) > 0, group
        assert groups[group]["self_s"] > 0, group
    setup_groups = tracer.per_group(setup)
    for group in SETUP_SERVES[name]:
        assert setup_groups.get(group, {}).get("incl_s", 0) > 0, group
    if name == "negative_fail":
        assert loop.counts["language.shortest_separator.separators"] > 0
    if name == "rees_heavy":
        assert loop.counts["transduce.apply.out_states"] > 0
        assert loop.counts["language.determinize.subsets_out"] > 0
        assert 0 < loop.counts["language.minimize.states_out"] <= loop.counts["language.minimize.states_in"]


# -- host-speed scaling ------------------------------------------------------

def test_speed_meter_scales_each_stretch_by_the_median_of_nearby_samples():
    ref = calibrate.REFERENCE_S
    meter = calibrate.SpeedMeter()
    assert len(meter.samples) == 1
    meter.stretch(1.0)
    meter.begin()
    meter.stretch(2.0)
    # samples 0-1 bound stretch 0 and samples 2-3 stretch 1; both windows
    # reach all four samples, whose median is 3 reference kernel times
    meter.samples[:] = [2 * ref, 2 * ref, 4 * ref, 4 * ref]
    assert meter.scale(0) == meter.scale(1) == pytest.approx(1 / 3)
    record = meter.record()
    assert record["raw_s"] == 3.0
    assert record["scaled_s"] == pytest.approx(1.0)
    # one disturbed sample does not move the scale of the stretch next to it
    samples = [ref] * 5 + [10 * ref] + [ref] * 5
    assert calibrate.windowed_scale(samples, 4) == pytest.approx(1.0)
    # a lasting change of speed does, within a few samples
    samples = [ref] * 6 + [2 * ref] * 6
    assert calibrate.windowed_scale(samples, 1) == pytest.approx(1.0)
    assert calibrate.windowed_scale(samples, 8) == pytest.approx(0.5)
    assert calibrate.kernel() == calibrate.KERNEL_EDGES


def test_worker_stream_scales_each_worker_by_its_own_samples():
    ref = calibrate.REFERENCE_S
    lines = [f"perfbench-speed 7 {2 * ref!r}", f"perfbench-speed 8 {ref / 2!r}",
             "perfbench-job 7 1.0", "perfbench-job 8 1.0", "perfbench-job 7 3.0",
             f"perfbench-speed 7 {2 * ref!r}", "perfbench-job 7 2.0"]
    scaled, run_scale = calibrate.scale_worker_stream(lines)
    assert scaled == pytest.approx([0.5, 2.0, 1.5, 1.0])
    assert run_scale == pytest.approx(0.5)  # median of 2, 0.5 and 2 reference


def test_metered_closed_loop_scales_times_and_keeps_verdicts(rl):
    wl = WORKLOADS["negative_fail"]()
    items = wl.draw(rl, 4, 300)
    meter = calibrate.SpeedMeter()
    lines, lat, wall, _ = closed_loop(wl, rl, items, meter=meter)
    assert lines == closed_loop(wl, rl, items)[0]
    assert len(meter.stretches) >= 2
    assert wall == pytest.approx(meter.record()["scaled_s"])
    assert sum(lat) <= wall
    raw = [raw_s for raw_s, _ in meter.stretches]
    assert sum(raw) == pytest.approx(meter.record()["raw_s"])


# -- oracle and references ---------------------------------------------------

def _first_fail(rl):
    wl = WORKLOADS["negative_fail"]()
    for _n, iid, payload in wl.pairs(rl):
        if iid in wl.fails:
            return wl, iid, payload


def test_oracle_certifies_separator_and_rejects_mutated_one(rl):
    wl, iid, (s, tau, tset, labels) = _first_fail(rl)
    line = wl.run(rl, workloads.Item(iid, (), (s, tau, tset, labels)))
    word = oracle.parse_separator(s.labels, line.split(" ")[4])
    orc = oracle.SubsemigroupOracle(s.table, tset)
    assert orc.certifies(word)
    n = len(s.labels)
    barred = word[0] - n if word[0] >= n else word[0] + n
    mutated = (barred,) + word[1:]
    assert not orc.certifies(mutated)
    mutated_text = ".".join(s.labels[x] if x < n else "~" + s.labels[x - n] for x in mutated)
    assert oracle.parse_separator(s.labels, mutated_text) == mutated
    assert wl.check(rl, [workloads.Item(iid, (), (s, tau, tset, labels))],
                    [line.rsplit(" ", 1)[0] + " " + mutated_text])


def test_oracle_membership_on_cayley_graph():
    # c2 = {e, g}: g.g-bar is a loop at the identity of c2^1, g alone is not
    table = ((0, 1), (1, 0))
    succ = oracle.loop_graph(table, [0, 1])
    assert oracle.accepts(succ, (1, 2 + 1), identity=2)
    assert not oracle.accepts(succ, (1,), identity=2)
    assert oracle.accepts(succ, (), identity=2)


def test_committed_negative_reference_matches_the_oracle(rl):
    wl = WORKLOADS["negative_fail"]()
    pairs = list(wl.pairs(rl))
    assert len(pairs) == wl.pool_size == 7963
    assert len(wl.fails) == 600
    for _n, iid, (s, _tau, tset, _labels) in random.Random(0).sample(pairs, 400):
        length = oracle.SubsemigroupOracle(s.table, tset).shortest_separator_length()
        assert (length is not None) == (iid in wl.fails), iid


def test_committed_corpus_reference_passes_throughout(rl):
    wl = WORKLOADS["corpus_w2"]()
    lines = wl.reference.decode().splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith("RESULT ") and line.endswith(" PASS") for line in lines[:-1])
    assert [wl.run(rl, item) for item in wl.pool(rl, 0)[:50]] == lines[:50]


def test_probes_repeat_exactly(rl):
    assert workloads.probes(rl) == workloads.PROBE_EXPECTED


# -- output contract ---------------------------------------------------------

@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(capsys, trace, section):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "negative_fail", "--seed", "2", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {m["name"]: m["unit"] for m in spec[section]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rees_heavy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
