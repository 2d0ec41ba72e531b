"""Spans recorded from outside the program.

``Tracer.install`` wraps every public function of the traced reesloop
modules and rebinds the module attribute together with every other binding
of the same function object in the package, so ``theorems.minimal_dfa`` and
``theorems.t_apply`` are traced like ``language.minimal_dfa`` and
``transduce.apply``.  Each call records one span (name, start, end, parent
span, instance); a generator function records one span per resumption.
Spans stay in memory in flat arrays and are reduced to per-layer metrics
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

MODULES = ("semigroup", "loops", "transduce", "language", "theorems", "cli")

# Layer groups reported as per-layer metrics.
GROUPS = {
    "language.determinize": ("language.determinize",),
    "language.minimize": ("language.minimize",),
    "language.shortest_separator": ("language.shortest_separator",
                                    "language.equivalent"),
    "language.quotient": ("language.left_quotient", "language.right_quotient"),
    "language.construct": tuple("language." + f for f in (
        "union", "concat", "star", "plus", "intersect", "prefix_closure",
        "suffix_closure", "factor_closure", "trim", "embed_hat", "relabel",
        "sub_hat_letters", "word_nfa", "word_set_nfa", "universe_nfa",
        "empty_nfa", "epsilon_nfa", "nfa", "as_nfa", "involution_image")),
    "transduce.apply": ("transduce.apply",),
    "transduce.build_rees_transducer": ("transduce.build_rees_transducer",),
    "semigroup.rees_matrix": ("semigroup.rees_matrix",),
    "semigroup.rees_quotient": ("semigroup.rees_quotient",),
    "semigroup.enumerate_semigroups": ("semigroup.enumerate_semigroups",),
    "cli.iter_instances": ("cli.iter_instances",),
    "cli.run_job": ("cli.run_job",),
}


def _count_determinize(counts, args, result):
    counts["language.determinize.nfa_states_in"] += args[0].n_states
    counts["language.determinize.subsets_out"] += result.n_states


def _count_minimize(counts, args, result):
    counts["language.minimize.states_in"] += args[0].n_states
    counts["language.minimize.states_out"] += result.n_states


def _count_separator(counts, args, result):
    counts["language.shortest_separator.separators"] += result is not None


def _count_apply(counts, args, result):
    counts["transduce.apply.out_states"] += result.n_states


COUNTERS = {
    "language.determinize": _count_determinize,
    "language.minimize": _count_minimize,
    "language.shortest_separator": _count_separator,
    "transduce.apply": _count_apply,
}
COUNT_NAMES = ("language.determinize.nfa_states_in",
               "language.determinize.subsets_out",
               "language.minimize.states_in", "language.minimize.states_out",
               "language.shortest_separator.separators",
               "transduce.apply.out_states")


# Groups for the functions of a module that GROUPS does not name.
MODULE_GROUPS = {"theorems": "theorems.verify", "loops": "loops"}


def group_of(name: str) -> str:
    for group, members in GROUPS.items():
        if name in members:
            return group
    module = name.split(".")[0]
    return MODULE_GROUPS.get(module, module + ".other")


class Phase:
    def __init__(self, name: str, lo: int):
        self.name = name
        self.lo = lo
        self.hi = lo
        self.wall = 0.0
        self.counts = dict.fromkeys(COUNT_NAMES, 0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.instance: array = array("i")
        self.stack: list[int] = []
        self.current_instance = -1
        self.phases: dict[str, Phase] = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Group the spans and counts recorded inside the block."""
        ph = Phase(name, len(self.name_id))
        saved, self.counts = self.counts, ph.counts
        t0 = time.perf_counter()
        try:
            yield ph
        finally:
            ph.wall = time.perf_counter() - t0
            ph.hi = len(self.name_id)
            self.counts = saved
            self.phases[name] = ph

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(group_of(name))
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of MODULES and rebind every attribute
        of any reesloop module that refers to one of them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"reesloop.{short}"]
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{short}.{attr}", val)
        for modname, mod in list(sys.modules.items()):
            if modname != "reesloop" and not modname.startswith("reesloop."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        hi = len(self.name_id) if hi is None else hi
        return self_times(self.start, self.end, self.parent, lo, hi)

    def per_function(self, phase: Phase) -> dict[str, dict]:
        """calls, inclusive and self seconds per wrapped function."""
        selfs = self.self_times(phase.lo, phase.hi)
        out: dict[str, dict] = {}
        for k, idx in enumerate(range(phase.lo, phase.hi)):
            rec = out.setdefault(self.names[self.name_id[idx]],
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["incl_s"] += self.end[idx] - self.start[idx]
            rec["self_s"] += selfs[k]
        return out

    def per_group(self, phase: Phase) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name, rec in self.per_function(phase).items():
            agg = out.setdefault(group_of(name),
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += rec[key]
        return out

    def slowest_instances(self, phase: Phase, top: int = 10) -> list[dict]:
        """Per-instance wall (top-level spans) and self time by group for
        the slowest instances of a phase."""
        selfs = self.self_times(phase.lo, phase.hi)
        wall: dict[int, float] = {}
        by_group: dict[int, dict[str, float]] = {}
        for k, idx in enumerate(range(phase.lo, phase.hi)):
            inst = self.instance[idx]
            if self.parent[idx] < phase.lo:
                wall[inst] = wall.get(inst, 0.0) + self.end[idx] - self.start[idx]
            groups = by_group.setdefault(inst, {})
            group = group_of(self.names[self.name_id[idx]])
            groups[group] = groups.get(group, 0.0) + selfs[k]
        ranked = sorted(wall, key=wall.get, reverse=True)[:top]
        return [{"instance": i, "wall_s": wall[i],
                 "self_s": dict(sorted(by_group[i].items(), key=lambda kv: -kv[1]))}
                for i in ranked]


def self_times(start, end, parent, lo: int, hi: int) -> list[float]:
    """Self time of spans lo..hi-1: each span's duration minus the part of
    its interval covered by its child spans (overlapping children counted
    once, children clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for idx in range(lo, hi):
        p = parent[idx]
        if p >= lo:
            children.setdefault(p, []).append((start[idx], end[idx]))
    out = []
    for idx in range(lo, hi):
        s, e = start[idx], end[idx]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out
