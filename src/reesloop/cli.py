"""Command-line front end: file ingestion, constructions, DOT export, and
the corpus verification harness.

Exit codes: 0 all pass / success, 1 any FAIL or ERROR, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import os
import random
import sys
import traceback
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import theorems
from .language import format_automaton, minimal_dfa
from .loops import cayley_dot, cayley_graph, loop_automaton, loop_automaton_dot
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    NAMED_SEMIGROUPS,
    ParseError,
    SandwichMatrix,
    SemigroupError,
    ZERO,
    adjoin_identity,
    adjoin_zero,
    all_ideals,
    all_subsemigroups,
    are_isomorphic,
    enumerate_semigroups,
    format_semigroup,
    full_generator_map,
    generator_map,
    idempotents,
    is_completely_zero_simple,
    is_ideal,
    is_pseudo_right_unitary,
    is_right_unitary,
    is_weakly_pru,
    lift_to_monoid,
    maximal_subgroup,
    parse_semigroup_text,
    rees_matrix,
    rees_quotient,
    sandwich,
)

@dataclass(frozen=True)
class ReesSpec:
    """Parsed Rees construction spec file."""

    base: FiniteSemigroup
    i_count: int
    j_count: int
    with_zero: bool
    matrix: SandwichMatrix


def parse_rees_spec(text: str, directory: Path) -> ReesSpec:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    base = None
    i_count = j_count = None
    with_zero = False
    matrix_rows: list[tuple[int, list[str]]] = []
    in_matrix = False
    for no, ln in lines:
        toks = ln.split()
        if in_matrix:
            matrix_rows.append((no, toks))
            continue
        if toks[0] == "base":
            path = directory / " ".join(toks[1:])
            try:
                base = parse_semigroup_text(path.read_text())
            except OSError as e:
                raise ParseError(f"cannot read base table: {e}", no) from None
        elif toks[0] in ("i", "j", "zero"):
            if len(toks) != 2:
                raise ParseError(f"{toks[0]} line takes one value", no)
            if toks[0] == "zero":
                with_zero = toks[1].lower() in ("true", "yes", "1")
            elif toks[0] == "i":
                i_count = _spec_count(toks[1], no)
            else:
                j_count = _spec_count(toks[1], no)
        elif toks[0] == "matrix":
            in_matrix = True
        else:
            raise ParseError(f"unexpected line {ln!r}", no)
    if base is None or i_count is None or j_count is None:
        raise ParseError("spec needs base, i, j and matrix lines", 1)
    if len(matrix_rows) != j_count or any(len(r) != i_count for _no, r in matrix_rows):
        raise ParseError(f"matrix must have {j_count} rows of {i_count} entries",
                         lines[-1][0])
    entries = []
    for no, row in matrix_rows:
        out = []
        for tok in row:
            if tok == "0" and (with_zero or "0" not in base.labels):
                out.append(ZERO)
            else:
                try:
                    out.append(base.index(tok))
                except SemigroupError as e:
                    raise ParseError(str(e), no) from None
        entries.append(out)
    return ReesSpec(base, i_count, j_count, with_zero, sandwich(entries))


def _spec_count(tok: str, no: int) -> int:
    try:
        count = int(tok)
    except ValueError:
        raise ParseError(f"expected a count, got {tok!r}", no) from None
    if count < 1:
        raise ParseError("count must be positive", no)
    return count


def _load_table(path: str) -> FiniteSemigroup:
    return parse_semigroup_text(Path(path).read_text())


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- corpus registry -----------------------------------------------------------
#
# A corpus instance is (iid, job) with job the picklable pair (tag, args);
# REGISTRY[tag].verify(*args) decides it, in this process or a pool worker.

def _sandwiches(base: FiniteSemigroup, i_count: int, j_count: int,
                allow_zero: bool):
    opts = list(range(base.order)) + ([ZERO] if allow_zero else [])
    for ents in itertools.product(opts, repeat=i_count * j_count):
        rows = [ents[r * i_count:(r + 1) * i_count] for r in range(j_count)]
        yield sandwich(rows)


def _sandwich_id(base: FiniteSemigroup, p: SandwichMatrix) -> str:
    return ";".join(",".join("0" if v is None else base.labels[v] for v in row)
                    for row in p.entries)


@functools.lru_cache(maxsize=8)
def _enumerated(enumerate_fn: Callable, n: int) -> tuple[FiniteSemigroup, ...]:
    return tuple(enumerate_fn(n))


def _semigroups(max_order: int):
    """Every semigroup of order <= max_order with its id n<order>i<index>.
    Each order is enumerated once per process and shared by every order-N
    tag; the cache is keyed by the enumerate_semigroups bound when called,
    so a rebound one (a profiler's wrapper, a test's monkeypatch) is run."""
    for n in range(1, max_order + 1):
        for k, s in enumerate(_enumerated(enumerate_semigroups, n)):
            yield f"n{n}i{k}", s


def _rees_instances(bases, imax: int, jmax: int, allow_zero: bool, **_):
    """(iid, (S, generators, I, J, P)) for every base S, every size up to
    imax x jmax and every sandwich matrix P."""
    for name in bases:
        s = NAMED_SEMIGROUPS[name]()
        gmap = full_generator_map(s)
        for ic in range(1, imax + 1):
            for jc in range(1, jmax + 1):
                for p in _sandwiches(s, ic, jc, allow_zero):
                    iid = f"{name}:I{ic}J{jc}:P={_sandwich_id(s, p)}"
                    yield iid, (s, gmap, ic, jc, p)


def _regular_c2_rees(imax: int, jmax: int, **_):
    """(iid, (M0, C2)) for M0 = M^0(C2; imax, jmax; P) over every regular P."""
    c2 = NAMED_SEMIGROUPS["c2"]()
    for p in _sandwiches(c2, imax, jmax, allow_zero=True):
        if p.regular:
            m0, _ = rees_matrix(c2, imax, jmax, p, with_zero=True)
            yield f"c2:I{imax}J{jmax}:P={_sandwich_id(c2, p)}", (m0, c2)


def _ideal_instances(max_order: int, **_):
    for sid, s in _semigroups(max_order):
        gmap = full_generator_map(s)
        for t in all_ideals(s):
            iid = f"{sid}:T=" + ".".join(s.labels[v] for v in sorted(t))
            yield iid, (s, gmap, t)


def _subsemigroup_instances(max_order: int, **_):
    for sid, s in _semigroups(max_order):
        tau = full_generator_map(s)
        for tset in all_subsemigroups(s):
            if is_weakly_pru(s, tset):
                labels = tuple(s.labels[v] for v in sorted(tset))
                yield f"{sid}:T=" + ".".join(labels), (s, tau, tset, labels)


def _remove_zero_instances(max_order: int, **_):
    for sid, s in _semigroups(max_order):
        tau = theorems.extend_to_zero(full_generator_map(s))
        yield sid, (tau.target, tau, frozenset(range(s.order)), tau.alphabet[:-1])


def _adjoin_zero_instances(max_order: int, **_):
    for sid, s in _semigroups(max_order):
        yield sid, (s, full_generator_map(s))


def _semitorees_instances(bases, imax: int, jmax: int, seed: int, **_):
    rng = random.Random(seed)
    rerun_base = None
    for iid, args in _rees_instances(bases, imax, jmax, allow_zero=False):
        yield iid, args + (None,)
        s, _gmap, ic, jc, _p = args
        if (ic, jc) == (imax, jmax) and s is not rerun_base:
            # one randomized-representative rerun per base semigroup
            rerun_base = s
            yield iid + ":randomrep", args + (rng.randrange(2 ** 30),)


def _unit_sandwich_instances(bases, imax: int, jmax: int, **_):
    for iid, (s, gmap, ic, jc, p) in _rees_instances(bases, imax, jmax, allow_zero=True):
        if any(v is not None for row in p.entries for v in row):
            yield iid, (s, gmap, ic, jc, p)


def _czeros_instances(imax: int, jmax: int, **_):
    for iid, s in (("b2", NAMED_SEMIGROUPS["b2"]()),
                   ("c20", adjoin_zero(NAMED_SEMIGROUPS["c2"]())),
                   ("c30", adjoin_zero(NAMED_SEMIGROUPS["c3"]()))):
        yield iid, (s, full_generator_map(s))
    for iid, (m0, _c2) in _regular_c2_rees(imax, jmax):
        yield iid, (m0, full_generator_map(m0))


def _theorem(name: str) -> Callable:
    """theorems.<name>, looked up when called, so that a rebound theorems
    function (a profiler's wrapper, a test's monkeypatch) is the one run."""
    return lambda *args: getattr(theorems, name)(*args)


def _verify_semitorees(s, gmap, i_count, j_count, p, rng_seed):
    rng = random.Random(rng_seed) if rng_seed is not None else None
    return theorems.verify_semitorees(s, gmap, i_count, j_count, p, rng=rng)


def _decompose_roundtrip(m0, group) -> bool:
    return are_isomorphic(theorems.rees_decompose(m0).group, group)


@dataclass(frozen=True)
class Verifier:
    """One corpus tag: `instances(max_order=, bases=, imax=, jmax=, seed=)`
    yields (iid, args), and `verify(*args)` returns a VerificationReport or
    a bare verdict."""

    instances: Callable
    verify: Callable
    bases: tuple[str, ...] = ("trivial", "c2", "c3")


_intersection = _theorem("verify_subsemigroup_intersection")
REGISTRY = {  # in corpus order
    "rees-quotient": Verifier(_ideal_instances, _theorem("verify_rees_quotient")),
    "subsemigroup": Verifier(_subsemigroup_instances, _intersection),
    "remove-zero": Verifier(_remove_zero_instances, _intersection),
    "adjoin-zero": Verifier(_adjoin_zero_instances, _theorem("verify_adjoin_zero")),
    "semitorees": Verifier(_semitorees_instances, _verify_semitorees),
    "semitoreeszero": Verifier(functools.partial(_rees_instances, allow_zero=True),
                               _theorem("verify_semitoreeszero"), ("trivial", "c2")),
    "unit-sandwich": Verifier(_unit_sandwich_instances,
                              _theorem("verify_unit_sandwich"), ("c2", "c3")),
    "czeros": Verifier(_czeros_instances, _theorem("verify_czeros")),
    "decompose-roundtrip": Verifier(_regular_c2_rees, _decompose_roundtrip),
}
VERIFY_TAGS = tuple(REGISTRY)
DEFAULT_BASES = {tag: v.bases for tag, v in REGISTRY.items()}


def iter_instances(tag: str, max_order: int = 3, bases=("trivial", "c2", "c3"),
                   imax: int = 2, jmax: int = 2, seed: int = 0):
    """Lazily yield (instance_id, job) pairs for one theorem tag, where job
    is the picklable pair (tag, args) that `run_job` decides."""
    if tag not in REGISTRY:
        raise ValueError(f"unknown theorem tag {tag!r}")
    for iid, args in REGISTRY[tag].instances(max_order=max_order, bases=bases,
                                             imax=imax, jmax=jmax, seed=seed):
        yield iid, (tag, args)


def run_job(item: tuple[str, tuple[str, tuple]]) -> tuple[str, bool, str]:
    """Decide one corpus instance and return (iid, holds, RESULT line); top
    level so worker processes can run it.  An exception in the verifier
    becomes the verdict `ERROR <exception name>`, which counts as a failure,
    with its traceback on stderr, so one broken instance does not lose the
    rest of the run."""
    iid, (tag, args) = item
    try:
        outcome = REGISTRY[tag].verify(*args)
    except Exception as e:
        print(f"{tag} {iid}: {traceback.format_exc()}", end="", file=sys.stderr)
        holds, verdict = False, f"ERROR {type(e).__name__}"
    else:
        if isinstance(outcome, bool):
            holds, verdict = outcome, "PASS" if outcome else "FAIL"
        else:
            holds, verdict = outcome.holds, outcome.verdict()
    return iid, holds, f"RESULT {tag} {iid} {verdict}"


_warned: set[str] = set()


def _warn_once(message: str):
    if message not in _warned:
        _warned.add(message)
        print(f"warning: {message}", file=sys.stderr)


def worker_count(jobs: int) -> int:
    """Pool size for `jobs` instances: REES_LOOP_WORKERS (default 1), capped
    at the CPU count and at `jobs`.  A value that is not a positive integer
    means 1 worker; it and a value above the CPU count draw a warning, once
    per process."""
    raw = os.environ.get("REES_LOOP_WORKERS", "1")
    cpus = os.cpu_count() or 1
    try:
        wanted = int(raw)
    except ValueError:
        wanted = 0
    if wanted < 1:
        _warn_once(f"REES_LOOP_WORKERS={raw!r} is not a positive integer; "
                   "using 1 worker")
        wanted = 1
    elif wanted > cpus:
        _warn_once(f"REES_LOOP_WORKERS={raw} exceeds the {cpus} CPUs; "
                   f"using {cpus} workers")
    return max(1, min(wanted, cpus, jobs))


def run_corpus(instances, stream=None) -> int:
    """Run instances (any iterable of (id, job)), print RESULT lines sorted
    by instance id, return the count of failures."""
    stream = stream or sys.stdout
    items = sorted(instances, key=lambda kv: kv[0])
    workers = worker_count(len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_job, items, chunksize=4))
    else:
        results = [run_job(item) for item in items]
    failures = 0
    for _iid, holds, line in results:
        stream.write(line + "\n")
        failures += not holds
    return failures


# -- subcommands ---------------------------------------------------------------

def cmd_info(args) -> int:
    s = _load_table(args.table)
    ids = sorted(idempotents(s))
    lines = [f"order {s.order}",
             f"idempotents {len(ids)}: " + " ".join(s.labels[e] for e in ids),
             f"zero {s.labels[s.zero] if s.zero is not None else '-'}",
             f"identity {s.labels[s.identity] if s.identity is not None else '-'}",
             f"ideals {len(all_ideals(s))}"]
    if s.zero is None:
        lines.append("completely zero-simple: no designated zero")
    elif is_completely_zero_simple(s):
        ids_nz = [e for e in ids if e != s.zero]
        grp, _ = maximal_subgroup(s, ids_nz[0])
        lines.append(f"completely zero-simple: yes, max subgroup order {grp.order}")
    else:
        lines.append("completely zero-simple: no")
    print("\n".join(lines))
    return 0


def _gen_map(s: FiniteSemigroup, labels) -> GeneratorMap:
    if not labels:
        return full_generator_map(s)
    return generator_map(s, labels)


def cmd_loop(args) -> int:
    s = _load_table(args.table)
    gmap = _gen_map(s, args.generators)
    la = loop_automaton(gmap)
    if args.dot:
        Path(args.dot).write_text(loop_automaton_dot(la))
    _emit(format_automaton(minimal_dfa(la.nfa)), args.output)
    return 0


def cmd_cayley(args) -> int:
    s = _load_table(args.table)
    gmap = _gen_map(s, args.generators)
    if args.monoid:
        if s.identity is None:
            raise SemigroupError("--monoid needs a designated identity")
        gmap = GeneratorMap(gmap.alphabet, s, gmap.image, monoid=True)
    else:
        gmap = lift_to_monoid(gmap)
    dot = cayley_dot(cayley_graph(gmap))
    if args.dot:
        Path(args.dot).write_text(dot)
        return 0
    _emit(dot, args.output)
    return 0


def cmd_rees(args) -> int:
    spec = parse_rees_spec(Path(args.spec).read_text(), Path(args.spec).parent)
    m, _rs = rees_matrix(spec.base, spec.i_count, spec.j_count, spec.matrix,
                         spec.with_zero)
    _emit(format_semigroup(m), args.output)
    return 0


def cmd_quotient(args) -> int:
    s = _load_table(args.table)
    t = frozenset(s.index(lab) for lab in args.ideal)
    q, _proj = rees_quotient(s, t)
    _emit(format_semigroup(q), args.output)
    return 0


def cmd_adjoin_zero(args) -> int:
    _emit(format_semigroup(adjoin_zero(_load_table(args.table))), args.output)
    return 0


def cmd_adjoin_identity(args) -> int:
    _emit(format_semigroup(adjoin_identity(_load_table(args.table))), args.output)
    return 0


def cmd_check_ideal(args) -> int:
    s = _load_table(args.table)
    t = frozenset(s.index(lab) for lab in args.subset)
    ok = is_ideal(s, t)
    print("ideal" if ok else "not an ideal")
    return 0 if ok else 1


def cmd_check_pru(args) -> int:
    s = _load_table(args.table)
    t = frozenset(s.index(lab) for lab in args.subset)
    ru = is_right_unitary(s, t)
    pru = is_pseudo_right_unitary(s, t)
    wpru = is_weakly_pru(s, t)
    print(f"right-unitary {ru}")
    print(f"pseudo-right-unitary {pru}")
    print(f"weakly-pseudo-right-unitary {wpru}")
    return 0 if wpru else 1


def cmd_decompose(args) -> int:
    s = _load_table(args.table)
    dec = theorems.rees_decompose(s)
    print(f"group order {dec.group.order}")
    print(f"i {dec.i_count}")
    print(f"j {dec.j_count}")
    print("matrix")
    for row in dec.sandwich.entries:
        print(" ".join("0" if v is None else dec.group.labels[v] for v in row))
    print("group table:")
    sys.stdout.write(format_semigroup(dec.group))
    return 0


def _run_tag(tag: str, bases=None, **sizes) -> int:
    """Run one tag's corpus; return its failures.  A base named twice runs
    once, in the order first named."""
    bases = tuple(dict.fromkeys(bases or DEFAULT_BASES[tag]))
    return run_corpus(iter_instances(tag, bases=bases, **sizes))


# verify's corpus options: the generator parameter each sets, and its flag
_VERIFY_OPTIONS = {"max_order": "--max-order", "bases": "--base",
                   "imax": "--imax", "jmax": "--jmax", "seed": "--seed"}


def cmd_verify(args) -> int:
    """Run one tag's corpus; an option its instance generator does not read
    is a usage error, and an option not given takes iter_instances' default."""
    given = {name: getattr(args, name) for name in _VERIFY_OPTIONS
             if getattr(args, name) is not None}
    reads = inspect.signature(REGISTRY[args.tag].instances).parameters
    unread = [_VERIFY_OPTIONS[name] for name in given if name not in reads]
    if unread:
        known = " ".join(flag for name, flag in _VERIFY_OPTIONS.items() if name in reads)
        print(f"error: verify {args.tag} does not read {' '.join(unread)} "
              f"(it reads {known})", file=sys.stderr)
        return 2
    failures = _run_tag(args.tag, **given)
    print(f"{'PASS' if failures == 0 else 'FAIL'} ({args.tag})")
    return 0 if failures == 0 else 1


def cmd_corpus(args) -> int:
    total_failures = sum(
        _run_tag(tag, max_order=args.max_order, imax=args.imax, jmax=args.jmax,
                 seed=args.seed)
        for tag in VERIFY_TAGS)
    print("PASS" if total_failures == 0 else f"FAIL ({total_failures} instances)")
    return 0 if total_failures == 0 else 1


def _positive_int(text: str) -> int:
    """argparse type of the corpus sizes: anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reesloop",
        description="Loop problems of finite semigroups and Rees matrix constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    def table_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("table", help="semigroup table file")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.set_defaults(fn=fn)
        return p

    p = sub.add_parser("info", help="summarize a semigroup table file")
    p.add_argument("table")
    p.set_defaults(fn=cmd_info)

    p = table_cmd("loop", cmd_loop, "minimal DFA of the loop problem")
    p.add_argument("generators", nargs="*", metavar="LABEL",
                   help="generator element labels (default: all elements)")
    p.add_argument("--dot", help="also write the loop automaton as DOT")

    p = table_cmd("cayley", cmd_cayley, "Cayley graph DOT export")
    p.add_argument("generators", nargs="*", metavar="LABEL")
    p.add_argument("--monoid", action="store_true",
                   help="use the designated identity instead of adjoining one")
    p.add_argument("--dot", help="write the DOT graph to a file")

    p = sub.add_parser("rees", help="build a Rees matrix semigroup from a spec file")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_rees)

    p = table_cmd("quotient", cmd_quotient, "Rees quotient by an ideal")
    p.add_argument("ideal", nargs="+", metavar="LABEL")

    table_cmd("adjoin-zero", cmd_adjoin_zero, "adjoin a fresh zero")
    table_cmd("adjoin-identity", cmd_adjoin_identity, "adjoin a fresh identity")

    p = sub.add_parser("check-ideal", help="test whether labels form an ideal")
    p.add_argument("table")
    p.add_argument("subset", nargs="+", metavar="LABEL")
    p.set_defaults(fn=cmd_check_ideal)

    p = sub.add_parser("check-pru", help="right-unitary / pseudo / weakly verdicts")
    p.add_argument("table")
    p.add_argument("subset", nargs="+", metavar="LABEL")
    p.set_defaults(fn=cmd_check_pru)

    p = sub.add_parser("decompose", help="Rees coordinates of a completely zero-simple semigroup")
    p.add_argument("table")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run one theorem verifier over its corpus")
    p.add_argument("tag", choices=VERIFY_TAGS)
    p.add_argument("--max-order", type=_positive_int, help="order bound (default 3)")
    p.add_argument("--base", action="append", dest="bases",
                   choices=sorted(NAMED_SEMIGROUPS), help="base semigroups for Rees tags")
    p.add_argument("--imax", type=_positive_int, help="largest I (default 2)")
    p.add_argument("--jmax", type=_positive_int, help="largest J (default 2)")
    p.add_argument("--seed", type=int, help="randomized-rerun seed (default 0)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="run every theorem verifier")
    p.add_argument("--max-order", type=_positive_int, default=3)
    p.add_argument("--imax", type=_positive_int, default=2)
    p.add_argument("--jmax", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
