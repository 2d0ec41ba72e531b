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
from .loops import cayley_dot, loop_automaton, loop_automaton_dot
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    NAMED_SEMIGROUPS,
    ParseError,
    SandwichMatrix,
    SemigroupError,
    ZERO,
    _weakly_pru,
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


def parse_rees_spec(text: str, directory: Path) -> FiniteSemigroup:
    """The Rees matrix semigroup a spec file describes: header lines up to
    the `matrix` line, then one matrix row per line."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    rest = iter(lines)
    header: dict = {}
    for no, ln in rest:
        key, *vals = ln.split()
        if key == "matrix":
            if vals:
                raise ParseError("matrix line takes no value", no)
            break
        if key in header:
            raise ParseError(f"repeated {key} line", no)
        if key == "base":
            if not vals:
                raise ParseError("base line needs a table file", no)
            name = " ".join(vals)
            try:
                header[key] = parse_semigroup_text((directory / name).read_text())
            except OSError as e:
                raise ParseError(f"cannot read base table: {e}", no) from None
            except ParseError as e:
                raise ParseError(f"base table {name}, line {e.line}: {e.message}",
                                 no) from None
        elif key in _SPEC_VALUES:
            if len(vals) != 1:
                raise ParseError(f"{key} line takes one value", no)
            header[key] = _SPEC_VALUES[key](vals[0], no)
        else:
            raise ParseError(f"unexpected line {ln!r}", no)
    else:  # no matrix line
        raise ParseError("spec needs base, i, j and matrix lines", 1)
    base, i_count, j_count = (header.get(key) for key in ("base", "i", "j"))
    with_zero = header.get("zero", False)
    matrix_rows = [(no, ln.split()) for no, ln in rest]
    if base is None or i_count is None or j_count is None:
        raise ParseError("spec needs base, i, j and matrix lines", 1)
    if len(matrix_rows) != j_count or any(len(r) != i_count for _no, r in matrix_rows):
        raise ParseError(f"matrix must have {j_count} rows of {i_count} entries",
                         lines[-1][0])
    entries = []
    for no, row in matrix_rows:
        out = []
        for tok in row:
            if tok == "0" and with_zero:
                out.append(ZERO)
            elif tok == "0" and "0" not in base.labels:
                raise ParseError("a 0 entry needs zero true", no)
            else:
                try:
                    out.append(base.index(tok))
                except SemigroupError as e:
                    raise ParseError(str(e), no) from None
        entries.append(out)
    return rees_matrix(base, i_count, j_count, sandwich(entries), with_zero)[0]


def _spec_count(tok: str, no: int) -> int:
    try:
        count = int(tok)
    except ValueError:
        raise ParseError(f"expected a count, got {tok!r}", no) from None
    if count < 1:
        raise ParseError("count must be positive", no)
    return count


def _spec_truth(tok: str, no: int) -> bool:
    if tok.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ParseError(f"zero takes true or false, got {tok!r}", no)
    return tok.lower() in ("true", "yes", "1")


# the one-value header lines of a spec and the reader of each value
_SPEC_VALUES = {"i": _spec_count, "j": _spec_count, "zero": _spec_truth}


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
    """The weakly pseudo-right-unitary pairs; all_subsemigroups yields closed
    sets, so the kernel runs without the subsemigroup gate."""
    for sid, s in _semigroups(max_order):
        tau = full_generator_map(s)
        for tset in all_subsemigroups(s):
            if _weakly_pru(s.table, tset):
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


def iter_instances(tag: str, max_order: int = 3, bases=None,
                   imax: int = 2, jmax: int = 2, seed: int = 0):
    """Lazily yield (instance_id, job) pairs for one theorem tag, where job
    is the picklable pair (tag, args) that `run_job` decides.  `bases`
    defaults to the tag's registry bases; a base named twice runs once, in
    the order first named."""
    if tag not in REGISTRY:
        raise ValueError(f"unknown theorem tag {tag!r}")
    bases = tuple(dict.fromkeys(REGISTRY[tag].bases if bases is None else bases))
    for name in bases:
        if name not in NAMED_SEMIGROUPS:
            raise ValueError(f"unknown base semigroup {name!r}")
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
    by instance id, return the count of failures.  With more than one
    worker, a fresh pool runs the sorted instances in about 4 x workers
    consecutive batches, each instance one `run_job` call, so that a pool
    round trip is paid per batch, not per instance."""
    stream = stream or sys.stdout
    items = sorted(instances, key=lambda kv: kv[0])
    workers = worker_count(len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = -(-len(items) // (4 * workers))
            results = list(pool.map(run_job, items, chunksize=chunksize))
    else:
        results = [run_job(item) for item in items]
    failures = 0
    for _iid, holds, line in results:
        stream.write(line + "\n")
        failures += not holds
    return failures


# -- subcommands ---------------------------------------------------------------

def cmd_info(args) -> int:
    s = _load_table(args.file)
    ids = sorted(idempotents(s))
    lines = [f"order {s.order}",
             f"idempotents {len(ids)}: " + " ".join(s.labels[e] for e in ids),
             f"zero {s.labels[s.zero] if s.zero is not None else '-'}",
             f"identity {s.labels[s.identity] if s.identity is not None else '-'}",
             f"ideals {len(all_ideals(s))}"]
    if s.zero is None:
        lines.append("completely zero-simple: no designated zero")
    elif is_completely_zero_simple(s):
        grp, _ = maximal_subgroup(s, next(e for e in ids if e != s.zero))
        lines.append(f"completely zero-simple: yes, max subgroup order {grp.order}")
    else:
        lines.append("completely zero-simple: no")
    print("\n".join(lines))
    return 0


def _generator_map(args) -> GeneratorMap:
    """The table's generators: the LABEL elements, or all of them."""
    s = _load_table(args.file)
    return generator_map(s, args.labels) if args.labels else full_generator_map(s)


def _labelled_subset(args) -> tuple[FiniteSemigroup, frozenset[int]]:
    """The table and the set of its LABEL elements."""
    s = _load_table(args.file)
    return s, frozenset(s.index(lab) for lab in args.labels)


def cmd_loop(args) -> int:
    gmap = _generator_map(args)
    if args.dot:
        Path(args.dot).write_text(loop_automaton_dot(gmap))
    _emit(format_automaton(minimal_dfa(loop_automaton(gmap))), args.output)
    return 0


def cmd_cayley(args) -> int:
    gmap = _generator_map(args)
    if args.monoid:
        if gmap.target.identity is None:
            raise SemigroupError("--monoid needs a designated identity")
        gmap = GeneratorMap(gmap.alphabet, gmap.target, gmap.image, monoid=True)
    else:
        gmap = lift_to_monoid(gmap)
    _emit(cayley_dot(gmap), args.output)
    return 0


# the table-writing subcommands: each builds a semigroup from its parsed
# arguments, and cmd_build writes it as a table
_BUILDERS = {
    "rees": lambda args: parse_rees_spec(Path(args.file).read_text(), Path(args.file).parent),
    "quotient": lambda args: rees_quotient(*_labelled_subset(args))[0],
    "adjoin-zero": lambda args: adjoin_zero(_load_table(args.file)),
    "adjoin-identity": lambda args: adjoin_identity(_load_table(args.file)),
}


def cmd_build(args) -> int:
    _emit(format_semigroup(_BUILDERS[args.command](args)), args.output)
    return 0


def cmd_check_ideal(args) -> int:
    ok = is_ideal(*_labelled_subset(args))
    print("ideal" if ok else "not an ideal")
    return 0 if ok else 1


def cmd_check_pru(args) -> int:
    s, t = _labelled_subset(args)
    ru, pru, wpru = (f(s, t) for f in (is_right_unitary, is_pseudo_right_unitary,
                                       is_weakly_pru))
    print(f"right-unitary {ru}\npseudo-right-unitary {pru}\nweakly-pseudo-right-unitary {wpru}")
    return 0 if wpru else 1


def cmd_decompose(args) -> int:
    dec = theorems.rees_decompose(_load_table(args.file))
    print(f"group order {dec.group.order}\ni {dec.i_count}\nj {dec.j_count}\nmatrix")
    for row in dec.sandwich.entries:
        print(" ".join("0" if v is None else dec.group.labels[v] for v in row))
    print("group table:")
    sys.stdout.write(format_semigroup(dec.group))
    return 0


# the corpus options: the generator parameter each sets, and its flag
_VERIFY_OPTIONS = {"max_order": "--max-order", "bases": "--base",
                   "imax": "--imax", "jmax": "--jmax", "seed": "--seed"}
# corpus shows iter_instances' own defaults to readers of its parsed options
_CORPUS_DEFAULTS = {name: param.default for name, param
                    in inspect.signature(iter_instances).parameters.items()
                    if name in _VERIFY_OPTIONS}


def _given_options(args) -> dict:
    """The corpus options given; the rest take iter_instances' defaults."""
    return {name: getattr(args, name) for name in _VERIFY_OPTIONS
            if getattr(args, name) is not None}


def cmd_verify(args) -> int:
    """Run one tag's corpus; an option its instance generator does not read
    is a usage error, and an option not given takes iter_instances' default
    (for --base, the tag's registry bases)."""
    given = _given_options(args)
    reads = inspect.signature(REGISTRY[args.tag].instances).parameters
    unread = [_VERIFY_OPTIONS[name] for name in given if name not in reads]
    if unread:
        known = " ".join(flag for name, flag in _VERIFY_OPTIONS.items() if name in reads)
        print(f"error: verify {args.tag} does not read {' '.join(unread)} "
              f"(it reads {known})", file=sys.stderr)
        return 2
    failures = run_corpus(iter_instances(args.tag, **given))
    print(f"{'PASS' if failures == 0 else 'FAIL'} ({args.tag})")
    return 0 if failures == 0 else 1


def cmd_corpus(args) -> int:
    given = _given_options(args)
    total_failures = sum(run_corpus(iter_instances(tag, **given)) for tag in VERIFY_TAGS)
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

    def file_cmd(name, fn, help_, file="table", labels=None, output=True):
        """A subcommand that reads one TABLE or SPEC file, then LABELs when
        `labels` is their nargs, and writes to -o when `output`."""
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", metavar=file, help="semigroup table file"
                       if file == "table" else "Rees construction spec file")
        if labels:
            p.add_argument("labels", nargs=labels, metavar="LABEL",
                           help="element labels" if labels == "+"
                           else "generator element labels (default: all elements)")
        if output:
            p.add_argument("-o", "--output", help="output file (default stdout)")
        p.set_defaults(fn=fn)
        return p

    def corpus_sizes(p):
        """Add the corpus sizes and seed, each help showing its default."""
        for name, what in (("max_order", "order bound"), ("imax", "largest I"),
                           ("jmax", "largest J"), ("seed", "randomized-rerun seed")):
            p.add_argument(_VERIFY_OPTIONS[name], type=int if name == "seed" else _positive_int,
                           help=f"{what} (default {_CORPUS_DEFAULTS[name]})")

    file_cmd("info", cmd_info, "summarize a semigroup table file", output=False)
    file_cmd("loop", cmd_loop, "minimal DFA of the loop problem", labels="*").add_argument(
        "--dot", help="also write the loop automaton as DOT")
    file_cmd("cayley", cmd_cayley, "Cayley graph DOT export", labels="*").add_argument(
        "--monoid", action="store_true",
        help="use the designated identity instead of adjoining one")
    file_cmd("rees", cmd_build, "build a Rees matrix semigroup from a spec file", file="spec")
    file_cmd("quotient", cmd_build, "Rees quotient by an ideal", labels="+")
    file_cmd("adjoin-zero", cmd_build, "adjoin a fresh zero")
    file_cmd("adjoin-identity", cmd_build, "adjoin a fresh identity")
    file_cmd("check-ideal", cmd_check_ideal, "test whether labels form an ideal",
             labels="+", output=False)
    file_cmd("check-pru", cmd_check_pru, "right-unitary / pseudo / weakly verdicts",
             labels="+", output=False)
    file_cmd("decompose", cmd_decompose,
             "Rees coordinates of a completely zero-simple semigroup", output=False)

    p = sub.add_parser("verify", help="run one theorem verifier over its corpus")
    p.add_argument("tag", choices=VERIFY_TAGS)
    corpus_sizes(p)
    p.add_argument("--base", action="append", dest="bases",
                   choices=sorted(NAMED_SEMIGROUPS), help="base semigroups for Rees tags")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="run every theorem verifier")
    corpus_sizes(p)
    p.set_defaults(fn=cmd_corpus, **_CORPUS_DEFAULTS)

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
