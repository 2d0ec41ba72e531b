"""The derived constructions build their results with semigroup._built,
which runs no __post_init__ check.  Here every such result is rebuilt
through its class's public constructor, which checks every invariant: the
rebuild must raise nothing and give back an equal value."""

import inspect
import itertools
from dataclasses import fields

import pytest

from reesloop import language, loops, semigroup, theorems, transduce
from reesloop.cli import _sandwiches
from reesloop.language import (
    as_nfa,
    determinize,
    intersect,
    minimal_dfa,
    plus,
)
from reesloop.semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    NAMED_SEMIGROUPS,
    NonAssociative,
    NotGenerating,
    adjoin_identity,
    all_ideals,
    all_subsemigroups,
    enumerate_semigroups,
    full_generator_map,
    group_of_units,
    idempotents,
    left_zero,
    maximal_subgroup,
    rees_quotient,
    sandwich,
)

SEMIGROUPS = {f"n{n}i{k}": s for n in (1, 2, 3)
              for k, s in enumerate(enumerate_semigroups(n))}
REES_BASES = ("trivial", "c2", "c3")  # the default corpus bases
MODULES = (semigroup, language, loops, transduce, theorems)
_unchecked = semigroup._built


def assert_rebuilds(x):
    """x rebuilt through the public constructor of its class, from the
    attributes its parameters name, is x.  An Nfa's constructor takes its
    moves as the triples of its transitions property and packs them again."""
    params = inspect.signature(type(x)).parameters
    assert type(x)(**{name: getattr(x, name) for name in params}) == x


@pytest.fixture
def built(monkeypatch):
    """Every value _built returns while the test runs, in order."""
    seen = []

    def recording(cls, *values):
        assert len(values) == len(fields(cls))
        x = _unchecked(cls, *values)
        seen.append(x)
        return x

    for mod in MODULES:
        monkeypatch.setattr(mod, "_built", recording)
    return seen


def rebuild_all(built):
    """Rebuild every recorded value, forget them, and return their kinds."""
    for x in built:
        assert_rebuilds(x)
    kinds = {type(x).__name__ for x in built}
    built.clear()
    return kinds


@pytest.mark.parametrize("sid", SEMIGROUPS)
def test_small_verifiers_build_only_valid_values(sid, built):
    """The four order-N verifiers, run on every ideal and subsemigroup,
    plus the units, maximal subgroups and the language operations that
    only the Rees verifiers or the text tools reach."""
    s = SEMIGROUPS[sid]
    gmap = full_generator_map(s)
    for t in all_ideals(s):
        q, proj, induced = rees_quotient(s, t, gmap)
        assert all(q.mul(proj[a], proj[b]) == proj[s.mul(a, b)]
                   for a in range(s.order) for b in range(s.order))
        assert induced.image == tuple(proj[v] for v in gmap.image)
        assert theorems.verify_rees_quotient(s, gmap, t).holds
    for t in all_subsemigroups(s):
        labels = tuple(s.labels[v] for v in sorted(t))
        theorems.verify_subsemigroup_intersection(s, gmap, t, labels,
                                                  require_hypothesis=False)
    assert theorems.verify_adjoin_zero(s, gmap).holds
    tau = theorems.extend_to_zero(gmap)
    assert theorems.verify_subsemigroup_intersection(
        tau.target, tau, frozenset(range(s.order)), tau.alphabet[:-1]).holds
    group_of_units(adjoin_identity(s))
    for e in idempotents(s):
        maximal_subgroup(s, e)
    la = loops.loop_automaton(gmap)
    k = loops.non_returning_language(la)
    dfa = determinize(k)
    for x in (dfa, minimal_dfa(k), minimal_dfa(dfa)):
        as_nfa(x)
    intersect(plus(k), la)
    kinds = rebuild_all(built)
    assert {"FiniteSemigroup", "GeneratorMap", "Nfa", "Dfa"} <= kinds


def test_enumerated_tables_build_only_valid_values(built):
    """enumerate_semigroups builds its tables unchecked: all 3,614 of order
    at most 4 rebuild through FiniteSemigroup."""
    tables = [s for n in (1, 2, 3, 4) for s in enumerate_semigroups(n)]
    assert len(built) == len(tables) == 3614
    assert rebuild_all(built) == {"FiniteSemigroup"}


def test_maps_induced_from_a_monoid_map_are_still_checked():
    """Without the identity, the images of a monoid map need not generate
    S/T or S^0; those induced maps keep their generation check."""
    m = adjoin_identity(left_zero(2))
    gmap = GeneratorMap(("a", "b"), m, (0, 1), monoid=True)
    with pytest.raises(NotGenerating):
        rees_quotient(m, frozenset({0, 1}), gmap)
    with pytest.raises(NotGenerating):
        theorems.extend_to_zero(gmap)


def rees_checks(name, i_count, j_count, p, with_zero, built):
    """rees_matrix on one corpus sandwich and, without zero, the transducer
    image of the base loop problem and the non-returning loop language;
    then rebuild what was built."""
    s = NAMED_SEMIGROUPS[name]()
    gmap = full_generator_map(s)
    m, rs = semigroup.rees_matrix(s, i_count, j_count, p, with_zero)
    if not with_zero:
        tau = full_generator_map(m)
        t = transduce.build_rees_transducer(gmap, rs, tau)
        assert any(x is t for x in built)  # built unchecked, so rebuilt below
        transduce.apply(t, loops.loop_problem(gmap))
        loops.non_returning_language(loops.loop_automaton(tau))
    return rebuild_all(built)


@pytest.mark.parametrize("name", REES_BASES)
@pytest.mark.parametrize("with_zero", [False, True])
def test_rees_constructions_build_only_valid_values(name, with_zero, built):
    base = NAMED_SEMIGROUPS[name]()
    count = 0
    for ic, jc in itertools.product((1, 2), repeat=2):
        for p in _sandwiches(base, ic, jc, allow_zero=with_zero):
            kinds = rees_checks(name, ic, jc, p, with_zero, built)
            assert "FiniteSemigroup" in kinds
            assert with_zero or {"Transducer", "Nfa"} <= kinds
            count += 1
    n = base.order + with_zero
    assert count == n + 2 * n ** 2 + n ** 4


def test_a_corrupt_rees_matrix_is_caught(built, monkeypatch):
    """Control: a rees_matrix that swaps two table entries and builds the
    result unchecked is caught by rebuilding it."""
    honest = semigroup.rees_matrix

    def swapped(*args):
        m, rs = honest(*args)
        rows = [list(r) for r in m.table]
        rows[0][1], rows[0][2] = rows[0][2], rows[0][1]
        table = tuple(tuple(r) for r in rows)
        return semigroup._built(FiniteSemigroup, m.labels, table, m.zero,
                                m.identity), rs

    monkeypatch.setattr(semigroup, "rees_matrix", swapped)
    p = sandwich([[0, 0], [0, 1]])
    with pytest.raises(NonAssociative):
        rees_checks("c2", 2, 2, p, False, built)
