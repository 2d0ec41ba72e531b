"""One executable verifier per language identity, for S and a semigroup
map X+ -> S onto S: each reads loop problems at S^1's fresh identity, builds
the left- and right-hand languages independently as automata and decides
their equality: two sides built as the same automaton are equal at once,
other sides by their minimal DFAs, each pair once per process (a memo of
2,048 pairs).  A report holds its outcome once, as named checks with
witnesses: the main comparison and its shortest separating word first,
then side checks, among them nested verifiers' reports, each handing on
its own witness.

Two fine points of the identities, both forced by exhaustive small-order
checking:

* the Rees-quotient identity needs the Kleene star on its middle language,
  L union L_1T . L_TT* . L_T1: a collapsed ideal can be revisited any number
  of times, and consecutive inner visits need not chain through a common
  element of T; the star merges the end set E of the ideal's words,
  which is T, into one state of L, S/T's zero;
* the adjoin-zero identity admits every single letter as an inner loop at
  the sink vertex, besides the bracketed factors z-bar u z; the single
  letters are the self-loops of one sink state added to trim(L)'s rows.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

from .language import (
    HatAlphabet,
    Nfa,
    _induced,
    _repack,
    epsilon_free,
    left_quotient,
    minimal_dfa,
    shortest_separator,
    star,
    sub_hat_letters,
    trim,
    word_set_nfa,
)
from .loops import loop_automaton, loop_problem, non_returning_language, table_loop_nfa
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    NoIdentity,
    SandwichMatrix,
    SemigroupError,
    ZERO,
    _built,
    _fresh_label,
    _is_morphism,
    _subsemigroup_set,
    _weakly_pru,
    adjoin_zero,
    all_subsemigroups,
    enumerate_semigroups,
    full_generator_map,
    green_classes,
    group_of_units,
    idempotents,
    is_completely_zero_simple,
    is_weakly_pru,
    maximal_subgroup,
    rees_matrix,
    rees_quotient,
    sandwich,
)
from .transduce import build_rees_transducer, choose_words, word_letters, apply as t_apply


class HypothesisFailed(SemigroupError):
    pass


class RestrictionNotOntoT(SemigroupError):
    pass


class NoUnitInP(SemigroupError):
    pass


class NotCompletelyZeroSimple(SemigroupError):
    pass


class InternalError(RuntimeError):
    """An exhaustive construction check failed: a bug, not a math failure."""


@dataclass(frozen=True)
class VerificationReport:
    """The outcome is held once, in `checks`: one (name, ok, witness) per
    named check, the main comparison ("main") first, each witness already
    rendered to text or None.  `lhs` and `rhs` are the two sides of the
    main comparison as built, not minimized.  `separator` is its shortest
    word in the symmetric difference of the two languages (letters of
    lhs.alphabet), None when they agree.  `stats` holds only measurements
    and instance parameters: "lhs_states" and "rhs_states" count the
    states of the two sides as built; semitorees' "image_states" those of
    the image over word letters (c3 I=J=2: 21, not apply(t, l)'s 357)."""

    tag: str
    lhs: Nfa
    rhs: Nfa
    separator: tuple[int, ...] | None
    checks: tuple[tuple[str, bool, str | None], ...]
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def holds(self) -> bool:
        return all(ok for _n, ok, _w in self.checks)

    def witness(self) -> str | None:
        """The witness of the first failing check that has one."""
        return next((w for _n, ok, w in self.checks if not ok and w is not None), None)

    def verdict(self) -> str:
        """PASS or FAIL, followed by the witness, if any."""
        out, w = "PASS" if self.holds else "FAIL", self.witness()
        return out if w is None else f"{out} {w}"


def _check_onto(s: FiniteSemigroup, gmap: GeneratorMap) -> None:
    """Raise SemigroupError unless gmap is a semigroup map onto S, the same
    object, as in every corpus instance, or an equal one: the one place a
    verifier reads the monoid flag, as no side loops at S's own identity."""
    if gmap.target is not s and gmap.target != s:
        raise SemigroupError("the generator map is not onto S")
    if gmap.monoid:
        raise SemigroupError("the generator map is a monoid map")


def _render(alphabet, word) -> str | None:
    if word is None:
        return None
    if not word:
        return "-"
    return ".".join(alphabet.name(x) for x in word)


@functools.lru_cache(maxsize=2048)
def _separator(lhs: Nfa, rhs: Nfa, minimal_dfa, shortest_separator):
    """The shortest separator of two sides, None when their minimal DFAs agree."""
    if minimal_dfa(lhs) == minimal_dfa(rhs):
        return None
    return shortest_separator(lhs, rhs)


def _finish(tag: str, lhs: Nfa, rhs: Nfa, extra_checks, stats, t0) -> VerificationReport:
    """Compare the two sides and put the main comparison ahead of the extra
    named checks.  Two sides built as the same automaton hold at once;
    other sides are minimized, and their canonical minimal DFAs compared
    with ==; only when those differ is the separator found, by walking the
    two NFAs.  Each process decides such a pair once: _separator recalls
    the last 2,048 (every pair one benchmark draw repeats), keyed by the
    NFAs and the minimal_dfa and shortest_separator bound when called, so
    a rebound one (a profiler's wrapper, a monkeypatch) is run; a test
    patching beneath them (determinize, minimize, _core) calls
    _separator.cache_clear() first.  stats["main"] records what decided
    the pair: "==" for the sides themselves, else "minimal DFAs"."""
    same = rhs == lhs
    sep = None if same else _separator(lhs, rhs, minimal_dfa, shortest_separator)
    checks = (("main", sep is None, _render(lhs.alphabet, sep)), *extra_checks)
    stats = {**stats, "main": "==" if same else "minimal DFAs",
             "lhs_states": lhs.n_states, "rhs_states": rhs.n_states,
             "elapsed": round(time.perf_counter() - t0, 6)}
    return VerificationReport(tag, lhs, rhs, sep, checks, stats)


def result_line(report: VerificationReport, instance_id: str) -> str:
    return f"RESULT {report.tag} {instance_id} {report.verdict()}"


def _quotient_union(l: Nfa, e: frozenset[int]) -> Nfa:
    """L union L_1T . L_TT* . L_T1 as L with the end set E merged into one
    state.  On L's rows, L_1T runs from L's initial states to E, L_TT from E
    to E and L_T1 from E to L's final states, so a path through the merged
    state k times spells L for k = 0 and L_1T . L_TT^(k-1) . L_T1 for
    k >= 1.  The states are numbered as rees_quotient numbers S/T: the
    states outside E in order, then E, then L's identity unless E holds it.
    For E = T, where R's positive words lead, that is S/T's loop automaton,
    E its zero."""
    ends = e | l.initial
    parts = [(p,) for p in range(l.n_states) if p not in ends]
    return _induced(l, [*parts, e, *((p,) for p in sorted(l.initial - e))])


def _quotient_formula_rhs(gmap: GeneratorMap, l_nfa: Nfa, ideal) -> tuple[Nfa, list]:
    """L union (L R-bar^-1)(R^-1 L R-bar^-1)*(R^-1 L) for R a set of shortest
    representative words of the ideal, plus the check "E=T"; l_nfa is L,
    gmap's loop automaton, and the right side is L with the set E that R
    leads to from the identity merged into one state, S/T's zero
    (_quotient_union).  The walk for R^-1 L finds E.
    L has no epsilon moves, the identity is its one initial and final state
    and each move a --x--> b comes with b --x-bar--> a, so R-bar leads from
    E back: L R-bar^-1 is L's rows from the identity to E, R^-1 L R-bar^-1
    from E to E, and no automaton is reversed.  The three quotients are the
    path languages of L between the identity and T exactly when E = T:
    positive words move deterministically in a loop automaton, so a word of
    R lies in L's rows from the identity to E exactly when its element is
    in E."""
    if l_nfa.initial != l_nfa.final or any(l_nfa.eps):
        raise InternalError("L is not a loop automaton")
    words = choose_words(gmap)
    r = word_set_nfa(l_nfa.alphabet, [words[t] for t in sorted(ideal)])
    e = left_quotient(r, l_nfa).initial
    return _quotient_union(l_nfa, e), [("E=T", e == ideal, None)]


def verify_rees_quotient(s: FiniteSemigroup, gmap: GeneratorMap, ideal) -> VerificationReport:
    """Loop problem of S/T against the quotient formula over the loop
    problem of S, with the end set E of the ideal's words checked to be T."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    tset = frozenset(ideal)
    _q, _proj, q_gmap = rees_quotient(s, tset, gmap)
    lhs = loop_problem(q_gmap)
    rhs, checks = _quotient_formula_rhs(gmap, loop_automaton(gmap), tset)
    return _finish("rees-quotient", lhs, rhs, checks,
                   {"order": s.order, "ideal_size": len(tset)}, t0)


def _restriction_sides(tau: GeneratorMap, x_symbols, base: FiniteSemigroup,
                       base_image=None) -> tuple[Nfa, Nfa]:
    """Both sides of the restriction identity over tau's hat alphabet, X's
    generator i on the letter of x_symbols[i], each side looping at a fresh
    identity: the images base_image (X's under tau by default) in base on
    their positive reach, and L(tau) /\\ X-hat-star, tau's automaton on X's
    letters and their reach."""
    big = HatAlphabet(tau.alphabet)
    letters = sub_hat_letters(big, x_symbols)
    x_image = [tau.image[x] for x in letters[:len(x_symbols)]]
    lhs = table_loop_nfa(base, x_image if base_image is None else base_image, big, letters)
    return lhs, table_loop_nfa(tau.target, x_image, big, letters, both=True)


def verify_subsemigroup_intersection(s: FiniteSemigroup, tau: GeneratorMap,
                                     tset, x_symbols,
                                     require_hypothesis: bool = True) -> VerificationReport:
    """L_sigma(T) = L_tau(S) /\\ X-hat-star for a weakly pseudo-right-unitary
    subsemigroup T generated by the restriction of tau to X.  T^1's loop
    automaton is S^1's on the vertices X's images reach: T and 1 exactly
    when X generates T."""
    t0 = time.perf_counter()
    _check_onto(s, tau)
    tset = _subsemigroup_set(s, tset)  # the one closure check
    wpru = _weakly_pru(s.table, tset)
    if require_hypothesis and not wpru:
        raise HypothesisFailed(f"{sorted(tset)} is not weakly pseudo-right-unitary")
    x_symbols = tuple(x_symbols)
    for sym in x_symbols:
        if sym not in tau.alphabet:
            raise RestrictionNotOntoT(f"symbol {sym!r} is not a generator of S")
        if tau.image[tau.alphabet.index(sym)] not in tset:
            raise RestrictionNotOntoT(f"generator {sym!r} maps outside T")
    if len(set(x_symbols)) != len(x_symbols):
        raise SemigroupError("alphabet symbols must be distinct")
    lhs, rhs = _restriction_sides(tau, x_symbols, s)
    if lhs.n_states != len(tset) + 1:
        raise RestrictionNotOntoT("restricted generators do not generate T")
    return _finish("subsemigroup", lhs, rhs, [],
                   {"order": s.order, "t_size": len(tset), "weakly_pru": wpru}, t0)


def extend_to_zero(gmap: GeneratorMap) -> GeneratorMap:
    """The unique extension of sigma to S^0, one fresh letter to the zero."""
    s0 = adjoin_zero(gmap.target)
    z = _fresh_label(gmap.alphabet, "z")
    args = (gmap.alphabet + (z,), s0, gmap.image + (s0.zero,))
    # without the identity the images of a monoid map may not generate S^0
    return GeneratorMap(*args) if gmap.monoid else _built(GeneratorMap, *args, False)


def verify_adjoin_zero(s: FiniteSemigroup, gmap: GeneratorMap) -> VerificationReport:
    """Loop problem of S^0 against
    L union (prefix(L).z)(z-bar.factor(L).z union any letter)*(z-bar.suffix(L))."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    return _adjoin_zero(s, gmap, extend_to_zero(gmap), t0)


def _sink_union(l: Nfa, z: int) -> Nfa:
    """L union (prefix(L).z)(z-bar.factor(L).z union any letter)*(z-bar.suffix(L))
    on trim(L)'s rows plus one sink state: a z move from every state to the
    sink, a move on every letter from the sink to itself, and a z-bar move
    from the sink to every state.  A path that never visits the sink spells
    L; one that does spells a prefix of L, z, bare letters and z-bar.u.z
    excursions, then z-bar and a suffix of L, since every path of trim(L)
    is a factor of L that extends to a word of L."""
    t = trim(l)
    n, bar = t.n_states, l.alphabet.bar(z)
    to_sink = 1 << z * (n + 1) + n
    rows = [_repack(r, n, n + 1) | to_sink for r in t.rows]
    rows.append(sum(1 << x * (n + 1) + n for x in range(l.alphabet.size))
                | ((1 << n) - 1) << bar * (n + 1))
    return _built(Nfa, l.alphabet, n + 1, tuple(rows), t.eps + (0,), t.initial, t.final)


def _adjoin_zero(s: FiniteSemigroup, gmap: GeneratorMap, tau: GeneratorMap,
                 t0: float) -> VerificationReport:
    """verify_adjoin_zero with tau = extend_to_zero(gmap) given: L is S's
    loop automaton on the letters of S^0, and the right side is
    _sink_union(L, z)."""
    lhs = loop_problem(tau)
    big = lhs.alphabet
    z_letter = big.letter(tau.alphabet[-1])
    l_big = table_loop_nfa(gmap.target, gmap.image, big, sub_hat_letters(big, gmap.alphabet))
    return _finish("adjoin-zero", lhs, _sink_union(l_big, z_letter), [],
                   {"order": s.order}, t0)


def verify_semitorees(s: FiniteSemigroup, gmap: GeneratorMap, i_count: int,
                      j_count: int, p: SandwichMatrix,
                      rng: random.Random | None = None) -> VerificationReport:
    """Loop problem of M(S; I, J; P) against the Kleene closure of the
    transducer image of the loop problem of S, built over word letters and
    closed once by epsilon_free; the non-returning loop language K is
    checked against it as well."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    m, rs = rees_matrix(s, i_count, j_count, p, with_zero=False)
    tau = full_generator_map(m)
    return _semitorees(s, gmap, rs, tau, loop_automaton(tau), rng, t0)


def _semitorees(s: FiniteSemigroup, gmap: GeneratorMap, rs, tau: GeneratorMap,
                la_m: Nfa, rng: random.Random | None, t0: float) -> VerificationReport:
    """verify_semitorees given M's structure rs, map tau and loop automaton
    la_m; apply reads each transducer word as one letter (word_letters)."""
    trans = build_rees_transducer(gmap, rs, tau, choose_words(gmap, rng))
    image = t_apply(*word_letters(trans, loop_problem(gmap)))
    closed = epsilon_free(image)
    k_sep = shortest_separator(non_returning_language(la_m), closed)
    return _finish("semitorees", la_m, star(closed),
                   [("K=image", k_sep is None, _render(la_m.alphabet, k_sep))],
                   {"order": s.order, "m_order": tau.target.order,
                    "transducer_states": trans.n_states,
                    "image_states": image.n_states,
                    "closed_image_states": closed.n_states,
                    "transducer_edges": len(trans.edges),
                    "randomized": rng is not None}, t0)


def _sandwich_into(p: SandwichMatrix, zero_index: int) -> SandwichMatrix:
    """Re-read ZERO marks as an actual element (the adjoined zero)."""
    return sandwich([[zero_index if v is None else v for v in row]
                     for row in p.entries])


def verify_semitoreeszero(s: FiniteSemigroup, gmap: GeneratorMap, i_count: int,
                          j_count: int, p: SandwichMatrix) -> VerificationReport:
    """Full pipeline for the Rees construction with zero:
    M^0(S;I,J;P) is the Rees quotient of M' = M(S^0;I,J;P) by the ideal
    I x {0} x J, so its loop problem equals the quotient formula over the
    loop problem of M'; the inputs of that formula are themselves tied back
    to S by the zero-free theorem and the adjoin-zero theorem.

    The quotient and M^0 are equal tables, checked as "quotient-iso-M0":
    rees_quotient keeps the survivors in index order, and M' and M^0 both
    number their triples lexicographically (ReesStructure.triples), so the
    survivors (s not the zero) come in M^0's order; both put their zero
    last, labelled by the same _fresh_label(labels, "0")."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    tau0 = extend_to_zero(gmap)
    rep_zero = _adjoin_zero(s, gmap, tau0, time.perf_counter())
    s0 = tau0.target
    p0 = _sandwich_into(p, s0.zero)
    m_prime, rs_prime = rees_matrix(s0, i_count, j_count, p0, with_zero=False)
    tau_prime = full_generator_map(m_prime)
    la_prime = loop_automaton(tau_prime)
    rep_rees = _semitorees(s0, tau0, rs_prime, tau_prime, la_prime, None, time.perf_counter())
    t_ideal = frozenset(rs_prime.encode(i, s0.zero, j)
                        for i in range(i_count) for j in range(j_count))
    quotient, _proj, tau_q = rees_quotient(m_prime, t_ideal, tau_prime)
    m0 = rees_matrix(s, i_count, j_count, p, with_zero=True)[0]
    rhs, cross = _quotient_formula_rhs(tau_prime, la_prime, t_ideal)
    return _finish("semitoreeszero", loop_problem(tau_q), rhs,
                   [("via-adjoin-zero", rep_zero.holds, rep_zero.witness()),
                    ("via-semitorees", rep_rees.holds, rep_rees.witness()),
                    ("quotient-iso-M0", quotient == m0, None), *cross],
                   {"order": s.order, "m0_order": m0.order}, t0)


def verify_unit_sandwich(s: FiniteSemigroup, gmap: GeneratorMap, i_count: int,
                         j_count: int, p: SandwichMatrix) -> VerificationReport:
    """When the sandwich matrix contains a unit of the monoid S, L(S), read
    at S^1's fresh identity like every side, is the loop problem of the Rees
    semigroup intersected with the words over S's generators, via the column
    embedding s -> (i, s P_ji^-1, j)."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    if s.identity is None:
        raise NoIdentity("the base of the unit-sandwich theorem is a monoid")
    _grp, _emb, inverse = group_of_units(s)
    loc = next(((i, j) for i in range(i_count) for j in range(j_count)
                if p.entry(j, i) in inverse), None)  # a ZERO entry reads None
    if loc is None:
        raise NoUnitInP("sandwich matrix has no unit entry")
    i0, j0 = loc
    with_zero = p.has_zero_entry
    m, rs = rees_matrix(s, i_count, j_count, p, with_zero)
    pinv = inverse[p.entry(j0, i0)]
    rho = [rs.encode(i0, s.mul(x, pinv), j0) for x in range(s.order)]
    if not _is_morphism(s, m, rho):
        raise InternalError("column embedding is not a morphism")
    tset = frozenset(rho)
    x_symbols: list[str] = []
    for sym in gmap.alphabet:
        x_symbols.append(_fresh_label(m.labels + tuple(x_symbols), sym))
    x_symbols = tuple(x_symbols)
    y_symbols = x_symbols + m.labels
    tau = GeneratorMap(y_symbols, m,
                       tuple(rho[v] for v in gmap.image) + tuple(range(m.order)))
    lhs, rhs = _restriction_sides(tau, x_symbols, gmap.target, gmap.image)
    return _finish("unit-sandwich", lhs, rhs,
                   [("column-weakly-pru", is_weakly_pru(m, tset), None)],
                   {"order": s.order, "m_order": m.order, "column": (i0, j0)}, t0)


@dataclass(frozen=True)
class ReesDecomposition:
    group: FiniteSemigroup
    group_embedding: tuple[int, ...]
    i_count: int
    j_count: int
    sandwich: SandwichMatrix
    rees_semigroup: FiniteSemigroup
    rees_structure: object
    isomorphism: tuple[int, ...]  # rebuilt index -> original index


def rees_decompose(s: FiniteSemigroup) -> ReesDecomposition:
    """Rees coordinates of a finite completely zero-simple semigroup: a
    maximal subgroup G at a nonzero idempotent, I and J indexing the R- and
    L-classes of the nonzero elements, P[j][i] = q_j r_i over cross-section
    elements, and the verified isomorphism (i,g,j) -> r_i g q_j."""
    if not is_completely_zero_simple(s):
        raise NotCompletelyZeroSimple("input is not completely zero-simple")
    z = s.zero
    ids = sorted(e for e in idempotents(s) if e != z)
    if not ids:
        raise InternalError("no nonzero idempotent found")
    e = ids[0]
    grp, emb = maximal_subgroup(s, e)
    gindex = {v: i for i, v in enumerate(emb)}
    greens = green_classes(s)
    r_classes = [c for c in greens.r if z not in c]
    l_classes = [c for c in greens.l if z not in c]
    r_e = greens.class_of("r", e)
    l_e = greens.class_of("l", e)

    def pick(cls, other):
        inter = sorted(cls & other)
        if not inter:
            raise InternalError("egg-box cell unexpectedly empty")
        return e if e in inter else inter[0]

    r_cross = [pick(rc, l_e) for rc in r_classes]
    q_cross = [pick(lc, r_e) for lc in l_classes]
    entries = []
    for q in q_cross:
        row = []
        for r in r_cross:
            prod = s.mul(q, r)
            if prod == z:
                row.append(ZERO)
            elif prod in gindex:
                row.append(gindex[prod])
            else:
                raise InternalError("sandwich entry escaped the maximal subgroup")
        entries.append(row)
    p = sandwich(entries)
    if not p.regular:
        raise InternalError("decomposition produced a non-regular sandwich matrix")
    m0, rs0 = rees_matrix(grp, len(r_cross), len(q_cross), p, with_zero=True)
    iso = [None] * m0.order
    for i, r in enumerate(r_cross):
        for g in range(grp.order):
            for j, q in enumerate(q_cross):
                iso[rs0.encode(i, g, j)] = s.mul(r, s.mul(emb[g], q))
    iso[rs0.zero_index] = z
    if sorted(iso) != list(range(s.order)):
        raise InternalError("decomposition map is not a bijection")
    if not _is_morphism(m0, s, iso):
        raise InternalError("decomposition map is not a morphism")
    return ReesDecomposition(grp, emb, len(r_cross), len(q_cross), p,
                             m0, rs0, tuple(iso))


def verify_czeros(s: FiniteSemigroup, gmap: GeneratorMap) -> VerificationReport:
    """Constructive form of the completely zero-simple correspondence: the
    decomposition plus the zero-Rees pipeline ties the loop problem of S to
    the loop problem of its maximal subgroup, and the unit-sandwich theorem
    realizes the downward direction.  S is read through all of its elements
    whatever generators gmap picks; gmap must map onto S."""
    t0 = time.perf_counter()
    _check_onto(s, gmap)
    dec = rees_decompose(s)
    sigma_g = full_generator_map(dec.group)
    rep42 = verify_semitoreeszero(dec.group, sigma_g, dec.i_count, dec.j_count,
                                  dec.sandwich)
    tau_m = full_generator_map(dec.rees_semigroup)
    tau_s = GeneratorMap(tau_m.alphabet, s,
                         tuple(dec.isomorphism[v] for v in tau_m.image))
    rep53 = verify_unit_sandwich(dec.group, sigma_g, dec.i_count, dec.j_count,
                                 dec.sandwich)
    return _finish("czeros", loop_problem(tau_s), loop_problem(tau_m),
                   [("via-semitoreeszero", rep42.holds, rep42.witness()),
                    ("via-unit-sandwich", rep53.holds, rep53.witness())],
                   {"order": s.order, "group_order": dec.group.order,
                    "i_count": dec.i_count, "j_count": dec.j_count}, t0)


def negative_control_search(max_order: int = 3, limit: int | None = None):
    """Search small semigroups for a subsemigroup that is not weakly
    pseudo-right-unitary and whose intersection identity fails.  Returns
    (number of non-hypothesis pairs checked, list of failing instances)."""
    checked = 0
    failures = []
    for n in range(1, max_order + 1):
        for s in enumerate_semigroups(n):
            tau = full_generator_map(s)
            for tset in all_subsemigroups(s):
                if _weakly_pru(s.table, tset):  # tset is closed: no gate
                    continue
                checked += 1
                rep = verify_subsemigroup_intersection(
                    s, tau, tset, tuple(s.labels[v] for v in sorted(tset)),
                    require_hypothesis=False)
                if not rep.holds:
                    failures.append((s, tset, rep))
                    if limit is not None and len(failures) >= limit:
                        return checked, failures
    return checked, failures
