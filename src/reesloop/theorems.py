"""One executable verifier per language identity: each builds the left- and
right-hand languages independently and decides equality of minimal DFAs,
reporting a shortest separating word on failure.

Two fine points of the identities, both forced by exhaustive small-order
checking:

* the Rees-quotient identity needs the Kleene star on its middle language,
  L union L_1T . L_TT* . L_T1: a collapsed ideal can be revisited any number
  of times, and consecutive inner visits need not chain through a common
  element of T;
* the adjoin-zero identity admits every single letter as an inner loop at
  the sink vertex, besides the bracketed factors z-bar u z.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import language as lang
from .language import (
    Dfa,
    HatAlphabet,
    Nfa,
    concat,
    embed_hat,
    involution_image,
    left_quotient,
    minimal_dfa,
    prefix_closure,
    restrict,
    right_quotient,
    shortest_separator,
    star,
    factor_closure,
    suffix_closure,
    sub_hat_letters,
    union,
    word_set_nfa,
)
from .loops import LoopAutomaton, loop_automaton, loop_problem, non_returning_language, path_language
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    NoIdentity,
    NotGenerating,
    SandwichMatrix,
    SemigroupError,
    ZERO,
    _built,
    _fresh_label,
    adjoin_zero,
    all_subsemigroups,
    enumerate_semigroups,
    full_generator_map,
    green_classes,
    group_of_units,
    idempotents,
    is_completely_zero_simple,
    is_ideal,
    is_weakly_pru,
    maximal_subgroup,
    rees_matrix,
    rees_quotient,
    sandwich,
    subsemigroup,
)
from .transduce import build_rees_transducer, choose_words, apply as t_apply


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
    """`separator` is a shortest word in the symmetric difference of the two
    compared languages (letters of lhs.alphabet); it is absent whenever the
    main comparison agrees, in particular whenever holds is true.  Failures
    of named side checks are recorded in stats["checks"], with any witness
    already rendered to text."""

    tag: str
    holds: bool
    lhs: Dfa
    rhs: Dfa
    separator: tuple[int, ...] | None
    stats: dict = field(default_factory=dict, compare=False)

    def separator_text(self) -> str | None:
        return _render(self.lhs.alphabet, self.separator)

    def verdict(self) -> str:
        """PASS or FAIL, followed on FAIL by the separator or, failing that,
        the first side-check witness."""
        out = "PASS" if self.holds else "FAIL"
        sep = self.separator_text()
        if sep is None and not self.holds:
            sep = next(iter(self.stats.get("witnesses", {}).values()), None)
        return out if sep is None else f"{out} {sep}"


def _render(alphabet, word) -> str | None:
    if word is None:
        return None
    if not word:
        return "-"
    return ".".join(alphabet.name(x) for x in word)


def _finish(tag: str, lhs_nfa: Nfa, rhs_nfa: Nfa, extra_checks, stats, t0) -> VerificationReport:
    """Minimize both sides, compare, and fold in the extra named checks;
    extra checks carry their witnesses as already rendered text.  The
    minimal DFAs are canonical, so == decides the main comparison; only
    when they differ is the separator found, by walking the two NFAs."""
    lhs = minimal_dfa(lhs_nfa)
    rhs = minimal_dfa(rhs_nfa)
    sep = None if lhs == rhs else shortest_separator(lhs_nfa, rhs_nfa)
    checks = [("main", sep is None, _render(lhs.alphabet, sep))] + list(extra_checks)
    holds = all(ok for _n, ok, _s in checks)
    stats = dict(stats)
    stats["lhs_states"] = lhs.n_states
    stats["rhs_states"] = rhs.n_states
    stats["checks"] = tuple((n, ok) for n, ok, _s in checks)
    failed = {n: text for n, ok, text in checks if not ok and text is not None}
    if failed:
        stats["witnesses"] = failed
    stats["elapsed"] = round(time.perf_counter() - t0, 6)
    return VerificationReport(tag, holds, lhs, rhs, sep, stats)


def result_line(report: VerificationReport, instance_id: str) -> str:
    return f"RESULT {report.tag} {instance_id} {report.verdict()}"


def _quotient_formula_rhs(gmap: GeneratorMap, ideal, la: LoopAutomaton) -> tuple[Nfa, list]:
    """L union (L R-bar^-1)(R^-1 L R-bar^-1)*(R^-1 L) for R a set of shortest
    representative words of the ideal, plus the three path-language
    cross-checks."""
    big = la.alphabet
    l_nfa = la.nfa
    words = choose_words(gmap)
    reps = [words[t] for t in sorted(ideal)]
    r_nfa = word_set_nfa(big, reps)
    r_bar = involution_image(r_nfa)
    l_1t = right_quotient(l_nfa, r_bar)
    l_t1 = left_quotient(r_nfa, l_nfa)
    l_tt = right_quotient(l_t1, r_bar)
    rhs = union(l_nfa, concat(concat(l_1t, star(l_tt)), l_t1))
    ident = {la.identity_state}
    checks = []
    for name, formula, frm, to in (("L1T=path(1,T)", l_1t, ident, ideal),
                                   ("LTT=path(T,T)", l_tt, ideal, ideal),
                                   ("LT1=path(T,1)", l_t1, ideal, ident)):
        sep = shortest_separator(formula, path_language(la, frm, to))
        checks.append((name, sep is None, _render(big, sep)))
    return rhs, checks


def verify_rees_quotient(s: FiniteSemigroup, gmap: GeneratorMap, ideal) -> VerificationReport:
    """Loop problem of S/T against the quotient formula over the loop
    problem of S, with the three quotient languages cross-checked against
    path languages read off the loop automaton directly."""
    t0 = time.perf_counter()
    tset = frozenset(ideal)
    _q, _proj, q_gmap = rees_quotient(s, tset, gmap)
    lhs = loop_problem(q_gmap)
    la = loop_automaton(gmap)
    rhs, checks = _quotient_formula_rhs(gmap, tset, la)
    return _finish("rees-quotient", lhs, rhs, checks,
                   {"order": s.order, "ideal_size": len(tset)}, t0)


def verify_subsemigroup_intersection(s: FiniteSemigroup, tau: GeneratorMap,
                                     tset, x_symbols,
                                     require_hypothesis: bool = True) -> VerificationReport:
    """L_sigma(T) = L_tau(S) /\\ X-hat-star for a weakly pseudo-right-unitary
    subsemigroup T generated by the restriction of tau to X."""
    t0 = time.perf_counter()
    tset = frozenset(tset)
    wpru = is_weakly_pru(s, tset)
    if require_hypothesis and not wpru:
        raise HypothesisFailed(f"{sorted(tset)} is not weakly pseudo-right-unitary")
    x_symbols = tuple(x_symbols)
    for sym in x_symbols:
        if sym not in tau.alphabet:
            raise RestrictionNotOntoT(f"symbol {sym!r} is not a generator of S")
        if tau.image[tau.alphabet.index(sym)] not in tset:
            raise RestrictionNotOntoT(f"generator {sym!r} maps outside T")
    tsub, emb = subsemigroup(s, tset)
    back = {v: i for i, v in enumerate(emb)}
    try:
        sigma = GeneratorMap(x_symbols, tsub,
                             tuple(back[tau.image[tau.alphabet.index(sym)]]
                                   for sym in x_symbols))
    except NotGenerating:
        raise RestrictionNotOntoT("restricted generators do not generate T") from None
    big = HatAlphabet(tau.alphabet)
    lhs = embed_hat(loop_problem(sigma), big)
    rhs = restrict(loop_problem(tau), sub_hat_letters(big, x_symbols))
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
    tau = extend_to_zero(gmap)
    lhs = loop_problem(tau)
    big = HatAlphabet(tau.alphabet)
    z_letter = big.letter(tau.alphabet[-1])
    l_small = loop_problem(gmap)
    l_big = embed_hat(l_small, big)
    z_nfa = word_set_nfa(big, [(z_letter,)])
    zbar_nfa = word_set_nfa(big, [(big.bar(z_letter),)])
    bracketed = concat(concat(zbar_nfa, embed_hat(factor_closure(l_small), big)), z_nfa)
    one_letter = word_set_nfa(big, [(x,) for x in range(big.size)])
    middle = star(union(bracketed, one_letter))
    rhs = union(l_big, concat(concat(concat(concat(
        prefix_closure(l_big), z_nfa), middle), zbar_nfa), suffix_closure(l_big)))
    return _finish("adjoin-zero", lhs, rhs, [], {"order": s.order}, t0)


def verify_semitorees(s: FiniteSemigroup, gmap: GeneratorMap, i_count: int,
                      j_count: int, p: SandwichMatrix,
                      rng: random.Random | None = None) -> VerificationReport:
    """Loop problem of M(S; I, J; P) against the Kleene closure of the
    transducer image of the loop problem of S; the non-returning loop
    language K is checked against the image as well."""
    t0 = time.perf_counter()
    m, rs = rees_matrix(s, i_count, j_count, p, with_zero=False)
    tau = full_generator_map(m)
    words = choose_words(gmap, rng) if rng is not None else None
    trans = build_rees_transducer(gmap, rs, tau, words)
    la_m = loop_automaton(tau)
    image = t_apply(trans, loop_problem(gmap))
    k_sep = shortest_separator(non_returning_language(la_m), image)
    lhs = la_m.nfa
    rhs = star(image)
    return _finish("semitorees", lhs, rhs,
                   [("K=image", k_sep is None, _render(la_m.alphabet, k_sep))],
                   {"order": s.order, "m_order": m.order,
                    "transducer_states": trans.n_states,
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
    to S by the zero-free theorem and the adjoin-zero theorem."""
    t0 = time.perf_counter()
    rep_zero = verify_adjoin_zero(s, gmap)
    tau0 = extend_to_zero(gmap)
    s0 = tau0.target
    p0 = _sandwich_into(p, s0.zero)
    rep_rees = verify_semitorees(s0, tau0, i_count, j_count, p0)
    m_prime, rs_prime = rees_matrix(s0, i_count, j_count, p0, with_zero=False)
    tau_prime = full_generator_map(m_prime)
    t_ideal = frozenset(rs_prime.encode(i, s0.zero, j)
                        for i in range(i_count) for j in range(j_count))
    ideal_ok = is_ideal(m_prime, t_ideal)
    checks = [("via-adjoin-zero", rep_zero.holds, rep_zero.separator_text()),
              ("via-semitorees", rep_rees.holds, rep_rees.separator_text()),
              ("T-is-ideal", ideal_ok, None)]
    quotient, proj, tau_q = rees_quotient(m_prime, t_ideal, tau_prime)
    m0, rs0 = rees_matrix(s, i_count, j_count, p, with_zero=True)
    phi = [None] * quotient.order
    for mp in range(m_prime.order):
        if mp in t_ideal:
            continue
        i, g, j = rs_prime.decode(mp)
        phi[proj[mp]] = rs0.encode(i, g, j)
    phi[quotient.zero] = rs0.zero_index
    iso_ok = (sorted(phi) == list(range(m0.order))
              and all(m0.table[phi[a]][phi[b]] == phi[quotient.table[a][b]]
                      for a in range(quotient.order) for b in range(quotient.order)))
    checks.append(("quotient-iso-M0", iso_ok, None))
    la_prime = loop_automaton(tau_prime)
    rhs, cross = _quotient_formula_rhs(tau_prime, t_ideal, la_prime)
    checks.extend(cross)
    tau_m0 = GeneratorMap(tau_q.alphabet, m0, tuple(phi[v] for v in tau_q.image))
    lhs = loop_problem(tau_m0)
    return _finish("semitoreeszero", lhs, rhs, checks,
                   {"order": s.order, "m0_order": m0.order}, t0)


def find_admissible_column(s: FiniteSemigroup, p: SandwichMatrix):
    """Some (i, j) with P[j][i] nonzero and S P[j'][i] inside S P[j][i] for
    every j' with a nonzero entry, or None."""
    for i in range(p.cols):
        for j in range(p.rows):
            pji = p.entry(j, i)
            if pji is None:
                continue
            spji = {s.mul(x, pji) for x in range(s.order)}
            if all(p.entry(jp, i) is None
                   or {s.mul(x, p.entry(jp, i)) for x in range(s.order)} <= spji
                   for jp in range(p.rows)):
                return (i, j)
    return None


def verify_unit_sandwich(s: FiniteSemigroup, gmap: GeneratorMap, i_count: int,
                         j_count: int, p: SandwichMatrix) -> VerificationReport:
    """When the sandwich matrix contains a unit of the base monoid, the loop
    problem of the base is the loop problem of the Rees semigroup intersected
    with the words over the base generators, via the column embedding
    s -> (i, s P_ji^-1, j)."""
    t0 = time.perf_counter()
    if s.identity is None:
        raise NoIdentity("the base of the unit-sandwich theorem is a monoid")
    _grp, _emb, inverse = group_of_units(s)
    loc = None
    for i in range(i_count):
        for j in range(j_count):
            v = p.entry(j, i)
            if v is not None and v in inverse:
                loc = (i, j, v)
                break
        if loc:
            break
    if loc is None:
        raise NoUnitInP("sandwich matrix has no unit entry")
    i0, j0, pji = loc
    with_zero = p.has_zero_entry
    m, rs = rees_matrix(s, i_count, j_count, p, with_zero)
    pinv = inverse[pji]
    rho = [rs.encode(i0, s.mul(x, pinv), j0) for x in range(s.order)]
    for a in range(s.order):
        for b in range(s.order):
            if m.table[rho[a]][rho[b]] != rho[s.mul(a, b)]:
                raise InternalError("column embedding is not a morphism")
    tset = frozenset(rho)
    x_symbols: list[str] = []
    for sym in gmap.alphabet:
        x_symbols.append(_fresh_label(m.labels + tuple(x_symbols), sym))
    x_symbols = tuple(x_symbols)
    y_symbols = x_symbols + m.labels
    tau = GeneratorMap(y_symbols, m,
                       tuple(rho[v] for v in gmap.image) + tuple(range(m.order)))
    big = HatAlphabet(y_symbols)
    small = HatAlphabet(x_symbols)
    lhs_small = lang.relabel(loop_problem(gmap), small,
                             _hat_letter_map(HatAlphabet(gmap.alphabet), small))
    lhs = embed_hat(lhs_small, big)
    rhs = restrict(loop_problem(tau), sub_hat_letters(big, x_symbols))
    return _finish("unit-sandwich", lhs, rhs, [],
                   {"order": s.order, "m_order": m.order,
                    "column": (i0, j0), "weakly_pru": is_weakly_pru(m, tset)}, t0)


def _hat_letter_map(src: HatAlphabet, dst: HatAlphabet) -> dict[int, int]:
    """Positional letter map between equally sized hat alphabets."""
    k = len(src.base)
    return {x: (x if x < k else len(dst.base) + (x - k)) for x in range(src.size)}


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
    if any(s.table[iso[a]][iso[b]] != iso[m0.table[a][b]]
           for a in range(m0.order) for b in range(m0.order)):
        raise InternalError("decomposition map is not a morphism")
    return ReesDecomposition(grp, emb, len(r_cross), len(q_cross), p,
                             m0, rs0, tuple(iso))


def verify_czeros(s: FiniteSemigroup, gmap: GeneratorMap) -> VerificationReport:
    """Constructive form of the completely zero-simple correspondence: the
    decomposition plus the zero-Rees pipeline ties the loop problem of S to
    the loop problem of its maximal subgroup, and the unit-sandwich theorem
    realizes the downward direction."""
    t0 = time.perf_counter()
    dec = rees_decompose(s)
    sigma_g = full_generator_map(dec.group)
    rep42 = verify_semitoreeszero(dec.group, sigma_g, dec.i_count, dec.j_count,
                                  dec.sandwich)
    checks = [("via-semitoreeszero", rep42.holds, rep42.separator_text())]
    tau_m = full_generator_map(dec.rees_semigroup)
    tau_s = GeneratorMap(tau_m.alphabet, s,
                         tuple(dec.isomorphism[v] for v in tau_m.image))
    lhs = loop_problem(tau_s)
    rhs = loop_problem(tau_m)
    rep53 = verify_unit_sandwich(dec.group, sigma_g, dec.i_count, dec.j_count,
                                 dec.sandwich)
    checks.append(("via-unit-sandwich", rep53.holds, rep53.separator_text()))
    return _finish("czeros", lhs, rhs, checks,
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
                if is_weakly_pru(s, tset):
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
