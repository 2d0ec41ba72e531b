import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from reesloop import language, semigroup, theorems
from reesloop.cli import _sandwiches, iter_instances, run_job
from reesloop.language import (HatAlphabet, concat, factor_closure, member,
                               minimal_dfa, prefix_closure, relabel,
                               shortest_separator, star, sub_hat_letters,
                               suffix_closure, trim, union, word_set_nfa)
from reesloop.loops import (loop_automaton, loop_problem, non_returning_language,
                            path_language)
from reesloop.semigroup import (
    NAMED_SEMIGROUPS,
    NotAnIdeal,
    ZERO,
    adjoin_zero,
    all_subsemigroups,
    are_isomorphic,
    brandt_b2,
    cyclic_group,
    enumerate_semigroups,
    full_generator_map,
    is_completely_zero_simple,
    is_weakly_pru,
    make_semigroup,
    null_semigroup,
    rees_matrix,
    rees_quotient,
    sandwich,
    subsemigroup,
    trivial_semigroup,
)
from reesloop.theorems import (
    HypothesisFailed,
    NoUnitInP,
    NotCompletelyZeroSimple,
    extend_to_zero,
    find_admissible_column,
    negative_control_search,
    rees_decompose,
    result_line,
    verify_adjoin_zero,
    verify_czeros,
    verify_rees_quotient,
    verify_semitorees,
    verify_semitoreeszero,
    verify_subsemigroup_intersection,
    verify_unit_sandwich,
)
from reesloop.transduce import apply, build_rees_transducer, choose_words

from test_language import any_nfa, dfa_product_separator, small_nfa
from test_semigroup import break_morphism_check


def quotient_parts(l, e):
    """L_1T, L_TT and L_T1 read off L's rows: the paths from L's initial
    states to the end set E, from E to E, and from E to L's final states."""
    return (path_language(l, l.initial, e), path_language(l, e, e),
            path_language(l, e, l.final))


def reference_quotient_union(l, l_1t, l_tt, l_t1):
    """theorems._quotient_union as it was before it laid the star out on L's
    rows: L, L_1T, L_TT and L_T1 side by side, by union, concat and star."""
    return union(l, concat(l_1t, star(l_tt), l_t1))


def reference_sink_union(l, z, bare_letters=True):
    """theorems._sink_union as it was before it laid the sink out on
    trim(L)'s rows: L union prefix(L) z (z-bar factor(L) z union any
    letter)* z-bar suffix(L), by union, concat and star over four copies of
    L.  Without bare_letters the middle is the bracketed factors alone."""
    big = l.alphabet
    z_nfa = word_set_nfa(big, [(z,)])
    zbar_nfa = word_set_nfa(big, [(big.bar(z),)])
    middle = concat(zbar_nfa, factor_closure(l), z_nfa)
    if bare_letters:
        middle = union(middle, word_set_nfa(big, [(x,) for x in range(big.size)]))
    return union(l, concat(prefix_closure(l), z_nfa, star(middle), zbar_nfa,
                           suffix_closure(l)))


class TestReesQuotient:
    def test_c2_zero_by_zero_ideal(self):
        s = adjoin_zero(cyclic_group(2))
        rep = verify_rees_quotient(s, full_generator_map(s), {s.zero})
        assert rep.holds and rep.separator is None

    def test_degenerate_whole_ideal(self):
        s = cyclic_group(2)
        rep = verify_rees_quotient(s, full_generator_map(s), {0, 1})
        assert rep.holds

    def test_requires_ideal(self):
        s = adjoin_zero(cyclic_group(2))
        with pytest.raises(NotAnIdeal):
            verify_rees_quotient(s, full_generator_map(s), {0})

    def test_cross_oracles_present(self, monkeypatch):
        # the report carries the one end-set check, and the three quotients
        # read off L's rows at E are the path languages between 1 and T
        real, ends = theorems._quotient_union, []
        monkeypatch.setattr(theorems, "_quotient_union",
                            lambda l, e: ends.append((l, e)) or real(l, e))
        s = adjoin_zero(cyclic_group(2))
        ideal = frozenset({s.zero})
        rep = verify_rees_quotient(s, full_generator_map(s), ideal)
        assert [c for c in rep.checks if c[0] == "E=T"] == [("E=T", True, None)]
        (l, e), = ends
        oracles = (path_language(l, l.initial, ideal), path_language(l, ideal, ideal),
                   path_language(l, ideal, l.final))
        for part, oracle in zip(quotient_parts(l, e), oracles):
            assert shortest_separator(part, oracle) is None

    def test_l_tt_is_the_left_quotient_of_l_1t(self, monkeypatch):
        """L_TT, read off L's rows with L_T1's initial and L_1T's final
        states, is R^-1 (L R-bar^-1) and (R^-1 L) R-bar^-1: a quotient keeps
        L's rows and moves one end set."""
        real = theorems._quotient_union
        calls = []
        monkeypatch.setattr(theorems, "_quotient_union",
                            lambda l, e: calls.append((l, e)) or real(l, e))
        count = 0
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                gmap = full_generator_map(s)
                words = choose_words(gmap)
                for ideal in semigroup.all_ideals(s):
                    l_nfa = loop_automaton(gmap)
                    theorems._quotient_formula_rhs(gmap, l_nfa, ideal)
                    (l, e), = calls
                    calls.clear()
                    l_1t, l_tt, l_t1 = quotient_parts(l, e)
                    r = word_set_nfa(l.alphabet, [words[t] for t in sorted(ideal)])
                    assert l is l_nfa
                    assert l_tt == language.left_quotient(r, l_1t) == \
                        language.right_quotient(l_t1, language.involution_image(r))
                    count += 1
        assert count > 122

    def test_quotient_union_is_the_combinator_form_on_l_rows(self, monkeypatch):
        """Every ideal of every semigroup of order <= 3 and of B2, and the
        ideal I x {0} x J of M(S^0; I, J; P) in every default semitoreeszero
        instance: the right side, L's rows with the end set E merged into
        one state, is S/T's loop automaton itself, and its language is the
        combinator form's."""
        real, real_quotient = theorems._quotient_union, theorems.rees_quotient
        calls, quotients = [], []

        def checked(l, e):
            rhs = real(l, e)
            assert rhs == loop_problem(quotients[-1])
            assert minimal_dfa(rhs) == minimal_dfa(
                reference_quotient_union(l, *quotient_parts(l, e)))
            calls.append(rhs)
            return rhs

        def quotient(*args):
            out = real_quotient(*args)
            quotients.append(out[2])
            return out

        monkeypatch.setattr(theorems, "rees_quotient", quotient)
        monkeypatch.setattr(theorems, "_quotient_union", checked)
        semigroups = [s for n in (1, 2, 3) for s in enumerate_semigroups(n)]
        for s in semigroups + [brandt_b2()]:
            gmap = full_generator_map(s)
            for ideal in semigroup.all_ideals(s):
                assert verify_rees_quotient(s, gmap, ideal).holds
        ideals = len(calls)
        for _iid, (_tag, args) in iter_instances("semitoreeszero"):
            assert verify_semitoreeszero(*args).holds
        assert ideals > 122 and len(calls) - ideals == 128

    def test_quotient_union_at_the_identity_alone_is_l(self):
        # merging the end set {1}, which L's numbering already puts last,
        # leaves L itself
        l = loop_automaton(full_generator_map(brandt_b2()))
        assert theorems._quotient_union(l, l.initial) is l

    def test_l_1t_is_the_right_quotient_by_r_bar_with_no_reversal(self, monkeypatch):
        """Every ideal of every semigroup of order <= 3 and of B2, and the
        ideal I x {0} x J of every default semitoreeszero instance: L_1T,
        read off the walk for R^-1 L, is L R-bar^-1 as right_quotient and
        involution_image build it, and no verdict reverses an automaton."""
        real_rhs, real_union = theorems._quotient_formula_rhs, theorems._quotient_union
        reversed_, sides = [], []

        def rhs(gmap, l_nfa, ideal):
            words = choose_words(gmap)
            r = word_set_nfa(l_nfa.alphabet, [words[t] for t in sorted(ideal)])
            sides.append([l_nfa, r])
            return real_rhs(gmap, l_nfa, ideal)

        monkeypatch.setattr(language, "_reverse", lambda a: reversed_.append(a))
        monkeypatch.setattr(theorems, "_quotient_formula_rhs", rhs)
        monkeypatch.setattr(theorems, "_quotient_union",
                            lambda l, e: sides[-1].append(quotient_parts(l, e)[0])
                            or real_union(l, e))
        semigroups = [s for n in (1, 2, 3) for s in enumerate_semigroups(n)]
        for s in semigroups + [brandt_b2()]:
            gmap = full_generator_map(s)
            for ideal in semigroup.all_ideals(s):
                assert verify_rees_quotient(s, gmap, ideal).holds
        ideals = len(sides)
        for _iid, (_tag, args) in iter_instances("semitoreeszero"):
            assert verify_semitoreeszero(*args).holds
        assert ideals > 122 and len(sides) - ideals == 128
        assert reversed_ == []
        monkeypatch.undo()
        for l, r, l_1t in sides:
            assert l_1t == language.right_quotient(l, language.involution_image(r))

    @pytest.mark.parametrize("broken", ["epsilon", "finals"])
    def test_quotient_formula_needs_a_loop_automaton(self, broken):
        # the end set E of R^-1 L's walk is that of L R-bar^-1 only for an
        # automaton with no epsilon moves whose one final state is initial
        s = brandt_b2()
        gmap = full_generator_map(s)
        l = loop_automaton(gmap)
        ideal = frozenset({s.zero})
        theorems._quotient_formula_rhs(gmap, l, ideal)
        other = star(l) if broken == "epsilon" else path_language(l, l.initial, ideal)
        with pytest.raises(theorems.InternalError, match="loop automaton"):
            theorems._quotient_formula_rhs(gmap, other, ideal)


class TestSubsemigroup:
    def test_whole_is_trivial(self):
        s = cyclic_group(2)
        tau = full_generator_map(s)
        rep = verify_subsemigroup_intersection(s, tau, {0, 1}, tau.alphabet)
        assert rep.holds

    def test_cor_3_3_shape(self):
        s = cyclic_group(3)
        tau = extend_to_zero(full_generator_map(s))
        rep = verify_subsemigroup_intersection(
            tau.target, tau, set(range(s.order)), tau.alphabet[:-1])
        assert rep.holds

    def test_hypothesis_gate(self):
        s = make_semigroup(None, ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
        tau = full_generator_map(s)
        assert not is_weakly_pru(s, {0, 2})
        with pytest.raises(HypothesisFailed):
            verify_subsemigroup_intersection(s, tau, {0, 2}, ("s0", "s2"))
        rep = verify_subsemigroup_intersection(s, tau, {0, 2}, ("s0", "s2"),
                                               require_hypothesis=False)
        assert rep.stats["weakly_pru"] is False

    def test_rees_column_instance(self):
        # Prop 5.1 column inside a small Rees semigroup
        c2 = cyclic_group(2)
        m, rs = rees_matrix(c2, 2, 2, sandwich([[0, 1], [1, 0]]), False)
        col = find_admissible_column(c2, rs.sandwich)
        assert col is not None
        i0, j0 = col
        tset = frozenset(rs.encode(i0, g, j0) for g in range(2))
        tau = full_generator_map(m)
        labels = tuple(m.labels[v] for v in sorted(tset))
        rep = verify_subsemigroup_intersection(m, tau, tset, labels)
        assert rep.holds


class TestAdjoinZero:
    def test_trivial_and_small(self):
        triv = trivial_semigroup()
        from reesloop.loops import loop_automaton
        la = loop_automaton(extend_to_zero(full_generator_map(triv)))
        assert la.n_states == 3  # S^0 plus the adjoined identity
        rep = verify_adjoin_zero(triv, full_generator_map(triv))
        assert rep.holds

    def test_c2(self):
        rep = verify_adjoin_zero(cyclic_group(2), full_generator_map(cyclic_group(2)))
        assert rep.holds

    def test_l_is_written_on_the_letters_of_s_zero(self, monkeypatch):
        # _sink_union reads L once per verdict, written from S's table; it
        # is S's loop problem relabelled onto the letters of S^0
        seen = []
        real = theorems._sink_union
        monkeypatch.setattr(theorems, "_sink_union",
                            lambda l, z: seen.append(l) or real(l, z))
        checked = 0
        for _iid, (_tag, (s, gmap)) in iter_instances("adjoin-zero", max_order=4):
            assert verify_adjoin_zero(s, gmap).holds
            big = HatAlphabet(extend_to_zero(gmap).alphabet)
            want = relabel(loop_problem(gmap), big, sub_hat_letters(big, gmap.alphabet))
            assert seen.pop() == want
            checked += 1
        assert checked == 1 + 8 + 113 + 3492 and not seen

    def test_sink_union_is_the_combinator_form_on_trim_l_rows(self, monkeypatch):
        """Every adjoin-zero instance of order <= 3, B2, and the adjoin-zero
        leg of every default semitoreeszero instance: the right side is
        trim(L) plus one sink state without epsilon moves of its own, and
        its language is the combinator form's."""
        real = theorems._sink_union
        calls = []

        def checked(l, z):
            rhs, t = real(l, z), trim(l)
            assert rhs.n_states == t.n_states + 1 and rhs.eps == t.eps + (0,)
            assert (rhs.initial, rhs.final) == (t.initial, t.final)
            assert minimal_dfa(rhs) == minimal_dfa(reference_sink_union(l, z))
            calls.append(rhs)
            return rhs

        monkeypatch.setattr(theorems, "_sink_union", checked)
        for _iid, (_tag, args) in iter_instances("adjoin-zero", max_order=3):
            assert verify_adjoin_zero(*args).holds
        b2 = brandt_b2()
        assert verify_adjoin_zero(b2, full_generator_map(b2)).holds
        instances = len(calls)
        for _iid, (_tag, args) in iter_instances("semitoreeszero"):
            assert verify_semitoreeszero(*args).holds
        assert instances == 1 + 8 + 113 + 1 and len(calls) - instances == 128

    def test_bracketed_middle_alone_is_not_enough(self):
        # inner loops at the sink may be bare letters, not only factors
        # bracketed by the fresh letter pair; z z z-bar reaches the sink,
        # loops once, and returns
        triv = trivial_semigroup()
        tau = extend_to_zero(full_generator_map(triv))
        from reesloop.loops import loop_problem
        lp = loop_problem(tau)
        a = lp.alphabet
        z = a.letter(tau.alphabet[-1])
        assert member(lp, (z, z, a.bar(z)))
        assert member(lp, (z, a.letter("e"), a.bar(z)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_nfa, any_nfa), st.integers(0, 3))
def test_sink_union_is_the_combinator_form_on_any_nfa(l, z):
    # any letter of X^ as z, also one that L itself reads, over NFAs with
    # epsilon moves, silent states and empty languages
    assert minimal_dfa(theorems._sink_union(l, z)) == minimal_dfa(reference_sink_union(l, z))


def embed_hat(a, target):
    """The former by-name embedding, kept as a reference: each letter of a's
    hat alphabet goes to the letter of target with the same name."""
    return relabel(a, target, {x: target.letter(a.alphabet.name(x))
                               for x in range(a.alphabet.size)})


def _hat_letter_map(src, dst):
    """The former positional letter map, kept as a reference; it is right
    only while src's base is a prefix of dst's."""
    k = len(src.base)
    return {x: (x if x < k else len(dst.base) + (x - k)) for x in range(src.size)}


class TestHatLetterMap:
    """sub_hat_letters is the one map that moves a loop language into a
    larger hat alphabet; it agrees with both maps it replaced."""

    def test_relabel_by_sub_hat_letters_is_the_by_name_embedding(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for s in enumerate_semigroups(n):
                big = HatAlphabet(s.labels)
                for tset in all_subsemigroups(s):
                    tsub, _emb = subsemigroup(s, tset)
                    l = loop_problem(full_generator_map(tsub))
                    letters = sub_hat_letters(big, tsub.labels)
                    assert relabel(l, big, letters) == embed_hat(l, big)
                    checked += 1
        assert checked == 34019

    def test_unit_sandwich_letters_are_the_positional_map(self, monkeypatch):
        seen = []
        real = theorems.sub_hat_letters
        monkeypatch.setattr(theorems, "sub_hat_letters",
                            lambda big, syms: seen.append((big, syms)) or real(big, syms))
        # each czeros instance runs the unit-sandwich verifier and, through
        # semitoreeszero, the adjoin-zero one, whose letters extend by z
        for tag in ("unit-sandwich", "czeros"):
            for item in iter_instances(tag):
                assert run_job(item)[1]
        assert len(seen) == 386 + 2 * 59
        for big, syms in seen:
            small = HatAlphabet(syms)
            positional = _hat_letter_map(small, big)
            assert real(big, syms) == [positional[x] for x in range(small.size)]

    def test_factor_closure_commutes_with_the_embedding(self):
        checked = 0
        for _iid, (_tag, (_s, gmap)) in iter_instances("adjoin-zero", max_order=4):
            big = HatAlphabet(extend_to_zero(gmap).alphabet)
            l_small = loop_problem(gmap)
            l_big = relabel(l_small, big, sub_hat_letters(big, gmap.alphabet))
            assert factor_closure(l_big) == embed_hat(factor_closure(l_small), big)
            checked += 1
        assert checked == 1 + 8 + 113 + 3492


class TestSemitorees:
    def test_c2_one_by_one(self):
        rep = verify_semitorees(cyclic_group(2), full_generator_map(cyclic_group(2)),
                                1, 1, sandwich([[0]]))
        assert rep.holds
        assert ("K=image", True, None) in rep.checks

    def test_trivial(self):
        rep = verify_semitorees(trivial_semigroup(),
                                full_generator_map(trivial_semigroup()),
                                1, 1, sandwich([[0]]))
        assert rep.holds

    def test_randomized_representatives(self):
        rep = verify_semitorees(cyclic_group(2), full_generator_map(cyclic_group(2)),
                                2, 2, sandwich([[0, 1], [1, 0]]),
                                rng=random.Random(11))
        assert rep.holds and rep.stats["randomized"]


def raw_image_semitorees(s, gmap, i_count, j_count, p, rng=None):
    """verify_semitorees as it was before the image was closed once, kept
    as a reference: the K check and the star read the raw image."""
    t0 = time.perf_counter()
    m, rs = rees_matrix(s, i_count, j_count, p, with_zero=False)
    tau = full_generator_map(m)
    trans = build_rees_transducer(gmap, rs, tau, choose_words(gmap, rng))
    la_m = loop_automaton(tau)
    image = apply(trans, loop_problem(gmap))
    k_sep = shortest_separator(non_returning_language(la_m), image)
    return theorems._finish("semitorees", la_m, star(image),
                            [("K=image", k_sep is None,
                              theorems._render(la_m.alphabet, k_sep))], {}, t0)


class TestClosedImage:
    def test_every_corpus_verdict_is_the_raw_image_verdict(self):
        jobs = list(iter_instances("semitorees"))
        assert sum(iid.endswith(":randomrep") for iid, _job in jobs) == 3
        for iid, (_tag, args) in jobs:
            *args, seed = args
            rep, ref = (verify(*args, rng=None if seed is None else random.Random(seed))
                        for verify in (verify_semitorees, raw_image_semitorees))
            assert (rep.checks, rep.separator, rep.lhs, rep.rhs) == \
                (ref.checks, ref.separator, ref.lhs, ref.rhs), iid

    def test_stats_count_the_image_before_and_after_closing(self):
        job = dict(iter_instances("semitorees"))["c3:I2J2:P=g2,g2;g,e"]
        rep = verify_semitorees(*job[1][:-1])
        assert (rep.stats["image_states"], rep.stats["closed_image_states"]) == (357, 18)


class TestSemitoreesZero:
    def test_brandt(self):
        rep = verify_semitoreeszero(trivial_semigroup(),
                                    full_generator_map(trivial_semigroup()),
                                    2, 2, sandwich([[0, ZERO], [ZERO, 0]]))
        assert rep.holds
        assert ("quotient-iso-M0", True, None) in rep.checks

    def test_the_rees_quotient_is_the_ideal_check(self, monkeypatch):
        # T = I x {0} x J is checked once, by rees_quotient: a T it does
        # not take for an ideal raises, so no recorded check could read False
        monkeypatch.setattr(semigroup, "is_ideal", lambda s, t: False)
        with pytest.raises(NotAnIdeal):
            verify_semitoreeszero(trivial_semigroup(),
                                  full_generator_map(trivial_semigroup()),
                                  2, 2, sandwich([[0, ZERO], [ZERO, 0]]))

    def test_m_prime_its_loop_automaton_and_tau0_are_built_once(self, monkeypatch):
        # the nested semitorees leg and the quotient formula share M', its
        # generator map and its loop automaton; the adjoin-zero leg shares
        # tau0; the second rees_matrix call builds M^0
        calls = []

        def counted(f):
            def call(*args, **kw):
                calls.append(f.__name__)
                return f(*args, **kw)
            return call

        names = ("rees_matrix", "full_generator_map", "loop_automaton", "extend_to_zero")
        for name in names:
            monkeypatch.setattr(theorems, name, counted(getattr(theorems, name)))
        iid = "c2:I2J2:P=e,e;e,0"
        job = dict(iter_instances("semitoreeszero"))[iid]
        assert run_job((iid, job)) == (iid, True, f"RESULT semitoreeszero {iid} PASS")
        assert [calls.count(name) for name in names] == [2, 1, 1, 1]

    def test_all_zero_matrix(self):
        rep = verify_semitoreeszero(trivial_semigroup(),
                                    full_generator_map(trivial_semigroup()),
                                    2, 2, sandwich([[ZERO, ZERO], [ZERO, ZERO]]))
        assert rep.holds

    @pytest.mark.parametrize("name", sorted(NAMED_SEMIGROUPS))
    def test_the_quotient_of_m_prime_is_m0_itself(self, name):
        # M(S^0;I,J;P)/(I x {0} x J) and M^0(S;I,J;P) are one table, labels
        # and zero included, for every I, J <= 2 and every P over S and ZERO
        s = NAMED_SEMIGROUPS[name]()
        s0 = adjoin_zero(s)
        count = 0
        for ic, jc in itertools.product((1, 2), repeat=2):
            for p in _sandwiches(s, ic, jc, allow_zero=True):
                p0 = theorems._sandwich_into(p, s0.zero)
                m_prime, rs = rees_matrix(s0, ic, jc, p0, with_zero=False)
                ideal = {rs.encode(i, s0.zero, j) for i in range(ic) for j in range(jc)}
                m0 = rees_matrix(s, ic, jc, p, with_zero=True)[0]
                assert rees_quotient(m_prime, ideal)[0] == m0
                count += 1
        n = s0.order
        assert count == n + 2 * n ** 2 + n ** 4


class TestUnitSandwich:
    def test_c2_with_zero_entries(self):
        rep = verify_unit_sandwich(cyclic_group(2), full_generator_map(cyclic_group(2)),
                                   2, 2, sandwich([[0, ZERO], [1, 0]]))
        assert rep.holds

    def test_monoid_with_zero_adjoined(self):
        s = adjoin_zero(cyclic_group(2))  # monoid with identity and zero
        rep = verify_unit_sandwich(s, full_generator_map(s),
                                   1, 2, sandwich([[0], [s.zero]]))
        assert rep.holds

    def test_trivial_base(self):
        rep = verify_unit_sandwich(trivial_semigroup(),
                                   full_generator_map(trivial_semigroup()),
                                   1, 1, sandwich([[0]]))
        assert rep.holds

    def test_column_hypothesis_is_a_named_check(self, monkeypatch):
        # the main comparison still holds; the report FAILs on the column
        # check alone, which has no witness
        monkeypatch.setattr(theorems, "is_weakly_pru", lambda s, t: False)
        rep = verify_unit_sandwich(cyclic_group(2), full_generator_map(cyclic_group(2)),
                                   2, 2, sandwich([[0, ZERO], [1, 0]]))
        assert rep.checks == (("main", True, None), ("column-weakly-pru", False, None))
        assert not rep.holds and rep.verdict() == "FAIL"

    def test_no_unit(self):
        s = adjoin_zero(cyclic_group(2))
        with pytest.raises(NoUnitInP):
            verify_unit_sandwich(s, full_generator_map(s), 1, 1,
                                 sandwich([[s.zero]]))


class TestAdmissibleColumn:
    def test_unit_entry_qualifies(self):
        c2 = cyclic_group(2)
        p = sandwich([[1, ZERO], [ZERO, ZERO]])
        assert find_admissible_column(c2, p) == (0, 0)

    def test_all_zero_matrix(self):
        assert find_admissible_column(cyclic_group(2),
                                      sandwich([[ZERO, ZERO]])) is None

    def test_one_by_one(self):
        assert find_admissible_column(cyclic_group(2), sandwich([[1]])) == (0, 0)


class TestDecompose:
    def test_group_with_zero(self):
        for n in (2, 3):
            g0 = adjoin_zero(cyclic_group(n))
            dec = rees_decompose(g0)
            assert dec.i_count == dec.j_count == 1
            assert are_isomorphic(dec.group, cyclic_group(n))
            assert dec.sandwich.entry(0, 0) is not None

    def test_brandt(self):
        dec = rees_decompose(brandt_b2())
        assert dec.group.order == 1
        assert dec.i_count == dec.j_count == 2
        entries = dec.sandwich.entries
        nonzero = sum(v is not None for row in entries for v in row)
        assert nonzero == 2  # identity pattern up to reindexing
        assert dec.sandwich.regular

    def test_roundtrip_through_rees_matrix(self):
        c2 = cyclic_group(2)
        p = sandwich([[0, ZERO], [1, 0]])
        m0, _ = rees_matrix(c2, 2, 2, p, True)
        assert is_completely_zero_simple(m0)
        dec = rees_decompose(m0)
        assert are_isomorphic(dec.group, c2)
        assert are_isomorphic(dec.rees_semigroup, m0)

    def test_rejects_non_czs(self):
        with pytest.raises(NotCompletelyZeroSimple):
            rees_decompose(null_semigroup(2))


class TestCZeroS:
    def test_brandt(self):
        b2 = brandt_b2()
        rep = verify_czeros(b2, full_generator_map(b2))
        assert rep.holds

    def test_c3_zero(self):
        s = adjoin_zero(cyclic_group(3))
        rep = verify_czeros(s, full_generator_map(s))
        assert rep.holds


class TestNegativeControl:
    def test_no_failures_at_order_three(self):
        checked, failures = negative_control_search(max_order=3)
        # record: every small non-hypothesis pair still satisfies the
        # identity; the hypothesis becomes necessary only at order 4
        assert checked == 51
        assert failures == []

    def test_failure_exists_at_order_four(self):
        s = make_semigroup(None, ((0, 0, 0, 0), (0, 0, 0, 0),
                                  (0, 0, 0, 0), (0, 0, 1, 0)))
        tset = frozenset({0, 1, 2})
        assert not is_weakly_pru(s, tset)
        rep = verify_subsemigroup_intersection(
            s, full_generator_map(s), tset,
            tuple(s.labels[v] for v in sorted(tset)), require_hypothesis=False)
        assert not rep.holds
        assert rep.separator is not None
        # the separator must be accepted by exactly one side
        assert member(rep.lhs, rep.separator) != member(rep.rhs, rep.separator)

    def test_every_order_four_failure_has_the_reference_separator(self):
        # the whole FAIL path: each main comparison that fails walks the two
        # NFAs, and must find the word a search of the product of the two
        # minimal DFAs finds
        checked, failures = negative_control_search(max_order=4)
        assert checked == 7963
        assert len(failures) == 600
        for _s, _tset, rep in failures:
            assert rep.separator == dfa_product_separator(rep.lhs, rep.rhs)
            assert member(rep.lhs, rep.separator) != member(rep.rhs, rep.separator)


class TestFormulaMutations:
    """Each formula detail the module docstring records is needed: without
    it the verifier FAILs on a pinned corpus instance, with a separator in
    exactly one of the two compared languages."""

    @staticmethod
    def _fails(tag, iid, max_order, verifier, separator):
        job = dict(iter_instances(tag, max_order=max_order))[iid]
        assert run_job((iid, job)) == (iid, False, f"RESULT {tag} {iid} FAIL {separator}")
        rep = verifier(*job[1])
        assert not rep.holds and rep.witness() == separator
        assert member(rep.lhs, rep.separator) != member(rep.rhs, rep.separator)
        return rep

    @staticmethod
    def _drop_the_star_on_ltt(monkeypatch):
        """The quotient formula's right side with L_TT taken once, not
        starred: L union L_1T . L_TT . L_T1."""
        monkeypatch.setattr(theorems, "_quotient_union",
                            lambda l, e: union(l, concat(*quotient_parts(l, e))))

    def test_rees_quotient_needs_the_star_on_ltt(self, monkeypatch):
        self._drop_the_star_on_ltt(monkeypatch)
        self._fails("rees-quotient", "n2i3:T=s0.s1", 2,
                    theorems.verify_rees_quotient, "s0.~s1.s0.~s1.s0.~s1")

    def test_rees_quotient_side_checks_see_a_wrong_quotient(self, monkeypatch):
        # with the left quotient by R dropped, R^-1 L is L and its end set
        # E the identity, not T, so the end-set check FAILs; L_1T read off
        # at E is L itself, which has the moves of path(1,T) but other
        # final states, and the empty word tells the two apart
        real, ends = theorems._quotient_union, []
        monkeypatch.setattr(theorems, "left_quotient", lambda r, l: l)
        monkeypatch.setattr(theorems, "_quotient_union",
                            lambda l, e: ends.append((l, e)) or real(l, e))
        jobs = dict(iter_instances("rees-quotient", max_order=2))
        s, gmap, ideal = jobs["n2i3:T=s0.s1"][1]
        rep = verify_rees_quotient(s, gmap, ideal)
        assert ("E=T", False, None) in rep.checks
        assert rep.verdict() == "FAIL s0.~s1"
        (la, e), = ends
        l_1t, path = quotient_parts(la, e)[0], path_language(la, la.initial, ideal)
        assert l_1t == la and member(l_1t, ()) != member(path, ())

    def test_remove_zero_needs_the_restriction_to_x(self, monkeypatch):
        # the right side as the whole L(tau) over S^0: the zero letter's
        # loop z.~z is no loop of S
        real = theorems._restriction_sides
        monkeypatch.setattr(theorems, "_restriction_sides",
                            lambda tau, *args: (real(tau, *args)[0], loop_problem(tau)))
        self._fails("remove-zero", "n1i0", 1,
                    theorems.verify_subsemigroup_intersection, "z.~z")

    def test_adjoin_zero_needs_the_single_letter_loops(self, monkeypatch):
        # the right side without the sink's self-loops: the bracketed
        # factors z-bar u z alone in the middle
        monkeypatch.setattr(theorems, "_sink_union",
                            lambda l, z: reference_sink_union(l, z, bare_letters=False))
        self._fails("adjoin-zero", "n1i0", 1, theorems.verify_adjoin_zero,
                    "z.s0.~z")

    def test_semitorees_needs_the_star_on_the_image(self, monkeypatch):
        monkeypatch.setattr(theorems, "star", lambda a: a)
        self._fails("semitorees", "c2:I1J2:P=e;g", 1,
                    theorems.verify_semitorees, "-")

    def test_semitorees_needs_more_than_one_factor(self, monkeypatch):
        # with at most one factor of the image, a loop through two Rees
        # rows is lost; unlike the control above, the separator is nonempty
        monkeypatch.setattr(theorems, "star",
                            lambda a: union(word_set_nfa(a.alphabet, [()]), a))
        rep = self._fails("semitorees", "trivial:I2J1:P=e,e", 1,
                          theorems.verify_semitorees,
                          "(1,e,1).~(1,e,1).(2,e,1).~(2,e,1)")
        assert member(rep.lhs, rep.separator)

    @staticmethod
    def _whole_l_tau(monkeypatch):
        """Widen the right side of the restriction identity to the whole
        L(tau): the writer's reach along moves of both kinds becomes tau's
        loop automaton on every letter and vertex.  Outside X, tau's
        generators are the elements their symbols name, in both corpora."""
        real = theorems.table_loop_nfa

        def widened(target, image, alphabet, letters, monoid=False, both=False):
            if not both:
                return real(target, image, alphabet, letters, monoid)
            x_image = dict(zip(letters, image))
            every = [x_image[x] if x in x_image else target.index(sym)
                     for x, sym in enumerate(alphabet.base)]
            return real(target, every, alphabet, range(alphabet.size), monoid)

        monkeypatch.setattr(theorems, "table_loop_nfa", widened)

    def test_subsemigroup_needs_the_restriction_to_x(self, monkeypatch):
        self._whole_l_tau(monkeypatch)
        self._fails("subsemigroup", "n2i0:T=s0", 2,
                    theorems.verify_subsemigroup_intersection, "s1.~s1")

    def test_semitoreeszero_needs_the_star_on_ltt(self, monkeypatch):
        self._drop_the_star_on_ltt(monkeypatch)
        self._fails("semitoreeszero", "trivial:I1J2:P=e;e", 1,
                    theorems.verify_semitoreeszero,
                    "(1,0,1).~(1,e,2).(1,e,1).~(1,e,2).(1,e,1).~(1,0,2)")

    def test_unit_sandwich_needs_the_restriction_to_the_base_letters(self, monkeypatch):
        self._whole_l_tau(monkeypatch)
        self._fails("unit-sandwich", "c2:I1J1:P=g", 1,
                    theorems.verify_unit_sandwich, "e.~(1,g,1)")

    def test_czeros_needs_the_star_in_its_semitoreeszero_leg(self, monkeypatch):
        # the main comparison of czeros still holds; the FAIL line carries
        # the separator of the semitoreeszero report on the Rees coordinates
        self._drop_the_star_on_ltt(monkeypatch)

        def leg(s, _gmap):
            dec = theorems.rees_decompose(s)
            return theorems.verify_semitoreeszero(
                dec.group, full_generator_map(dec.group), dec.i_count,
                dec.j_count, dec.sandwich)

        self._fails("czeros", "b2", 1, leg,
                    "(1,0,1).~(1,(1,e,1),2).(1,(1,e,1),1).~(1,(1,e,1),2)"
                    ".(1,(1,e,1),1).~(1,0,2)")

    def test_decompose_roundtrip_needs_the_right_group(self, monkeypatch):
        # a decomposition that hands back the null semigroup of order 2 in
        # place of the group C2, the same order but not a group
        iid = "c2:I2J2:P=e,g;0,e"
        job = dict(iter_instances("decompose-roundtrip"))[iid]
        assert run_job((iid, job)) == (iid, True, f"RESULT decompose-roundtrip {iid} PASS")
        real = theorems.rees_decompose
        monkeypatch.setattr(theorems, "rees_decompose",
                            lambda s: dataclasses.replace(real(s), group=null_semigroup(2)))
        assert run_job((iid, job)) == (iid, False, f"RESULT decompose-roundtrip {iid} FAIL")


class TestReporting:
    def test_result_line(self):
        s = cyclic_group(2)
        rep = verify_adjoin_zero(s, full_generator_map(s))
        line = result_line(rep, "c2")
        assert line == "RESULT adjoin-zero c2 PASS"

    def test_side_check_witness_rendering(self):
        # a composite report with a failing side check must surface its
        # witness text without touching the main alphabet
        from reesloop.theorems import _finish
        from reesloop.language import HatAlphabet, word_set_nfa
        import time
        alpha = HatAlphabet(("x",))
        a = word_set_nfa(alpha, [(0,)])
        rep = _finish("demo", a, a, [("side", False, "u.~v")], {},
                      time.perf_counter())
        assert not rep.holds and rep.separator is None
        assert rep.checks == (("main", True, None), ("side", False, "u.~v"))
        assert rep.witness() == "u.~v"
        assert result_line(rep, "i") == "RESULT demo i FAIL u.~v"

    def test_nested_side_check_hands_on_its_witness(self, monkeypatch):
        # K=image is a side check of semitorees, which semitoreeszero nests,
        # which czeros nests: a one-word K fails it, and each outer RESULT
        # line ends with the witness of the report it nests
        monkeypatch.setattr(theorems, "non_returning_language",
                            lambda la: word_set_nfa(la.alphabet, [(0,)]))
        tau0 = extend_to_zero(full_generator_map(cyclic_group(2)))
        inner = verify_semitorees(tau0.target, tau0, 1, 1, sandwich([[0]]))
        assert inner.checks[0][1] and inner.witness() == "(1,e,1)"
        dec = rees_decompose(brandt_b2())
        middle = verify_semitoreeszero(dec.group, full_generator_map(dec.group),
                                       dec.i_count, dec.j_count, dec.sandwich)
        assert middle.separator is None and middle.witness() is not None
        for tag, iid, nested in (("semitoreeszero", "c2:I1J1:P=e", inner),
                                 ("czeros", "b2", middle)):
            job = dict(iter_instances(tag))[iid]
            assert run_job((iid, job)) == (
                iid, False, f"RESULT {tag} {iid} FAIL {nested.witness()}")

    def test_stats_say_how_the_main_comparison_was_decided(self):
        # a Rees-quotient right side is the left side's automaton; the
        # adjoin-zero sides number the zero and the identity apart
        s = adjoin_zero(cyclic_group(2))
        gmap = full_generator_map(s)
        assert verify_rees_quotient(s, gmap, {s.zero}).stats["main"] == "=="
        assert verify_adjoin_zero(s, gmap).stats["main"] == "minimal DFAs"

    def test_fail_line_carries_separator(self):
        s = make_semigroup(None, ((0, 0, 0, 0), (0, 0, 0, 0),
                                  (0, 0, 0, 0), (0, 0, 1, 0)))
        tset = frozenset({0, 1, 2})
        rep = verify_subsemigroup_intersection(
            s, full_generator_map(s), tset,
            tuple(s.labels[v] for v in sorted(tset)), require_hypothesis=False)
        line = result_line(rep, "bad")
        assert line.startswith("RESULT subsemigroup bad FAIL ")
        assert len(line.split()) == 5


def two_call_finish(tag, lhs_nfa, rhs_nfa, extra_checks, stats, t0):
    """_finish as it was before equal sides were minimized once: both sides
    go through minimal_dfa.  stats["main"] names what _finish would decide
    the pair by, so that the two reports compare equal."""
    lhs = theorems.minimal_dfa(lhs_nfa)
    rhs = theorems.minimal_dfa(rhs_nfa)
    sep = None if lhs == rhs else theorems.shortest_separator(lhs_nfa, rhs_nfa)
    checks = (("main", sep is None, theorems._render(lhs.alphabet, sep)), *extra_checks)
    stats = {**stats, "main": "==" if rhs_nfa == lhs_nfa else "minimal DFAs",
             "lhs_states": lhs.n_states, "rhs_states": rhs.n_states,
             "elapsed": round(time.perf_counter() - t0, 6)}
    return theorems.VerificationReport(tag, lhs, rhs, sep, checks, stats)


class TestMinimizeOnce:
    """Two sides built as the same automaton are minimized once, and the
    report is the one both minimizations give."""

    @staticmethod
    def _run(monkeypatch, verify, *args):
        calls = []
        real = theorems.minimal_dfa

        def counted(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(theorems, "minimal_dfa", counted)
        report = verify(*args)
        count = len(calls)
        monkeypatch.setattr(theorems, "_finish", two_call_finish)
        reference = verify(*args)
        assert len(calls) == count + 2
        return report, reference, count

    @staticmethod
    def _same_report(report, reference):
        assert report.tag == reference.tag
        assert report.holds == reference.holds
        assert report.lhs == reference.lhs
        assert report.rhs == reference.rhs
        assert report.separator == reference.separator
        assert report.checks == reference.checks
        drop = {"elapsed"}
        assert {k: v for k, v in report.stats.items() if k not in drop} == \
            {k: v for k, v in reference.stats.items() if k not in drop}

    def test_remove_zero_minimizes_once(self, monkeypatch):
        tau = extend_to_zero(full_generator_map(cyclic_group(3)))
        report, reference, calls = self._run(
            monkeypatch, verify_subsemigroup_intersection,
            tau.target, tau, frozenset(range(3)), tau.alphabet[:-1])
        assert calls == 1 and report.holds
        self._same_report(report, reference)

    def test_subsemigroup_with_equal_sides_minimizes_once(self, monkeypatch):
        s = make_semigroup(None, ((0, 0), (1, 1)))  # left zero
        tau = full_generator_map(s)
        report, reference, calls = self._run(
            monkeypatch, verify_subsemigroup_intersection, s, tau, {1}, ("s1",))
        assert calls == 1 and report.holds
        self._same_report(report, reference)

    def test_adjoin_zero_minimizes_both_sides(self, monkeypatch):
        s = cyclic_group(2)
        report, reference, calls = self._run(
            monkeypatch, verify_adjoin_zero, s, full_generator_map(s))
        assert calls == 2 and report.holds
        self._same_report(report, reference)

    def test_rees_quotient_minimizes_once(self, monkeypatch):
        # the right side is S/T's loop automaton, == to the left side, for
        # every ideal of every semigroup of order <= 3 and of B2
        count = 0
        for s in [s for n in (1, 2, 3) for s in enumerate_semigroups(n)] + [brandt_b2()]:
            gmap = full_generator_map(s)
            for ideal in semigroup.all_ideals(s):
                report, reference, calls = self._run(
                    monkeypatch, verify_rees_quotient, s, gmap, ideal)
                monkeypatch.undo()
                assert calls == 1 and report.holds and report.stats["main"] == "=="
                self._same_report(report, reference)
                count += 1
        assert count > 122


class TestGates:
    def test_semitoreeszero_records_a_broken_quotient_map(self, monkeypatch):
        # a quotient with two labels swapped is no longer M^0 itself, and
        # only the equality check sees it
        honest = theorems.rees_quotient

        def swapped(*args):
            q, proj, tau_q = honest(*args)
            labels = (q.labels[1], q.labels[0], *q.labels[2:])
            return (semigroup._built(semigroup.FiniteSemigroup, labels, q.table,
                                     q.zero, q.identity), proj, tau_q)

        monkeypatch.setattr(theorems, "rees_quotient", swapped)
        rep = verify_semitoreeszero(trivial_semigroup(),
                                    full_generator_map(trivial_semigroup()),
                                    2, 2, sandwich([[0, ZERO], [ZERO, 0]]))
        assert [check for check in rep.checks if not check[1]] == \
            [("quotient-iso-M0", False, None)]

    def test_unit_sandwich_rejects_a_broken_column_embedding(self, monkeypatch):
        handed = break_morphism_check(monkeypatch, theorems)
        with pytest.raises(theorems.InternalError,
                           match="column embedding is not a morphism"):
            verify_unit_sandwich(cyclic_group(2), full_generator_map(cyclic_group(2)),
                                 2, 2, sandwich([[0, ZERO], [1, 0]]))
        assert len(handed) == 1

    def test_rees_decompose_rejects_a_broken_decomposition_map(self, monkeypatch):
        handed = break_morphism_check(monkeypatch, theorems)
        with pytest.raises(theorems.InternalError,
                           match="decomposition map is not a morphism"):
            rees_decompose(brandt_b2())
        assert len(handed) == 1

    def test_subset_checks_per_verdict(self, monkeypatch):
        # the intersection verifier checks T once, for the weak-PRU kernel
        # and the subtable alike; the Rees quotient leaves its one check to
        # is_ideal
        real = semigroup._check_subset
        calls = []
        monkeypatch.setattr(semigroup, "_check_subset",
                            lambda s, subset: calls.append(1) or real(s, subset))
        s = adjoin_zero(cyclic_group(2))
        tau = full_generator_map(s)
        assert verify_subsemigroup_intersection(s, tau, {0, 1}, ("e", "g")).holds
        assert len(calls) == 1
        calls.clear()
        assert verify_rees_quotient(s, tau, {s.zero}).holds
        assert len(calls) == 1

    def test_one_closure_test_per_subsemigroup_verdict(self, monkeypatch):
        real = semigroup.is_subsemigroup
        calls = []
        monkeypatch.setattr(semigroup, "is_subsemigroup",
                            lambda s, subset: calls.append(1) or real(s, subset))
        jobs = [item for item in iter_instances("subsemigroup", max_order=4)
                if item[0].startswith("n4")][:2000]
        assert len(jobs) == 2000
        assert all(run_job(item)[1] for item in jobs)
        assert len(calls) == 2000

    def test_bad_subsets_raise_in_gate_order(self):
        # the subset checks, then the closure test, then the hypothesis,
        # then the symbols: each bad input raises the first that fails
        s = NAMED_SEMIGROUPS["b2"]()
        tau = full_generator_map(s)
        bad_symbols = ("nope",)
        not_wpru = next(t for t in all_subsemigroups(s) if not is_weakly_pru(s, t))
        for tset, err in ((set(), semigroup.EmptySubset),
                          ({0, s.order}, semigroup.IndexOutOfRange),
                          (next(t for t in map(frozenset, itertools.combinations(
                              range(s.order), 2)) if not semigroup.is_subsemigroup(s, t)),
                           semigroup.NotASubsemigroup),
                          (not_wpru, HypothesisFailed),
                          (frozenset(range(s.order)), theorems.RestrictionNotOntoT)):
            with pytest.raises(err):
                verify_subsemigroup_intersection(s, tau, tset, bad_symbols)

    def test_symbols_that_do_not_generate_t(self):
        # e maps into T = {e, g} of C2 but generates only {e}
        s = cyclic_group(2)
        with pytest.raises(theorems.RestrictionNotOntoT) as err:
            verify_subsemigroup_intersection(s, full_generator_map(s), {0, 1}, ("e",))
        assert str(err.value) == "restricted generators do not generate T"


def monoid_map(s):
    """The full generator map of the monoid s as a monoid map."""
    return semigroup.GeneratorMap(s.labels, s, tuple(range(s.order)), monoid=True)


# (call, exception type, message): the input checks of the verifiers that
# the corpora never reach
VERIFIER_CHECKS = [
    pytest.param(lambda: verify_subsemigroup_intersection(
                     cyclic_group(2), full_generator_map(cyclic_group(2)), {0}, ("g",),
                     require_hypothesis=False),
                 theorems.RestrictionNotOntoT, "generator 'g' maps outside T",
                 id="generator-outside-t"),
    pytest.param(lambda: verify_subsemigroup_intersection(
                     cyclic_group(2), full_generator_map(cyclic_group(2)), {0}, ("e", "e")),
                 semigroup.SemigroupError, "alphabet symbols must be distinct",
                 id="repeated-symbols"),
    pytest.param(lambda: verify_unit_sandwich(
                     semigroup.left_zero(2), full_generator_map(semigroup.left_zero(2)),
                     1, 1, sandwich([[0]])),
                 semigroup.NoIdentity, "the base of the unit-sandwich theorem is a monoid",
                 id="unit-sandwich-without-identity"),
    *(pytest.param(call, semigroup.SemigroupError, "the generator map is not onto S",
                   id=f"{name}-map-onto-another-semigroup")
      for name, call in (
          # a map onto C2 given with C3 (onto C2^0 with B2): without the
          # check some of these report a verdict about the map's semigroup
          # and some raise a bare KeyError
          ("rees-quotient", lambda: verify_rees_quotient(
              cyclic_group(3), full_generator_map(cyclic_group(2)), {0, 1, 2})),
          ("subsemigroup", lambda: verify_subsemigroup_intersection(
              cyclic_group(3), full_generator_map(cyclic_group(2)), {0}, ("e",))),
          ("adjoin-zero", lambda: verify_adjoin_zero(
              cyclic_group(3), full_generator_map(cyclic_group(2)))),
          ("semitorees", lambda: verify_semitorees(
              cyclic_group(3), full_generator_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("semitoreeszero", lambda: verify_semitoreeszero(
              cyclic_group(3), full_generator_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("unit-sandwich", lambda: verify_unit_sandwich(
              cyclic_group(3), full_generator_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("czeros", lambda: verify_czeros(
              brandt_b2(), full_generator_map(adjoin_zero(cyclic_group(2))))),
      )),
    *(pytest.param(call, semigroup.SemigroupError, "the generator map is a monoid map",
                   id=f"{name}-monoid-map")
      for name, call in (
          # the identities read L(S) at S^1's fresh identity, and a monoid
          # map's images need not generate S without the empty word
          ("rees-quotient", lambda: verify_rees_quotient(
              cyclic_group(2), monoid_map(cyclic_group(2)), {0, 1})),
          ("subsemigroup", lambda: verify_subsemigroup_intersection(
              cyclic_group(2), monoid_map(cyclic_group(2)), {0}, ("e",))),
          ("adjoin-zero", lambda: verify_adjoin_zero(
              cyclic_group(2), monoid_map(cyclic_group(2)))),
          ("semitorees", lambda: verify_semitorees(
              cyclic_group(2), monoid_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("semitoreeszero", lambda: verify_semitoreeszero(
              cyclic_group(2), monoid_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("unit-sandwich", lambda: verify_unit_sandwich(
              cyclic_group(2), monoid_map(cyclic_group(2)), 1, 1, sandwich([[0]]))),
          ("czeros", lambda: verify_czeros(
              adjoin_zero(cyclic_group(2)), monoid_map(adjoin_zero(cyclic_group(2))))),
      )),
]


@pytest.mark.parametrize("call, exc, message", VERIFIER_CHECKS)
def test_verifier_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message
