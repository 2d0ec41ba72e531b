import itertools
import re

import pytest

from reesloop.language import (
    HatAlphabet,
    Nfa,
    enumerate_words,
    equivalent,
    member,
    prefix_closure,
    relabel,
    sub_hat_letters,
)
from reesloop.loops import (
    EmptyVertexSet,
    LoopError,
    NotInLoopProblem,
    cayley_dot,
    loop_automaton,
    loop_automaton_dot,
    loop_problem,
    non_returning_language,
    path_language,
    table_loop_nfa,
    zigzag_factor,
    zigzag_witness,
)
from reesloop.semigroup import (
    NAMED_SEMIGROUPS,
    FiniteSemigroup,
    GeneratorMap,
    IndexOutOfRange,
    _built,
    adjoin_zero,
    all_subsemigroups,
    cyclic_group,
    enumerate_semigroups,
    full_generator_map,
    generator_map,
    lift_to_monoid,
    rees_matrix,
    sandwich,
    subsemigroup,
    trivial_semigroup,
)
from reesloop.theorems import extend_to_zero
from test_language import ref_restrict


def bfs_words(transitions, n_states, initial, final, alphabet_size, max_len):
    """Independent path-enumeration oracle over an explicit edge list."""
    step = {}
    for p, a, q in transitions:
        step.setdefault((p, a), set()).add(q)
    out = set()
    level = {(): frozenset(initial)}
    for _ in range(max_len + 1):
        nxt = {}
        for w, states in level.items():
            if states & frozenset(final):
                out.add(w)
            if len(w) < max_len:
                for a in range(alphabet_size):
                    t = frozenset(q for p in states for q in step.get((p, a), ()))
                    if t:
                        nxt[w + (a,)] = t
        level = nxt
        if not level:
            break
    return out


def cayley_loop_automaton(gmap):
    """The loop automaton of a monoid map doubled from the edges
    a --x--> a.(x sigma) of the Cayley graph."""
    m = gmap.target
    edges = [(a, x, m.mul(a, gmap.image[x]))
             for a in range(m.order) for x in range(len(gmap.alphabet))]
    alphabet = HatAlphabet(tuple(gmap.alphabet))
    trans = set()
    for a, x, b in edges:
        trans.add((a, x, b))
        trans.add((b, alphabet.bar(x), a))
    ident = frozenset({gmap.target.identity})
    return Nfa(alphabet, gmap.target.order, frozenset(trans), ident, ident)


def own_identity_map(s):
    """The full monoid generator map of s at an identity of its own, or
    None when s has none."""
    n = s.order
    for e in range(n):
        if all(s.mul(e, a) == a == s.mul(a, e) for a in range(n)):
            m = FiniteSemigroup(s.labels, s.table, identity=e)
            return GeneratorMap(s.labels, m, tuple(range(n)), monoid=True)
    return None


QUOTED = r'"((?:[^"\\]|\\.)*)"'  # a DOT quoted string, escapes included


def unquoted(text):
    return re.sub(r"\\(.)", r"\1", text)


def dot_graph(dot):
    """(vertex labels in order, set of (a, label, b) edges) of a cayley_dot
    or loop_automaton_dot export, every label unescaped."""
    vertices = re.findall(rf"^  v\d+ \[label={QUOTED}, shape=\w+\];$", dot, re.M)
    edges = re.findall(rf"^  v(\d+) -> v(\d+) \[label={QUOTED}(?:, style=\w+)?\];$",
                       dot, re.M)
    return tuple(map(unquoted, vertices)), {(int(a), unquoted(x), int(b)) for a, b, x in edges}


class TestCayley:
    def test_trivial_monoid_self_loop(self):
        gm = lift_to_monoid(full_generator_map(trivial_semigroup()))
        # lifted trivial semigroup: 2 vertices; the monoid case:
        labels, edges = dot_graph(cayley_dot(gm))
        assert len(labels) == 2
        assert edges == {(1, "e", 0), (0, "e", 0)}

    def test_c2_lift_edges(self):
        gm = lift_to_monoid(generator_map(cyclic_group(2), ["g"]))
        m = gm.target
        one, g, e = m.identity, 1, 0
        assert dot_graph(cayley_dot(gm))[1] == {(one, "g", g), (g, "g", e), (e, "g", g)}

    def test_vertex_count_is_monoid_order(self):
        for n in (1, 2, 3):
            gm = lift_to_monoid(full_generator_map(cyclic_group(n)))
            assert len(dot_graph(cayley_dot(gm))[0]) == n + 1


class TestLoopAutomaton:
    def test_trivial_counts(self):
        la = loop_automaton(full_generator_map(trivial_semigroup()))
        assert la.n_states == 2
        assert len(la.transitions) == 4  # 2 |X| |S^1| with |X| = 1

    def test_c2_three_states(self):
        la = loop_automaton(generator_map(cyclic_group(2), ["g"]))
        assert la.n_states == 3

    def test_every_state_reachable(self):
        for s in (cyclic_group(3), adjoin_zero(cyclic_group(2))):
            la = loop_automaton(full_generator_map(s))
            reach = set(la.initial)
            frontier = list(reach)
            fwd = {}
            for p, a, q in la.transitions:
                fwd.setdefault(p, set()).add(q)
            while frontier:
                p = frontier.pop()
                for q in fwd.get(p, ()):
                    if q not in reach:
                        reach.add(q)
                        frontier.append(q)
            assert reach == set(range(la.n_states))

    def test_transition_count(self):
        s = cyclic_group(3)
        la = loop_automaton(full_generator_map(s))
        assert len(la.transitions) == 2 * 3 * (s.order + 1)

    def test_equals_the_cayley_graph_doubling_up_to_order_four(self):
        own = 0
        for n in range(1, 5):
            for s in enumerate_semigroups(n):
                gmap = full_generator_map(s)
                lifted = lift_to_monoid(gmap)
                want = cayley_loop_automaton(lifted)
                assert loop_automaton(gmap) == want
                assert loop_problem(lifted) == want
                assert loop_problem(gmap) == want  # S^1 by the rule, no table
                monoid = own_identity_map(s)
                if monoid is not None:
                    own += 1
                    assert loop_problem(monoid) == cayley_loop_automaton(monoid)
        assert own > 0

    def test_always_adjoins_a_fresh_identity(self):
        """Even on a monoid map, loop_automaton is the loop problem of S^1
        under the lifted map, its identity the state after S's elements."""
        maps = []
        for n in range(1, 5):
            for s in enumerate_semigroups(n):
                maps.append(full_generator_map(s))
                maps.append(own_identity_map(s))
        maps = list(filter(None, maps))
        for gmap in maps:
            la = loop_automaton(gmap)
            assert la == loop_problem(lift_to_monoid(gmap))
            assert la.initial == la.final == {gmap.target.order}
        assert sum(gmap.monoid for gmap in maps) > 0

    def test_doubling_is_exact(self):
        la = loop_automaton(generator_map(cyclic_group(2), ["g"]))
        alpha = la.alphabet
        pos = {(p, a, q) for p, a, q in la.transitions if alpha.is_positive(a)}
        neg = {(p, a, q) for p, a, q in la.transitions if not alpha.is_positive(a)}
        assert {(q, alpha.bar(a), p) for p, a, q in pos} == neg


class TestLoopProblem:
    def c2_instance(self):
        gm = generator_map(cyclic_group(2), ["g"])
        lp = loop_problem(gm)
        a = lp.alphabet
        return lp, a.letter("g"), a.letter("~g")

    def test_oracle_agreement_to_length_four(self):
        # hand-built 3-vertex loop automaton for C2 with x -> g:
        # vertices 1,g,e; edges 1-x->g, g-x->e, e-x->g and their inverses
        lp, x, xb = self.c2_instance()
        edges = {(0, x, 1), (1, x, 2), (2, x, 1),
                 (1, xb, 0), (2, xb, 1), (1, xb, 2)}
        oracle = bfs_words(edges, 3, {0}, {0}, 2, 4)
        # translate letters: hand alphabet == lp alphabet by construction
        assert set(enumerate_words(lp, 4)) == oracle

    def test_epsilon_always_accepted(self):
        lp, x, xb = self.c2_instance()
        assert member(lp, ())

    def test_examples(self):
        lp, x, xb = self.c2_instance()
        assert member(lp, (x, xb))
        assert not member(lp, (xb,))
        assert member(lp, (x, x, x, xb))  # mixes distinct inverse edges

    def test_words_to_length_two(self):
        lp, x, xb = self.c2_instance()
        assert enumerate_words(lp, 2) == [(), (x, xb)]


def generated(s, gens):
    """The elements of s that products of the elements gens reach."""
    out, todo = set(gens), list(gens)
    while todo:
        row = s.table[todo.pop()]
        for g in gens:
            if row[g] not in out:
                out.add(row[g])
                todo.append(row[g])
    return out


class TestTableWriter:
    """table_loop_nfa against the compositions it replaces, by ==.  From a
    fresh identity, the positive reach of X's images is the loop automaton
    of T^1, T the subsemigroup X generates, moved onto tau's letters by
    relabel; the reach along moves of both kinds is L(tau) cut to X's
    letters by ref_restrict.  loop_problem, the writer on all of a map's
    letters, is pinned to loop_automaton in TestLoopAutomaton."""

    @staticmethod
    def sides(tau, x_symbols):
        """(written, reference) left sides and right sides."""
        big = HatAlphabet(tau.alphabet)
        letters = sub_hat_letters(big, x_symbols)
        image = [tau.image[tau.alphabet.index(x)] for x in x_symbols]
        tsub, emb = subsemigroup(tau.target, generated(tau.target, image))
        sigma = GeneratorMap(tuple(x_symbols), tsub, tuple(emb.index(g) for g in image))
        return ((table_loop_nfa(tau.target, image, big, letters),
                 relabel(loop_problem(sigma), big, letters)),
                (table_loop_nfa(tau.target, image, big, letters, tau.monoid, both=True),
                 ref_restrict(loop_problem(tau), letters)))

    def test_every_subsemigroup_up_to_order_three(self):
        checked = short = 0
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                for tau in filter(None, (full_generator_map(s), own_identity_map(s))):
                    for tset in all_subsemigroups(s):
                        labels = [s.labels[v] for v in sorted(tset)]
                        for xs in [labels] + [[x] for x in labels]:
                            for written, want in self.sides(tau, xs):
                                assert written == want
                            checked += 1
                            short += len(generated(s, [s.index(x) for x in xs])) < len(tset)
        assert (checked, short) == (2184, 930)

    def test_s_inside_s_zero_and_monoid_maps(self):
        cases = []
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                tau = extend_to_zero(full_generator_map(s))
                cases.append((tau, tau.alphabet[:-1]))
        for name in ("c2", "c3"):
            c = NAMED_SEMIGROUPS[name]()
            cases.append((GeneratorMap(("g",), c, (c.index("g"),), monoid=True), ("g",)))
        for tau, xs in cases:
            for written, want in self.sides(tau, xs):
                assert written == want
        assert len(cases) == 122 + 2


class TestPathLanguage:
    def test_identity_to_identity_is_loop_problem(self):
        gm = generator_map(cyclic_group(2), ["g"])
        la = loop_automaton(gm)
        pl = path_language(la, la.initial, la.initial)
        assert equivalent(pl, la)

    def test_identity_to_all_is_prefix_closure(self):
        gm = full_generator_map(cyclic_group(2))
        la = loop_automaton(gm)
        pl = path_language(la, la.initial, set(range(la.n_states)))
        assert equivalent(pl, prefix_closure(la))

    def test_empty_vertex_set(self):
        la = loop_automaton(full_generator_map(trivial_semigroup()))
        with pytest.raises(EmptyVertexSet):
            path_language(la, set(), {0})

    def test_vertices_are_states_of_the_automaton(self):
        la = loop_automaton(full_generator_map(trivial_semigroup()))
        assert path_language(la, {1}, {0, 1}).final == {0, 1}
        for sources, targets, bad in (({2}, {0}, 2), ({0}, {-1}, -1)):
            with pytest.raises(IndexOutOfRange) as err:
                path_language(la, sources, targets)
            assert str(err.value) == f"vertex {bad} out of range"


def chunk_loop_non_returning(nfa):
    """The split automaton re-packed chunk by chunk, with the identity's bit
    moved to the sink's in each chunk it is set in: the form the one-mask
    construction replaced, kept as its reference."""
    (ident,) = nfa.initial
    n = sink = nfa.n_states
    full = (1 << n) - 1
    into = 1 << ident

    def redirected(row):
        out = shift = 0
        while row:
            m = row & full
            if m & into:
                m ^= into | 1 << sink
            out |= m << shift
            row >>= n
            shift += n + 1
        return out

    return _built(Nfa, nfa.alphabet, n + 1,
                  tuple(map(redirected, nfa.rows)) + (0,),
                  tuple(map(redirected, nfa.eps)) + (0,),
                  frozenset({ident}), frozenset({sink}))


def loop_automata_up_to_order_three():
    """The loop automaton of every semigroup of order <= 3 under its full
    generator map, and at its own identity when it has one."""
    for n in (1, 2, 3):
        for s in enumerate_semigroups(n):
            yield loop_automaton(full_generator_map(s))
            own = own_identity_map(s)
            if own is not None:
                yield loop_problem(own)


class TestNonReturning:
    def test_epsilon_not_accepted(self):
        la = loop_automaton(generator_map(cyclic_group(2), ["g"]))
        k = non_returning_language(la)
        assert not member(k, ())

    def test_k_words_are_loops(self):
        la = loop_automaton(full_generator_map(cyclic_group(2)))
        k = non_returning_language(la)
        for w in enumerate_words(k, 3):
            assert member(la, w)

    def test_one_mask_equals_the_chunk_loop(self):
        c3 = NAMED_SEMIGROUPS["c3"]()
        p = sandwich([[c3.index(v) for v in row] for row in (("g2", "g2"), ("g", "e"))])
        rees = rees_matrix(c3, 2, 2, p, with_zero=False)[0]
        automata = list(loop_automata_up_to_order_three())
        automata.append(loop_automaton(full_generator_map(rees)))
        for la in automata:
            assert non_returning_language(la) == chunk_loop_non_returning(la)
        assert len(automata) == 122 + 38 + 1  # 38 of the 122 have an identity

    def test_needs_exactly_one_initial_state(self):
        la = loop_automaton(full_generator_map(cyclic_group(2)))
        for initial in (frozenset(), frozenset({0, 2})):
            nfa = _built(Nfa, la.alphabet, la.n_states, la.rows, la.eps, initial, la.final)
            with pytest.raises(LoopError) as err:
                non_returning_language(nfa)
            assert str(err.value) == (
                f"a loop automaton has one initial state, not {len(initial)}")


class TestZigZag:
    def alphabet(self):
        return HatAlphabet(("x",))

    def test_factor_examples(self):
        a = self.alphabet()
        x, xb = a.letter("x"), a.letter("~x")
        assert zigzag_factor(a, (x, xb)) == [(x,), (xb,)]
        assert zigzag_factor(a, (xb, x)) == [(), (xb,), (x,), ()]
        assert zigzag_factor(a, (x, x, xb, x)) == [(x, x), (xb,), (x,), ()]
        assert zigzag_factor(a, ()) == [()]

    def test_factor_concatenation_restores(self):
        a = HatAlphabet(("x", "y"))
        for w in itertools.product(range(a.size), repeat=4):
            blocks = zigzag_factor(a, w)
            flat = tuple(itertools.chain.from_iterable(blocks))
            assert flat == w
            # alternating shape, starting positive and ending negative
            for i, b in enumerate(blocks):
                for letter in b:
                    assert a.is_positive(letter) == (i % 2 == 0)
            assert len(blocks) % 2 == 0 or blocks == [()]

    def test_witness_epsilon(self):
        gm = generator_map(cyclic_group(2), ["g"])
        one = lift_to_monoid(gm).target.identity
        assert zigzag_witness(gm, ()) == (one,)

    def test_witness_xxbar(self):
        gm = generator_map(cyclic_group(2), ["g"])
        one = lift_to_monoid(gm).target.identity
        a = loop_automaton(gm).alphabet
        w = (a.letter("g"), a.letter("~g"))
        assert zigzag_witness(gm, w) == (one, one)

    def test_witness_equations_on_corpus(self):
        for s in enumerate_semigroups(2):
            gm = full_generator_map(s)
            la = loop_automaton(gm)
            monoid_map = lift_to_monoid(gm)
            monoid = monoid_map.target
            for w in enumerate_words(la, 4):
                witness = zigzag_witness(gm, w)
                blocks = zigzag_factor(la.alphabet, w)
                assert witness[0] == witness[-1] == monoid.identity
                for i in range(len(blocks) // 2):
                    u = blocks[2 * i]
                    v = la.alphabet.bar_word(blocks[2 * i + 1])
                    lhs = monoid.mul(witness[i], monoid_map.evaluate(u))
                    rhs = monoid.mul(witness[i + 1], monoid_map.evaluate(v))
                    assert lhs == rhs

    def test_witness_rejects_non_members(self):
        gm = generator_map(cyclic_group(2), ["g"])
        la = loop_automaton(gm)
        with pytest.raises(NotInLoopProblem):
            zigzag_witness(gm, (la.alphabet.letter("~g"),))


class TestSymmetryAndInvolution:
    def path_relations(self, la, max_len):
        """relation masks for every word up to max_len"""
        n = la.n_states
        alpha = la.alphabet
        step = [[0] * n for _ in range(alpha.size)]
        for p, a, q in la.transitions:
            step[a][p] |= 1 << q
        rels = {(): tuple(1 << p for p in range(n))}
        frontier = [()]
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                rw = rels[w]
                for a in range(alpha.size):
                    masks = []
                    for p in range(n):
                        acc = 0
                        m = rw[p]
                        while m:
                            low = m & -m
                            acc |= step[a][low.bit_length() - 1]
                            m ^= low
                        masks.append(acc)
                    rels[w + (a,)] = tuple(masks)
                    nxt.append(w + (a,))
            frontier = nxt
        return rels

    def test_symmetry_bounded(self):
        gm = generator_map(cyclic_group(2), ["g"])
        la = loop_automaton(gm)
        rels = self.path_relations(la, 5)
        n = la.n_states
        for w, masks in rels.items():
            wb = la.alphabet.bar_word(w)
            back = rels[wb]
            for p in range(n):
                for q in range(n):
                    assert bool(masks[p] >> q & 1) == bool(back[q] >> p & 1)

    def test_involution_closure(self):
        from reesloop.language import involution_image
        for s in (trivial_semigroup(), cyclic_group(2), adjoin_zero(cyclic_group(2))):
            lp = loop_problem(full_generator_map(s))
            assert equivalent(involution_image(lp), lp)


class TestDot:
    def test_exports_mention_styles(self):
        gm = generator_map(cyclic_group(2), ["g"])
        dot = loop_automaton_dot(gm)
        assert "dashed" in dot and "doublecircle" in dot
        cayley = cayley_dot(lift_to_monoid(gm))
        assert cayley.startswith("digraph cayley {")
        assert "style=" not in cayley and "doublecircle" in cayley

    def test_labels_with_quotes_and_backslashes_come_back_unchanged(self):
        s = FiniteSemigroup(("b\"", "a\\b"), ((0, 1), (0, 1)))
        gm = full_generator_map(s)
        for dot in (cayley_dot(lift_to_monoid(gm)), loop_automaton_dot(gm)):
            labels, edges = dot_graph(dot)
            assert labels == ("b\"", "a\\b", "1")
            assert dot.count(" -> ") == len(edges)
            assert {x.lstrip("~") for _a, x, _b in edges} == {"b\"", "a\\b"}
        assert 'v0 [label="b\\"", shape=circle];' in cayley_dot(lift_to_monoid(gm))


# (call, exception type, message): the checks of this module that no other
# test reaches
LOOP_CHECKS = [
    pytest.param(lambda: zigzag_witness(full_generator_map(cyclic_group(2)), (0, 4)),
                 NotInLoopProblem, "word is not accepted by the loop automaton",
                 id="zigzag-letter-out-of-range"),
]


@pytest.mark.parametrize("call, exc, message", LOOP_CHECKS)
def test_loop_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message
