import random

import pytest
from hypothesis import given, settings, strategies as st

from reesloop import theorems
from reesloop.cli import REGISTRY, iter_instances
from reesloop.language import (
    AlphabetMismatch,
    HatAlphabet,
    LanguageError,
    Nfa,
    concat,
    empty_nfa,
    enumerate_words,
    equivalent,
    member,
    minimal_dfa,
    star,
    word_set_nfa,
)
from reesloop.loops import loop_problem
from reesloop.semigroup import (
    SemigroupError,
    cyclic_group,
    full_generator_map,
    generator_map,
    left_zero,
    rees_matrix,
    sandwich,
    trivial_semigroup,
)
from reesloop.transduce import (
    HasZero,
    Transducer,
    apply,
    build_rees_transducer,
    choose_words,
    normalize,
    word_letters,
)

from test_language import eps_nfas, ref_product

X = HatAlphabet(("x",))
Y = HatAlphabet(("p", "q"))


def transducer(in_alphabet, out_alphabet, n_states, edges, initial, final) -> Transducer:
    """A checked Transducer from any iterables of edges and states."""
    return Transducer(in_alphabet, out_alphabet, n_states,
                      frozenset((p, tuple(u), tuple(v), q) for p, u, v, q in edges),
                      frozenset(initial), frozenset(final))


def identity_transducer(alpha):
    return transducer(alpha, alpha, 1,
                      [(0, (a,), (a,), 0) for a in range(alpha.size)],
                      {0}, {0})


def accepts_pair(t, u, v):
    """True iff some initial-to-final path spells the pair (u, v): v is in
    the image under apply of the one-word language {u}."""
    return member(apply(t, word_set_nfa(t.in_alphabet, [u])), v)


def raw_accepts_pair(t, u, v):
    """Independent oracle: path search on the raw word-labelled edges."""
    u, v = tuple(u), tuple(v)
    by_state = {}
    for p, eu, ev, q in t.edges:
        by_state.setdefault(p, []).append((eu, ev, q))
    stack = [(p, 0, 0) for p in t.initial]
    seen = set(stack)
    while stack:
        p, i, j = stack.pop()
        if i == len(u) and j == len(v) and p in t.final:
            return True
        for eu, ev, q in by_state.get(p, ()):
            ni, nj = i + len(eu), j + len(ev)
            if u[i:ni] == eu and v[j:nj] == ev and ni <= len(u) and nj <= len(v):
                state = (q, ni, nj)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return False


def all_words(alpha, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in range(alpha.size)]
        out.extend(frontier)
    return out


class TestNormalize:
    def test_splits_word_labels(self):
        t = transducer(X, Y, 2, [(0, (0, 1), (2,), 1)], {0}, {1})
        nt = normalize(t)
        assert nt.n_states == 3
        assert len(nt.edges) == 2
        for p, u, v, q in nt.edges:
            assert len(u) <= 1 and len(v) <= 1

    def test_normalized_input_unchanged(self):
        t = identity_transducer(X)
        assert normalize(t).edges == t.edges
        assert normalize(t).n_states == t.n_states

    def test_relation_preserved_on_random_transducers(self):
        rng = random.Random(5)
        for _ in range(12):
            edges = []
            for _e in range(3):
                p, q = rng.randrange(2), rng.randrange(2)
                u = tuple(rng.randrange(X.size) for _ in range(rng.randrange(3)))
                v = tuple(rng.randrange(Y.size) for _ in range(rng.randrange(3)))
                edges.append((p, u, v, q))
            t = transducer(X, Y, 2, edges, {0}, {rng.randrange(2)})
            for u in all_words(X, 4):
                for v in all_words(Y, 2):
                    assert accepts_pair(t, u, v) == raw_accepts_pair(t, u, v)

    def test_relation_preserved_to_length_five(self):
        y1 = HatAlphabet(("p",))
        rng = random.Random(17)
        for _ in range(2):
            edges = []
            for _e in range(4):
                p, q = rng.randrange(2), rng.randrange(2)
                u = tuple(rng.randrange(X.size) for _ in range(rng.randrange(3)))
                v = tuple(rng.randrange(y1.size) for _ in range(rng.randrange(3)))
                edges.append((p, u, v, q))
            t = transducer(X, y1, 2, edges, {0}, {0})
            for u in all_words(X, 5):
                for v in all_words(y1, 5):
                    assert accepts_pair(t, u, v) == raw_accepts_pair(t, u, v)


class TestAcceptsPair:
    def test_identity_accepts_diagonal(self):
        t = identity_transducer(X)
        for w in all_words(X, 3):
            assert accepts_pair(t, w, w)
            if w:
                assert not accepts_pair(t, w, ())

    def test_output_letter_outside_the_alphabet(self):
        # -1 would index the last letter of a row, ~x
        t = identity_transducer(X)
        with pytest.raises(LanguageError):
            accepts_pair(t, (X.letter("~x"),), (-1,))

    def test_empty_transducer(self):
        t = transducer(X, Y, 1, [], {0}, set())
        assert not accepts_pair(t, (), ())

    def test_rees_transducer_first_witness(self):
        c2 = cyclic_group(2)
        sigma = generator_map(c2, ["g"])
        m, rs = rees_matrix(c2, 1, 1, sandwich([[0]]), False)
        tau = full_generator_map(m)
        t = build_rees_transducer(sigma, rs, tau)
        # y decoding to (1, g, 1) has w_y = x; the pair (x x-bar, y y-bar)
        y = tau.alphabet.index("(1,g,1)")
        xa = t.in_alphabet
        ya = t.out_alphabet
        xg = xa.letter("g")
        assert accepts_pair(t, (xg, xa.bar(xg)), (y, ya.bar(y)))


class TestApply:
    def test_identity_transducer_is_identity(self):
        l = loop_problem(generator_map(cyclic_group(2), ["g"]))
        t = identity_transducer(l.alphabet)
        assert equivalent(apply(t, l), l)

    def test_empty_language(self):
        t = identity_transducer(X)
        assert set(enumerate_words(apply(t, empty_nfa(X)), 4)) == set()

    def test_against_bounded_pair_oracle(self):
        # inputs with epsilon moves (star, concat) as well as epsilon-free ones
        x, xb = X.letter("x"), X.letter("~x")
        every_word = Nfa(X, 1, frozenset((0, a, 0) for a in range(X.size)),
                         frozenset({0}), frozenset({0}))
        inputs = [word_set_nfa(X, [(x,)]), every_word,
                  star(word_set_nfa(X, [(x, xb)])),
                  concat(star(word_set_nfa(X, [(x,)])), word_set_nfa(X, [(xb,)]))]
        rng = random.Random(9)
        for _ in range(10):
            edges = []
            for _e in range(4):
                p, q = rng.randrange(2), rng.randrange(2)
                u = tuple(rng.randrange(X.size) for _ in range(rng.randrange(2)))
                v = tuple(rng.randrange(Y.size) for _ in range(rng.randrange(2)))
                edges.append((p, u, v, q))
            t = transducer(X, Y, 2, edges, {0}, {rng.randrange(2)})
            for l in inputs:
                got = set(enumerate_words(apply(t, l), 3))
                # every edge reads and writes at most one letter; for these
                # transducers and inputs, input words longer than 8 add no
                # output word of length <= 3
                want = set()
                for u in all_words(X, 8):
                    if not member(l, u):
                        continue
                    for v in all_words(Y, 3):
                        if v not in want and raw_accepts_pair(t, u, v):
                            want.add(v)
                assert got == want


class TestApplyAlgebra:
    def test_distributes_over_union(self):
        from reesloop.language import union
        rng = random.Random(21)
        for _ in range(10):
            edges = []
            for _e in range(4):
                p, q = rng.randrange(2), rng.randrange(2)
                u = tuple(rng.randrange(X.size) for _ in range(rng.randrange(2)))
                v = tuple(rng.randrange(Y.size) for _ in range(rng.randrange(2)))
                edges.append((p, u, v, q))
            t = transducer(X, Y, 2, edges, {0}, {rng.randrange(2)})
            a = word_set_nfa(X, [tuple(rng.randrange(X.size)
                                      for _ in range(rng.randrange(3)))])
            b = word_set_nfa(X, [tuple(rng.randrange(X.size)
                                      for _ in range(rng.randrange(3)))])
            assert equivalent(apply(t, union(a, b)),
                              union(apply(t, a), apply(t, b)))


def word_letter_image(t, l):
    """The image as the semitorees verifier builds it: apply on t and l
    with each input word of t read as one letter."""
    return apply(*word_letters(t, l))


def random_word_transducer(rng, read_min=0, write=(0, 2)):
    """Three states and five edges, each reading a word of read_min to 3
    letters of X (bars included) and writing write[0] to write[1] of Y."""
    edges = []
    for _e in range(5):
        p, q = rng.randrange(3), rng.randrange(3)
        u = tuple(rng.randrange(X.size) for _ in range(rng.randint(read_min, 3)))
        v = tuple(rng.randrange(Y.size) for _ in range(rng.randint(*write)))
        edges.append((p, u, v, q))
    return transducer(X, Y, 3, edges, {0}, {rng.randrange(3)})


_x, _xb = X.letter("x"), X.letter("~x")
# finite languages whose automata have epsilon moves (None), at the initial
# state and inside words, as (automaton, its words)
FINITE_EPS_INPUTS = [
    (word_set_nfa(X, ws), {tuple(a for a in w if a is not None) for w in ws})
    for ws in ([(None,)], [(None, _x, _xb), (_x, None, _x, None)],
               [(), (_xb, None, _x, _x)], [(None, _xb, _x), (None, None)])]
# infinite ones with epsilon moves, from star and concat
INFINITE_EPS_INPUTS = [star(word_set_nfa(X, [(_x, _xb)])),
                       concat(star(word_set_nfa(X, [(_x,)])), word_set_nfa(X, [(_xb,)]))]


class TestWordLetters:
    def test_image_has_the_language_of_apply(self):
        rng = random.Random(38)
        for _ in range(12):
            t = random_word_transducer(rng)
            for l, words in FINITE_EPS_INPUTS:
                got = word_letter_image(t, l)
                assert equivalent(got, apply(t, l))
                # exact: l is finite, so these are all its pairs' outputs
                want = {v for v in all_words(Y, 3)
                        if any(raw_accepts_pair(t, u, v) for u in words)}
                assert set(enumerate_words(got, 3)) == want
            for l in INFINITE_EPS_INPUTS:
                assert equivalent(word_letter_image(t, l), apply(t, l))

    def test_image_has_no_epsilon_move_when_each_edge_reads_and_writes_one_letter(self):
        # a nonempty word read and one letter written on every edge: each
        # product move writes a letter, whatever epsilon moves l has
        rng = random.Random(39)
        for _ in range(12):
            t = random_word_transducer(rng, read_min=1, write=(1, 1))
            for l in [l for l, _w in FINITE_EPS_INPUTS] + INFINITE_EPS_INPUTS:
                assert not any(word_letter_image(t, l).eps)

    def test_letters_are_the_distinct_input_words(self):
        t = transducer(X, Y, 2, [(0, (_x, _xb), (0,), 1), (1, (_x, _xb), (1,), 0),
                                 (1, (), (2,), 1)], {0}, {1})
        wt, wl = word_letters(t, word_set_nfa(X, [(None, _x, _xb)]))
        # words in sorted order: () is letter 0, (x, ~x) letter 1
        assert wt.in_alphabet.base == ("w0", "w1")
        assert wt.edges == {(0, (1,), (0,), 1), (1, (1,), (1,), 0), (1, (0,), (2,), 1)}
        assert (wt.n_states, wt.initial, wt.final) == (t.n_states, t.initial, t.final)
        # states 0 -eps-> 1 -x-> 2 -~x-> 3: from 0 and 1 the word x ~x
        # leads to 3, and the empty word to the closure; 0 is not final
        assert wl.transitions == {(0, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 3),
                                  (0, 1, 3), (1, 1, 3)}
        assert (wl.initial, wl.final) == ({0}, {3})

    def test_rees_images_have_the_minimal_dfas_of_apply(self, monkeypatch):
        # every image the default semitorees and semitoreeszero corpora
        # build, the randomized reruns and the S^0 legs included
        built = []

        def recorded(t, l):
            built.append((t, l))
            return word_letters(t, l)

        monkeypatch.setattr(theorems, "word_letters", recorded)
        jobs = [job for tag in ("semitorees", "semitoreeszero")
                for _iid, job in iter_instances(tag)]
        for tag, args in jobs:
            REGISTRY[tag].verify(*args)
        assert len(built) == len(jobs)
        for t, l in built:
            image = word_letter_image(t, l)
            assert not any(image.eps)
            assert minimal_dfa(image) == minimal_dfa(apply(t, l))


class TestChooseWords:
    def test_c2_single_generator(self):
        gm = generator_map(cyclic_group(2), ["g"])
        words = choose_words(gm)
        assert words[1] == (0,)
        assert words[0] == (0, 0)

    def test_trivial(self):
        gm = full_generator_map(trivial_semigroup())
        assert choose_words(gm) == {0: (0,)}

    def test_left_zero_each_element_its_letter(self):
        gm = full_generator_map(left_zero(2))
        assert choose_words(gm) == {0: (0,), 1: (1,)}

    def test_randomized_words_still_represent(self):
        gm = full_generator_map(cyclic_group(3))
        rng = random.Random(3)
        words = choose_words(gm, rng)
        for e, w in words.items():
            assert gm.evaluate(w) == e


class TestBuildReesTransducer:
    def test_trivial_counts(self):
        triv = trivial_semigroup()
        m, rs = rees_matrix(triv, 1, 1, sandwich([[0]]), False)
        t = build_rees_transducer(full_generator_map(triv), rs, full_generator_map(m))
        assert t.n_states == 3
        assert len(t.edges) == 4

    def test_state_count_two_by_two(self):
        c2 = cyclic_group(2)
        m, rs = rees_matrix(c2, 2, 2, sandwich([[0, 0], [0, 0]]), False)
        t = build_rees_transducer(full_generator_map(c2), rs, full_generator_map(m))
        assert t.n_states == 2 * 2 + 2

    def test_edge_count_formula(self):
        c2 = cyclic_group(2)
        for ic, jc in ((1, 1), (1, 2), (2, 2)):
            p = sandwich([[0] * ic] * jc)
            m, rs = rees_matrix(c2, ic, jc, p, False)
            tau = full_generator_map(m)
            t = build_rees_transducer(full_generator_map(c2), rs, tau)
            assert len(t.edges) == len(tau.alphabet) * (2 + 2 * ic * jc)

    def test_rejects_zero_structure(self):
        from reesloop.semigroup import ZERO
        triv = trivial_semigroup()
        m, rs = rees_matrix(triv, 2, 2, sandwich([[0, ZERO], [ZERO, 0]]), True)
        with pytest.raises(HasZero):
            build_rees_transducer(full_generator_map(triv), rs, full_generator_map(m))

    def test_accepts_an_equal_copy_of_the_base(self):
        c2 = cyclic_group(2)
        m, rs = rees_matrix(c2, 1, 2, sandwich([[0], [1]]), False)
        copy = cyclic_group(2)
        assert copy is not c2 and copy == c2
        assert build_rees_transducer(full_generator_map(copy), rs, full_generator_map(m)) == \
            build_rees_transducer(full_generator_map(c2), rs, full_generator_map(m))

    def test_deterministic_given_maps(self):
        c2 = cyclic_group(2)
        p = sandwich([[0, 1], [1, 0]])
        m, rs = rees_matrix(c2, 2, 2, p, False)
        a = build_rees_transducer(full_generator_map(c2), rs, full_generator_map(m))
        b = build_rees_transducer(full_generator_map(c2), rs, full_generator_map(m))
        assert a == b



# -- the product reference ---------------------------------------------------
#
# The tail of apply written out over the reference product walk of
# test_language.  The normalized edges and the start pairs come in the order
# frozensets iterate, which may change from one process to the next, so the
# pins compare the two in the same process.

def ref_apply(t, l):
    nt = normalize(t)
    t_moves = [[] for _ in range(nt.n_states)]
    for p, u, v, q in nt.edges:
        t_moves[p].append((u[0] if u else None, v[0] if v else None, q))
    start = [(p, s) for p in l.initial for s in nt.initial]
    ids, moves = ref_product(l, t_moves, start)
    final = frozenset(i for (p, s), i in ids.items()
                      if p in l.final and s in nt.final)
    return Nfa(t.out_alphabet, max(len(ids), 1), frozenset(moves),
               frozenset(range(len(start))), final)


@st.composite
def xy_transducers(draw):
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    edge = st.tuples(state, st.lists(st.integers(0, X.size - 1), max_size=2),
                     st.lists(st.integers(0, Y.size - 1), max_size=2), state)
    return transducer(X, Y, n, draw(st.lists(edge, max_size=8)),
                      draw(st.frozensets(state, min_size=1)),
                      draw(st.frozensets(state)))


@settings(max_examples=300, deadline=None)
@given(xy_transducers(), st.composite(eps_nfas)(X))
def test_apply_equals_the_product_reference(t, l):
    assert apply(t, l) == ref_apply(t, l)


@settings(max_examples=200, deadline=None)
@given(xy_transducers(), st.composite(eps_nfas)(X))
def test_word_letter_image_has_the_language_of_apply(t, l):
    assert equivalent(word_letter_image(t, l), apply(t, l))


def test_apply_equals_the_product_reference_on_rees_images():
    rng = random.Random(13)
    for base in (trivial_semigroup(), cyclic_group(2), cyclic_group(3)):
        gmap = full_generator_map(base)
        l = loop_problem(gmap)
        for ic, jc in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for entries in ([[0] * ic] * jc,
                            [[rng.randrange(base.order) for _ in range(ic)]
                             for _ in range(jc)]):
                m, rs = rees_matrix(base, ic, jc, sandwich(entries), False)
                t = build_rees_transducer(gmap, rs, full_generator_map(m))
                assert apply(t, l) == ref_apply(t, l)


def rees_transducer(base, rees_args, m_args):
    """A call of build_rees_transducer on the full map onto base, the
    structure of the zero-free Rees product rees_args = (S, I, J, P) and the
    full map onto the one m_args names."""
    def call():
        rs = rees_matrix(*rees_args, False)[1]
        m = rees_matrix(*m_args, False)[0]
        return build_rees_transducer(full_generator_map(base), rs, full_generator_map(m))
    return call


C2, C3, E = cyclic_group(2), cyclic_group(3), sandwich([[0]])


# (call, exception type, message): the Transducer constructor's checks,
# the alphabet checks of apply and word_letters, and build_rees_transducer's
# checks that its inputs belong together
TRANSDUCER_CHECKS = [
    pytest.param(lambda: transducer(X, Y, 1, [], {0}, {1}), LanguageError,
                 "state 1 out of range", id="final-state"),
    pytest.param(lambda: transducer(X, Y, 1, [(0, (), (), 1)], {0}, {0}), LanguageError,
                 "edge state out of range", id="edge-state"),
    pytest.param(lambda: transducer(X, Y, 1, [(0, (2,), (), 0)], {0}, {0}), LanguageError,
                 "input letter 2 out of range", id="input-letter"),
    pytest.param(lambda: transducer(X, Y, 1, [(0, (), (4,), 0)], {0}, {0}), LanguageError,
                 "output letter 4 out of range", id="output-letter"),
    pytest.param(lambda: apply(identity_transducer(X), word_set_nfa(Y, [()])), AlphabetMismatch,
                 "language is not over the transducer input alphabet", id="apply-alphabet"),
    pytest.param(lambda: word_letters(identity_transducer(X), word_set_nfa(Y, [()])),
                 AlphabetMismatch, "language is not over the transducer input alphabet",
                 id="word-letters-alphabet"),
    pytest.param(rees_transducer(C2, (C3, 1, 1, E), (C3, 1, 1, E)), SemigroupError,
                 "the base map is not onto the Rees product's base", id="rees-other-base"),
    pytest.param(rees_transducer(C2, (C2, 2, 1, sandwich([[0, 0]])), (C2, 1, 1, E)),
                 SemigroupError,
                 "the Rees map's target is not of the Rees product's order",
                 id="rees-other-order"),
]


@pytest.mark.parametrize("call, exc, message", TRANSDUCER_CHECKS)
def test_transducer_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message
