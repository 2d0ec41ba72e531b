import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from reesloop.language import (
    AlphabetMismatch,
    Dfa,
    HatAlphabet,
    LanguageError,
    Nfa,
    as_nfa,
    concat,
    determinize,
    empty_nfa,
    enumerate_words,
    epsilon_free,
    equivalent,
    factor_closure,
    format_automaton,
    intersect,
    involution_image,
    left_quotient,
    member,
    minimal_dfa,
    minimize,
    plus,
    prefix_closure,
    relabel,
    right_quotient,
    shortest_separator,
    star,
    sub_hat_letters,
    suffix_closure,
    trim,
    union,
    word_set_nfa,
    _bits,
    _core,
    _mask,
)
from reesloop import language
from reesloop.loops import (loop_automaton, loop_problem, non_returning_language,
                            path_language)
from reesloop.semigroup import (NAMED_SEMIGROUPS, _built,
                                full_generator_map, rees_matrix, sandwich)
from reesloop.transduce import apply, build_rees_transducer

X = HatAlphabet(("x",))
x = X.letter("x")
xb = X.letter("~x")


def words(a, n=6):
    return set(enumerate_words(a, n))


class TestAlphabet:
    def test_bar_involution(self):
        a = HatAlphabet(("x", "y"))
        for letter in range(a.size):
            assert a.bar(a.bar(letter)) == letter
        assert a.size == 4
        assert a.name(a.bar(a.letter("y"))) == "~y"

    def test_bar_word_reverses_and_bars(self):
        a = HatAlphabet(("x", "y"))
        w = (a.letter("x"), a.letter("~y"), a.letter("y"))
        assert a.bar_word(w) == (a.letter("~y"), a.letter("y"), a.letter("~x"))

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            HatAlphabet(("x", "x"))
        with pytest.raises(ValueError):
            HatAlphabet(("~x",))

    # a symbol that is empty, `-`, starts with `~` or holds whitespace would
    # make the automaton text ambiguous: `-` is epsilon, `~s` the bar of s
    @pytest.mark.parametrize("base, message", [
        (("x", "y", "x"), "alphabet symbols must be distinct"),
        (("",), "bad symbol ''"),
        (("-",), "bad symbol '-'"),
        (("x", "~y"), "bad symbol '~y'"),
        (("a b",), "bad symbol 'a b'"),
        (("x\t",), "bad symbol 'x\\t'"),
    ])
    def test_a_bad_alphabet_gives_its_message(self, base, message):
        with pytest.raises(LanguageError) as err:
            HatAlphabet(base)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["q", "~q", "~", "~~x", ""])
    def test_an_unknown_name_gives_its_message(self, name):
        with pytest.raises(LanguageError) as err:
            X.letter(name)
        assert str(err.value) == f"unknown symbol {name.removeprefix('~')!r}"

    def test_letter_inverts_name(self):
        a = HatAlphabet(("x", "yy", "z1"))
        assert [a.letter(a.name(i)) for i in range(a.size)] == list(range(a.size))


class TestBasics:
    def test_member_single_word(self):
        a = word_set_nfa(X, [(x, xb)])
        assert member(a, (x, xb))
        assert not member(a, (x,))

    @pytest.mark.parametrize("letter", [-1, 2])
    def test_member_rejects_letters_outside_the_alphabet(self, letter):
        # -1 would index the last letter of a row, ~x; 2 is past its end
        a = word_set_nfa(X, [(xb,)])
        for aut in (a, determinize(a)):
            with pytest.raises(LanguageError):
                member(aut, (letter,))

    def test_star_idempotent(self):
        a = word_set_nfa(X, [(x,)])
        assert equivalent(star(star(a)), star(a))

    def test_determinize_then_minimize_two_initial(self):
        # the 2-initial-state NFA for {x} u {x-bar}
        a = Nfa(X, 3, frozenset({(0, x, 2), (1, xb, 2)}),
                frozenset({0, 1}), frozenset({2}))
        d = minimize(determinize(a))
        # partial minimal form: start and accept states, dead state omitted
        assert d.n_states == 2
        assert words(d) == {(x,), (xb,)}

    def test_union_concat_star_examples(self):
        assert words(union(word_set_nfa(X, [(x,)]), word_set_nfa(X, [(xb,)]))) == {(x,), (xb,)}
        assert words(concat(word_set_nfa(X, [(x,)]), word_set_nfa(X, [(x,)]))) == {(x, x)}
        st_ = star(word_set_nfa(X, [(x, xb)]))
        assert member(st_, ())
        assert member(st_, (x, xb, x, xb))
        assert not member(st_, (x,))

    def test_plus(self):
        p = plus(word_set_nfa(X, [(x,)]))
        assert not member(p, ())
        assert member(p, (x,)) and member(p, (x, x))

    def test_intersect_examples(self):
        l = union(word_set_nfa(X, [(x, xb)]), word_set_nfa(X, [(x,)]))
        assert equivalent(intersect(l, universe_nfa(X)), l)
        assert words(intersect(l, empty_nfa(X))) == set()
        length2 = concat(universe_letter(X), universe_letter(X))
        got = words(intersect(l, length2))
        # oracle: enumerate words of length exactly 2 in l
        assert got == {w for w in words(l) if len(w) == 2} == {(x, xb)}

    def test_alphabet_mismatch(self):
        y = HatAlphabet(("y",))
        with pytest.raises(AlphabetMismatch):
            union(word_set_nfa(X, [(x,)]), word_set_nfa(y, [(0,)]))

    def test_separator_checks_alphabets_before_determinizing(self, monkeypatch):
        # the walk determinizes nothing; indexing an Nfa side is its first work
        calls = []
        real = language._core

        def counted(a, *args, **kw):
            calls.append(a)
            return real(a, *args, **kw)

        monkeypatch.setattr(language, "_core", counted)
        a = word_set_nfa(X, [(x,)])
        with pytest.raises(AlphabetMismatch):
            shortest_separator(a, word_set_nfa(HatAlphabet(("y",)), [(0,)]))
        assert calls == []
        # the counter sees one core per side of a comparison that runs
        assert shortest_separator(a, word_set_nfa(X, [(xb,)])) == (x,)
        assert len(calls) == 2


def universe_letter(alpha):
    return word_set_nfa(alpha, [(a,) for a in range(alpha.size)])


def universe_nfa(alphabet, letters=None):
    """All words over the given letters (default: the whole alphabet)."""
    if letters is None:
        letters = range(alphabet.size)
    return Nfa(alphabet, 1, frozenset((0, a, 0) for a in letters),
               frozenset({0}), frozenset({0}))


def epsilon_nfa(alphabet):
    return Nfa(alphabet, 1, frozenset(), frozenset({0}), frozenset({0}))


class TestQuotients:
    def test_right_quotient_example(self):
        got = right_quotient(word_set_nfa(X, [(x, xb)]), word_set_nfa(X, [(xb,)]))
        assert words(got) == {(x,)}

    def test_left_quotient_example(self):
        got = left_quotient(word_set_nfa(X, [(x,)]), word_set_nfa(X, [(x, xb)]))
        assert words(got) == {(xb,)}

    def test_right_quotient_by_epsilon(self):
        l = union(word_set_nfa(X, [(x, xb)]), word_set_nfa(X, [(x, x)]))
        assert equivalent(right_quotient(l, epsilon_nfa(X)), l)


class TestInvolution:
    def test_examples(self):
        assert words(involution_image(word_set_nfa(X, [(x,)]))) == {(xb,)}
        assert words(involution_image(word_set_nfa(X, [(x, xb)]))) == {(x, xb)}
        assert words(involution_image(word_set_nfa(X, [(x, xb, x)]))) == {(xb, x, xb)}


class TestClosures:
    def test_prefix_suffix_factor_of_xxbar(self):
        a = word_set_nfa(X, [(x, xb)])
        assert words(prefix_closure(a)) == {(), (x,), (x, xb)}
        assert words(suffix_closure(a)) == {(), (xb,), (x, xb)}
        # oracle: enumerate all factors of all accepted words
        facs = set()
        for w in words(a):
            for i in range(len(w) + 1):
                for j in range(i, len(w) + 1):
                    facs.add(w[i:j])
        assert words(factor_closure(a)) == facs == {(), (x,), (xb,), (x, xb)}

    def test_closure_of_empty_language(self):
        assert words(prefix_closure(empty_nfa(X))) == set()
        assert words(factor_closure(empty_nfa(X))) == set()


class TestEnumerate:
    def test_star_to_length_two(self):
        assert enumerate_words(star(word_set_nfa(X, [(x,)])), 2) == [(), (x,), (x, x)]

    def test_empty(self):
        assert enumerate_words(empty_nfa(X), 3) == []

    def test_length_lex_order(self):
        a = universe_nfa(X)
        got = enumerate_words(a, 2)
        assert got == sorted(got, key=lambda w: (len(w), w))


# -- randomized property tests -------------------------------------------------

def nfas(draw, alphabet):
    n = draw(st.integers(1, 4))
    letters = list(range(alphabet.size)) + [None]
    triples = st.tuples(st.integers(0, n - 1), st.sampled_from(letters),
                        st.integers(0, n - 1))
    trans = draw(st.frozensets(triples, max_size=10))
    initial = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n))
    final = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    return Nfa(alphabet, n, trans, initial, final)


small_nfa = st.composite(nfas)(HatAlphabet(("x", "y")))


@settings(max_examples=60, deadline=None)
@given(small_nfa)
def test_involution_is_an_involution(a):
    assert equivalent(involution_image(involution_image(a)), a)


@settings(max_examples=60, deadline=None)
@given(small_nfa)
def test_determinize_and_minimize_preserve_language(a):
    d = determinize(a)
    assert equivalent(d, a)
    m = minimize(d)
    assert equivalent(m, a)
    assert m.n_states <= d.n_states
    again = minimize(m)
    assert again == m  # canonical form is a fixed point


@settings(max_examples=40, deadline=None)
@given(small_nfa, small_nfa)
def test_quotient_involution_duality(l, r):
    lhs = right_quotient(l, r)
    rhs = involution_image(left_quotient(involution_image(r), involution_image(l)))
    assert equivalent(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(small_nfa)
def test_closures_idempotent(a):
    for op in (prefix_closure, suffix_closure, factor_closure):
        once = op(a)
        assert equivalent(op(once), once)


@settings(max_examples=40, deadline=None)
@given(small_nfa, small_nfa)
def test_separator_is_one_sided(a, b):
    sep = shortest_separator(a, b)
    if sep is None:
        assert words(a) == words(b)
    else:
        assert member(a, sep) != member(b, sep)


# -- reference acceptor --------------------------------------------------------
#
# A plain set-of-states path search with its own epsilon closure.  It reads
# only the fields of Nfa and Dfa, so the engine is checked against code that
# shares nothing with its bitmask rows.

def ref_moves(a):
    moves = {}
    for p, x, q in a.transitions:
        moves.setdefault((p, x), set()).add(q)
    return moves


def ref_close(moves, states):
    seen = set(states)
    todo = list(seen)
    while todo:
        for q in moves.get((todo.pop(), None), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def ref_words(a, n=5, initial=None, final=None):
    """Words of length <= n on a path from initial to final (default: the
    automaton's own), by extending the set of states each word reaches."""
    moves = ref_moves(a)
    final = a.final if final is None else final
    out = set()
    level = {(): ref_close(moves, a.initial if initial is None else initial)}
    for length in range(n + 1):
        nxt = {}
        for word, cur in level.items():
            if cur & final:
                out.add(word)
            if length < n:
                for x in range(a.alphabet.size):
                    succ = {q for p in cur for q in moves.get((p, x), ())}
                    if succ:
                        nxt[word + (x,)] = ref_close(moves, succ)
        level = nxt
    return out


def ref_pairs(a, b, start):
    """State pairs reached from start by reading one word in both automata."""
    am, bm = ref_moves(a), ref_moves(b)
    seen = set(start)
    todo = list(seen)
    while todo:
        p, q = todo.pop()
        nxt = [(p2, q) for p2 in am.get((p, None), ())]
        nxt += [(p, q2) for q2 in bm.get((q, None), ())]
        nxt += [(p2, q2) for x in range(a.alphabet.size)
                for p2 in am.get((p, x), ()) for q2 in bm.get((q, x), ())]
        for pair in nxt:
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return seen


def dfa_words(d, n=5):
    out = set()
    level = {(): d.initial}
    for length in range(n + 1):
        nxt = {}
        for word, p in level.items():
            if p in d.final:
                out.add(word)
            if length < n:
                for x, q in enumerate(d.transitions[p]):
                    if q is not None:
                        nxt[word + (x,)] = q
        level = nxt
    return out


def eps_nfas(draw, alphabet):
    n = draw(st.integers(1, 6))
    letters = [None] * 3 + list(range(alphabet.size))
    triples = st.tuples(st.integers(0, n - 1), st.sampled_from(letters),
                        st.integers(0, n - 1))
    trans = draw(st.frozensets(triples, max_size=14))
    initial = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n))
    final = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    return Nfa(alphabet, n, trans, initial, final)


eps_nfa = st.composite(eps_nfas)(HatAlphabet(("x", "y")))
ALL_WORDS = [w for n in range(6) for w in itertools.product(range(4), repeat=n)]


@settings(max_examples=40, deadline=None)
@given(eps_nfa)
def test_engine_accepts_the_reference_words(a):
    ref = ref_words(a)
    d = determinize(a)
    assert dfa_words(d) == ref
    assert dfa_words(minimize(d)) == ref
    assert {w for w in ALL_WORDS if member(a, w)} == ref
    assert enumerate_words(a, 5) == sorted(ref, key=lambda w: (len(w), w))


@settings(max_examples=150, deadline=None)
@given(eps_nfa, eps_nfa)
def test_products_accept_the_reference_words(l, r):
    assert set(enumerate_words(intersect(l, r), 5)) == ref_words(l) & ref_words(r)
    # R^-1 L starts L where some word of R leads; L R^-1 ends L where some
    # word of R completes to acceptance
    starts = {p for p, q in ref_pairs(l, r, itertools.product(l.initial, r.initial))
              if q in r.final}
    assert set(enumerate_words(left_quotient(r, l), 5)) == ref_words(l, initial=starts)
    ends = {p for p in range(l.n_states)
            if any(p2 in l.final and q in r.final
                   for p2, q in ref_pairs(l, r, {(p, q0) for q0 in r.initial}))}
    assert set(enumerate_words(right_quotient(l, r), 5)) == ref_words(l, final=ends)
    # each quotient is l with one end set moved to the reference pairs'
    assert left_quotient(r, l) == Nfa(l.alphabet, l.n_states, l.transitions,
                                      starts, l.final)
    assert right_quotient(l, r) == Nfa(l.alphabet, l.n_states, l.transitions,
                                       l.initial, ends)


def partial_dfas(draw, alphabet):
    n = draw(st.integers(1, 6))
    target = st.none() | st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(*[target] * alphabet.size), min_size=n, max_size=n))
    initial = draw(st.integers(0, n - 1))
    final = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    return Dfa(alphabet, n, tuple(rows), initial, final)


partial_dfa = st.composite(partial_dfas)(HatAlphabet(("x", "y")))


def renumbered(d, perm):
    rows = [None] * d.n_states
    for p, row in enumerate(d.transitions):
        rows[perm[p]] = tuple(None if q is None else perm[q] for q in row)
    return Dfa(d.alphabet, d.n_states, tuple(rows), perm[d.initial],
               frozenset(perm[p] for p in d.final))


def with_unreachable(draw, d):
    """d plus one to three states that no state of d moves to."""
    n = d.n_states + draw(st.integers(1, 3))
    target = st.none() | st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(*[target] * d.alphabet.size),
                          min_size=n - d.n_states, max_size=n - d.n_states))
    final = draw(st.frozensets(st.integers(d.n_states, n - 1)))
    return Dfa(d.alphabet, n, d.transitions + tuple(extra), d.initial,
               d.final | final)


def reached(d, start, backward=False):
    edges = {(q, p) if backward else (p, q)
             for p, row in enumerate(d.transitions) for q in row if q is not None}
    seen = set(start)
    todo = list(seen)
    while todo:
        p = todo.pop()
        for a, b in edges:
            if a == p and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


@settings(max_examples=300, deadline=None)
@given(partial_dfa, st.data())
def test_minimize_partial_dfas(d, data):
    # partial DFAs with unreachable states, dead ends and empty languages;
    # up to six states, so a nonempty language has a word of length <= 5
    m = minimize(d)
    ref = dfa_words(d)
    assert dfa_words(m) == ref
    states = set(range(m.n_states))
    if ref:
        assert reached(m, {m.initial}) == states == reached(m, m.final, backward=True)
    else:
        assert m == Dfa(d.alphabet, 1, ((None,) * d.alphabet.size,), 0,
                        frozenset())
    perm = data.draw(st.permutations(range(d.n_states)))
    assert minimize(renumbered(d, perm)) == m
    assert minimize(data.draw(st.composite(with_unreachable)(d))) == m


# -- silent states -----------------------------------------------------------------

ROLES = ("silent", "epsilon-final", "dead-end", "letters")


def role_nfas(draw, alphabet):
    """NFAs whose states each take a role: silent (epsilon moves only, not
    final), final with epsilon moves only, a dead end (no moves, final or
    not), or with one to three moves of any letter or epsilon."""
    n = draw(st.integers(1, 7))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=n, max_size=n))
    state = st.integers(0, n - 1)
    letter = st.sampled_from([None] + list(range(alphabet.size)))
    trans = set()
    final = set()
    for p, role in enumerate(roles):
        if role in ("silent", "epsilon-final"):
            trans |= {(p, None, q) for q in draw(st.frozensets(state, max_size=2))}
        elif role == "letters":
            moves = draw(st.frozensets(st.tuples(letter, state), min_size=1, max_size=3))
            trans |= {(p, x, q) for x, q in moves}
        if role == "epsilon-final" or (role != "silent" and draw(st.booleans())):
            final.add(p)
    initial = draw(st.frozensets(state, min_size=1, max_size=2))
    return Nfa(alphabet, n, frozenset(trans), initial, frozenset(final))


role_nfa = st.composite(role_nfas)(HatAlphabet(("x", "y")))


@settings(max_examples=200, deadline=None)
@given(role_nfa)
def test_dropping_silent_states_keeps_the_minimal_dfa(a):
    # epsilon_free is the one construction that drops silent states
    cut = epsilon_free(a)
    assert minimal_dfa(cut) == minimal_dfa(a)
    assert determinize(cut).n_states <= determinize(a).n_states


@settings(max_examples=200, deadline=None)
@given(role_nfa, role_nfa)
def test_nfa_separator_is_the_separator_of_the_full_dfas(a, b):
    # the separator walk reads the closed NFA rows; the full subset
    # automata are the reference
    assert shortest_separator(a, b) == shortest_separator(determinize(a), determinize(b))
    assert shortest_separator(a, determinize(a)) is None


def rees_probe_image():
    """The transducer image for semitorees c3, I = J = 2, P = g2,g2;g,e."""
    c3 = NAMED_SEMIGROUPS["c3"]()
    gmap = full_generator_map(c3)
    p = sandwich([[c3.index(v) for v in row] for row in (("g2", "g2"), ("g", "e"))])
    m, rs = rees_matrix(c3, 2, 2, p, with_zero=False)
    trans = build_rees_transducer(gmap, rs, full_generator_map(m))
    return apply(trans, loop_problem(gmap))


def rees_probe_star_image():
    """star(image) for semitorees c3, I = J = 2, P = g2,g2;g,e."""
    return star(rees_probe_image())


def test_rees_probe_subsets_with_and_without_silent_states():
    # 17 of the 358 states of star(image) have a letter move and one is final;
    # determinize keeps them all, epsilon_free drops the silent ones
    rhs = rees_probe_star_image()
    assert rhs.n_states == 358
    assert determinize(rhs).n_states == 1969
    assert minimal_dfa(rhs).n_states == 132
    assert minimal_dfa(star(epsilon_free(rees_probe_image()))).n_states == 132


# -- the one-pass index ---------------------------------------------------------

Y = HatAlphabet(("x", "y"))


def without_epsilon(a):
    return Nfa(a.alphabet, a.n_states,
               frozenset(t for t in a.transitions if t[1] is not None),
               a.initial, a.final)


any_nfa = st.one_of(eps_nfa, role_nfa, eps_nfa.map(without_epsilon))


@settings(max_examples=300, deadline=None)
@given(any_nfa)
# an epsilon cycle that a letter move leads back into, an epsilon self-loop
# on a final state with only epsilon moves, and an NFA with no epsilon move
@example(Nfa(Y, 4, frozenset({(0, None, 1), (1, None, 0), (1, 0, 0), (1, 1, 2),
                              (2, None, 2), (2, None, 3), (3, None, 1)}),
             frozenset({0}), frozenset({2})))
@example(Nfa(Y, 3, frozenset({(0, 0, 1), (1, 2, 2), (2, 3, 0)}),
             frozenset({0}), frozenset({2})))
def test_core_rows_are_the_closed_reference_successors(a):
    assert_core_is_the_reference(a)


def assert_core_is_the_reference(a):
    # chunk x of row p, bits x*n .. x*n+n-1, is the reference closure of the
    # successors of p under x; a state without a letter move has the row 0
    moves = ref_moves(a)
    lettered = {p for p, x in moves if x is not None}
    core = _core(a)
    n = a.n_states
    assert core.active == _mask(lettered)
    assert core.start == _mask(ref_close(moves, a.initial))
    assert core.final == _mask(a.final)
    for p in range(n):
        from_p = _built(Nfa, a.alphabet, n, a.rows, a.eps, {p}, a.final)
        assert _core(from_p).start == _mask(ref_close(moves, {p}))
        row = core.rows[p]
        if p not in lettered:
            assert row == 0
            continue
        for x in range(a.alphabet.size):
            want = _mask(ref_close(moves, moves.get((p, x), ())))
            assert row >> x * n & (1 << n) - 1 == want
        assert row >> a.alphabet.size * n == 0


# -- the epsilon-free form -------------------------------------------------------
#
# epsilon_free keeps the live states: the greatest set of states each final
# or with a closed letter move into the set.  Every state with a letter move
# or final is live unless its letter moves all end in states that are not.

def ref_live(a):
    moves = ref_moves(a)
    closed = {(p, x): ref_close(moves, qs) for (p, x), qs in moves.items()
              if x is not None}
    live = set(range(a.n_states))
    while True:
        kept = {p for p in live if p in a.final
                or any(p == q and succ & live for (q, _x), succ in closed.items())}
        if kept == live:
            return live, closed
        live = kept


# a state whose only letter move ends in a dead end, which is not final
DEAD_END = Nfa(Y, 4, frozenset({(0, 0, 1), (1, 1, 2), (0, None, 3), (3, 2, 0)}),
               frozenset({0}), frozenset({3}))


@settings(max_examples=300, deadline=None)
@given(any_nfa)
# an epsilon cycle, the empty language, a final state whose only moves are
# epsilon moves, and a chain of letter moves into a dead end
@example(Nfa(Y, 4, frozenset({(0, None, 1), (1, None, 0), (1, 0, 0), (1, 1, 2),
                              (2, None, 2), (2, None, 3), (3, None, 1), (3, 2, 3)}),
             frozenset({0}), frozenset({2})))
@example(Nfa(Y, 3, frozenset({(0, None, 1), (1, None, 2), (2, None, 0), (1, 0, 0)}),
             frozenset({0}), frozenset({2})))
@example(Nfa(Y, 2, frozenset({(0, 0, 1)}), frozenset({0}), frozenset()))
@example(Nfa(Y, 0, frozenset(), frozenset(), frozenset()))
@example(Nfa(Y, 3, frozenset({(0, 1, 1), (1, None, 1), (1, None, 2), (2, 0, 0)}),
             frozenset({0}), frozenset({1})))
@example(DEAD_END)
def test_epsilon_free_keeps_the_live_states_with_their_closed_rows(a):
    live, closed = ref_live(a)
    e = epsilon_free(a)
    assert e.n_states == max(1, len(live))
    assert not any(e.eps)
    moves = ref_moves(a)
    assert live <= {p for p, x in moves if x is not None} | a.final
    idx = {p: i for i, p in enumerate(sorted(live))}
    n = e.n_states

    def renumbered(states):
        return _mask(idx[q] for q in states & live)

    assert e.initial == set(_bits(renumbered(ref_close(moves, a.initial))))
    assert e.final == {idx[q] for q in a.final}
    for p, i in idx.items():
        # no silent state: each is final or has a letter move
        assert e.rows[i] or i in e.final
        for x in range(a.alphabet.size):
            want = renumbered(closed.get((p, x), set()))
            assert e.rows[i] >> x * n & (1 << n) - 1 == want
        assert e.rows[i] >> a.alphabet.size * n == 0
    if not live:  # the one state of the empty language
        assert e.rows == (0,) and not e.initial and not e.final
    assert ref_words(e) == ref_words(a)
    assert shortest_separator(a, e) is None
    assert epsilon_free(e) == e


def test_epsilon_free_drops_the_states_that_fall_silent():
    # state 1 reads y into the dead end 2, so once closed it is silent;
    # then so is 0, whose only letter move reads x into 1
    e = epsilon_free(DEAD_END)
    assert e == Nfa(Y, 1, frozenset({(0, 2, 0)}), frozenset({0}), frozenset({0}))
    assert words(e, 4) == words(DEAD_END, 4)


def test_epsilon_free_closes_the_rees_probe_image():
    # 17 of the image's 357 states have a letter move and one is final
    image = rees_probe_image()
    closed = epsilon_free(image)
    assert (image.n_states, closed.n_states) == (357, 18)
    assert not any(closed.eps)
    raw = minimal_dfa(star(image))
    assert minimal_dfa(star(closed)) == raw and raw.n_states == 132
    assert shortest_separator(image, closed) is None


# -- packed rows ------------------------------------------------------------------
#
# Every construction builds its rows directly.  Rebuilding a result through
# the public constructor packs the triples that its transitions property
# reads back, so an equal rebuild pins the rows to the moves, and _core of
# the result must still be the closed reference rows.

EF = Nfa(Y, 3, frozenset({(0, 0, 1), (0, 1, 0), (1, 2, 2), (2, 3, 0), (2, 0, 2)}),
         frozenset({0}), frozenset({2}))
EH = Nfa(Y, 4, frozenset({(0, None, 1), (1, None, 0), (1, 0, 0), (1, 1, 2),
                          (2, None, 2), (2, None, 3), (3, None, 1), (3, 2, 3)}),
         frozenset({0}), frozenset({2}))
ONE = Nfa(Y, 1, frozenset({(0, 1, 0), (0, None, 0)}), frozenset({0}), frozenset({0}))
NONE = Nfa(Y, 0, frozenset(), frozenset(), frozenset())


def unary_combinators(a):
    wider = HatAlphabet(a.alphabet.base + ("w",))
    return [star(a), plus(a), trim(a), prefix_closure(a), suffix_closure(a),
            factor_closure(a), involution_image(a),
            ref_restrict(a, {0, a.alphabet.size - 1}),
            relabel(a, wider, sub_hat_letters(wider, a.alphabet.base)),
            as_nfa(determinize(a)), as_nfa(minimal_dfa(a))]


def binary_combinators(a, b):
    return [union(a, b), concat(a, b), intersect(a, b), right_quotient(a, b),
            left_quotient(a, b)]


def packed_results():
    probe = rees_probe_star_image()
    small = (EF, EH, ONE, NONE, empty_nfa(Y))
    out = [probe, word_set_nfa(Y, [(0, 1), (), (3, None, 2)]), empty_nfa(Y)]
    for a in small + (probe,):
        out += unary_combinators(a)
    for a, b in itertools.product(small, repeat=2):
        out += binary_combinators(a, b)
    bar = probe.alphabet.bar
    loops = star(word_set_nfa(probe.alphabet, [(0, bar(0)), (1, 2, bar(2), bar(1))]))
    out += binary_combinators(probe, loops) + binary_combinators(loops, probe)
    c3 = NAMED_SEMIGROUPS["c3"]()
    la = loop_automaton(full_generator_map(c3))
    out += [la, path_language(la, {0, 1}, {2}), non_returning_language(la)]
    return out


def test_every_combinator_equals_its_rebuild_from_triples():
    for r in packed_results():
        again = Nfa(r.alphabet, r.n_states, r.transitions, r.initial, r.final)
        assert again == r and hash(again) == hash(r)
        assert len(r.rows) == len(r.eps) == r.n_states
        assert_core_is_the_reference(r)


def test_triples_in_any_order_pack_to_one_automaton():
    triples = sorted(EH.transitions, key=repr)
    a = Nfa(Y, 4, triples, {0}, {2})
    b = Nfa(Y, 4, list(reversed(triples)) + triples[:3], frozenset({0}), [2])
    assert a == b == EH and hash(a) == hash(b) == hash(EH)
    assert a.transitions == frozenset(triples)
    for moved in ((0, None, 3), (1, 1, 3), (3, 2, 3)):
        c = Nfa(Y, 4, set(triples) ^ {moved}, {0}, {2})
        assert c != a and c.transitions == frozenset(triples) ^ {moved}


def test_relabel_moves_each_chunk_to_its_letter():
    wider = HatAlphabet(("x", "y", "w"))
    letters = sub_hat_letters(wider, ("x", "y"))  # x, y, ~x, ~y -> 0, 1, 3, 4
    r = relabel(EF, wider, letters)
    assert r.transitions == {(p, letters[x], q) for p, x, q in EF.transitions}
    with pytest.raises(LanguageError, match="letter 6 out of range"):
        relabel(EF, wider, [0, 1, 6, 4])


@pytest.mark.parametrize("words, letter_map", [([(0, 1)], [0]), ([(0,)], [0]),
                                               ([()], []), ([(1,)], {0: 1})])
def test_relabel_rejects_a_letter_map_shorter_than_the_alphabet(words, letter_map):
    # the length is checked before any row is read, so a map that misses a
    # letter is refused whether or not a move reads that letter
    a = word_set_nfa(HatAlphabet(("x",)), words)
    with pytest.raises(LanguageError,
                       match=f"letter map of {len(letter_map)} letters for an alphabet of 2"):
        relabel(a, HatAlphabet(("y", "z")), letter_map)


# -- the n-ary layout -------------------------------------------------------------
#
# union and concat as binary calls, each re-packing both operands' rows to
# their sum: a left fold of them is the reference for the n-ary layout, which
# packs every operand once, numbers it after the ones before it and bridges
# each operand's final states to the next one's initial states.

def ref_side_by_side(a, b):
    na, nb = a.n_states, b.n_states
    n = na + nb
    rows = [r and language._repack(r, na, n) for r in a.rows]
    rows += [r and language._repack(r, nb, n, na) for r in b.rows]
    return n, rows, list(a.eps) + [e << na for e in b.eps]


def ref_union(a, b):
    n, rows, eps = ref_side_by_side(a, b)
    na = a.n_states
    return _built(Nfa, a.alphabet, n, tuple(rows), tuple(eps),
                  a.initial | frozenset(q + na for q in b.initial),
                  a.final | frozenset(q + na for q in b.final))


def ref_concat(a, b):
    n, rows, eps = ref_side_by_side(a, b)
    na = a.n_states
    bridge = _mask(b.initial) << na
    for f in a.final:
        eps[f] |= bridge
    return _built(Nfa, a.alphabet, n, tuple(rows), tuple(eps), a.initial,
                  frozenset(q + na for q in b.final))


# NONE has no state at all; empty_nfa and many drawn automata accept nothing
layout_operand = st.one_of(any_nfa, st.just(empty_nfa(Y)), st.just(NONE))


@settings(max_examples=300, deadline=None)
@given(st.lists(layout_operand, min_size=1, max_size=4))
def test_union_and_concat_equal_the_left_fold_of_binary_calls(parts):
    for combine, ref in ((union, ref_union), (concat, ref_concat)):
        got, want = combine(*parts), functools.reduce(ref, parts)
        assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("at", range(4))
def test_any_operand_over_another_alphabet_is_a_mismatch(at):
    parts = [EF, EH, ONE, word_set_nfa(Y, [(0, 3)])]
    parts[at] = word_set_nfa(X, [(x,)])
    for combine in (union, concat):
        with pytest.raises(AlphabetMismatch):
            combine(*parts)


# -- the tuple-row reference ------------------------------------------------------
#
# The subset construction as it ran on one tuple of per-letter masks per
# state, kept as the reference for the packed rows: the same closures and
# the same row entries.  The reference numbers its subsets last-in-first-out
# and determinize numbers them breadth-first, so the tests compare
# determinize with the reference renumbered breadth-first: the same subsets,
# moves and final states, in determinize's order.

def _tuple_closed(close, mask):
    out = 0
    for p in range(len(close)):
        if mask >> p & 1:
            out |= close[p]
    return out


def tuple_core(a):
    n = a.n_states
    nletters = a.alphabet.size
    dense, eps = {}, {}
    for p, x, q in a.transitions:
        if x is None:
            eps[p] = eps.get(p, 0) | 1 << q
        else:
            dense.setdefault(p, [0] * nletters)[x] |= 1 << q
    close = [1 << p for p in range(n)]
    wide = 0
    for p in eps:
        mask = todo = 1 << p
        while todo:
            low = todo & -todo
            todo ^= low
            add = eps.get(low.bit_length() - 1, 0) & ~mask
            mask |= add
            todo |= add
        close[p] = mask
        wide |= 1 << p
    active = sum(1 << p for p in dense)
    rows = [()] * n
    for p, row in dense.items():
        rows[p] = tuple(_tuple_closed(close, m) if m & wide else m for m in row)
    return close, rows, active


def tuple_post(rows, active, mask, nletters):
    out = [0] * nletters
    for p in range(len(rows)):
        if active >> p & mask >> p & 1:
            out = [o | r for o, r in zip(out, rows[p])]
    return out


def tuple_determinize(a):
    close, rows, active = tuple_core(a)
    start = _tuple_closed(close, sum(1 << p for p in a.initial))
    fmask = sum(1 << p for p in a.final)
    nletters = a.alphabet.size
    ids = {start: 0}
    table = [[None] * nletters]
    final = set()
    queue = [start]
    while queue:
        mask = queue.pop()
        sid = ids[mask]
        if mask & fmask:
            final.add(sid)
        for x, nxt in enumerate(tuple_post(rows, active, mask, nletters)):
            if nxt:
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    table.append([None] * nletters)
                    queue.append(nxt)
                table[sid][x] = ids[nxt]
    return Dfa(a.alphabet, len(table), tuple(tuple(r) for r in table),
               0, frozenset(final))


def breadth_first(d):
    """d renumbered breadth-first from its initial state, letters in order,
    as determinize numbers its subsets; every state of d is reachable."""
    queue = [d.initial]
    new = {d.initial: 0}
    for p in queue:
        for q in d.transitions[p]:
            if q is not None and q not in new:
                new[q] = len(queue)
                queue.append(q)
    assert len(queue) == d.n_states
    return renumbered(d, [new[p] for p in range(d.n_states)])


def wide_nfa(seed):
    """30 to 70 states, so a row spans many 30-bit digits of a Python int,
    over two or three base symbols with moves only on x, y and ~x: the top
    letters of the alphabet have none."""
    rng = random.Random(seed)
    n = rng.randint(30, 70)
    alphabet = HatAlphabet(("x", "y", "z")[:rng.randint(2, 3)])
    used = [0, 1, alphabet.size // 2]  # x, y and ~x
    trans = set()
    for _ in range(rng.randint(n, 4 * n)):
        x = None if rng.random() < 0.3 else rng.choice(used)
        trans.add((rng.randrange(n), x, rng.randrange(n)))
    initial = frozenset(rng.sample(range(n), rng.randint(1, 3)))
    final = frozenset(rng.sample(range(n), rng.randint(0, n // 4)))
    return Nfa(alphabet, n, frozenset(trans), initial, final)


@settings(max_examples=200, deadline=None)
@given(any_nfa)
def test_determinize_matches_the_tuple_row_reference(a):
    assert determinize(a) == breadth_first(tuple_determinize(a))


@pytest.mark.parametrize("seed", range(30))
def test_determinize_matches_the_tuple_row_reference_on_wide_nfas(seed):
    a = wide_nfa(seed)
    assert a.n_states >= 30
    assert determinize(a) == breadth_first(tuple_determinize(a))


def test_determinize_matches_the_tuple_row_reference_on_the_probe():
    rhs = rees_probe_star_image()
    assert determinize(rhs) == breadth_first(tuple_determinize(rhs))


# -- Moore refinement ----------------------------------------------------------------
#
# minimize as it ran before it stopped on a stable block count: refinement
# until a round reproduces the label list, and a generator per renumbered row.

def reference_minimize(d):
    n = d.n_states
    nletters = d.alphabet.size
    trans = [[n if q is None else q for q in row] for row in d.transitions]
    trans.append([n] * nletters)
    cls = [0] * (n + 1)
    for p in d.final:
        cls[p] = 1
    while True:
        sigs = {}
        of = cls.__getitem__
        new = [sigs.setdefault((c, *map(of, row)), len(sigs))
               for c, row in zip(cls, trans)]
        if new == cls:
            break
        cls = new
    start, dead = cls[d.initial], cls[n]
    if start == dead:
        return Dfa(d.alphabet, 1, ((None,) * nletters,), 0, frozenset())
    rep = {}
    for p, c in enumerate(cls):
        rep.setdefault(c, p)
    order = {start: 0}
    queue = [start]
    for c in queue:
        for q in trans[rep[c]]:
            if cls[q] not in order and cls[q] != dead:
                order[cls[q]] = len(order)
                queue.append(cls[q])
    rows = tuple(tuple(order.get(cls[q]) for q in trans[rep[c]]) for c in order)
    fin = frozenset(i for c, i in order.items() if rep[c] in d.final)
    return Dfa(d.alphabet, len(rows), rows, 0, fin)


def random_dfa(rng, kind):
    """A partial DFA of one to eight states: `final` has some final states,
    `no-final` none, and `empty-future` only final states that no state
    moves to, so every state the initial one reaches has an empty future."""
    n = rng.randint(1, 8)
    alphabet = HatAlphabet(("x", "y")[:rng.randint(1, 2)])
    none_share = rng.random()
    if kind == "empty-future":
        live = rng.randint(1, n)  # states >= live are final and unreachable
        targets = range(live)
        final = frozenset(range(live, n))
    else:
        live, targets = n, range(n)
        final = (frozenset(rng.sample(range(n), rng.randint(1, n)))
                 if kind == "final" else frozenset())
    rows = tuple(tuple(None if rng.random() < none_share else rng.choice(targets)
                       for _ in range(alphabet.size)) for _ in range(n))
    return Dfa(alphabet, n, rows, rng.randrange(live), final)


@pytest.mark.parametrize("kind", ["final", "no-final", "empty-future"])
def test_minimize_matches_the_full_refinement_reference(kind):
    rng = random.Random(kind)
    for _ in range(300):
        d = random_dfa(rng, kind)
        assert minimize(d) == reference_minimize(d)


@settings(max_examples=200, deadline=None)
@given(st.one_of(eps_nfa, role_nfa))
def test_minimize_matches_the_full_refinement_reference_on_subset_dfas(a):
    # the subsets of a, and those of a without its silent states
    for d in (determinize(a), determinize(epsilon_free(a))):
        assert minimize(d) == reference_minimize(d)


# -- minimize on minimal input -------------------------------------------------
#
# minimize gives back a DFA as it is when every state, the dead one included,
# is a block of its own, the initial state is 0 and the states are numbered
# breadth-first; every other DFA goes through the renumbering.

@functools.cache
def probe_minimal():
    """The 132-state minimal DFA of the semitorees c3 I = J = 2 probe."""
    return minimal_dfa(rees_probe_star_image())


def test_a_minimal_breadth_first_dfa_comes_back_as_it_is():
    m = probe_minimal()
    d = Dfa(m.alphabet, m.n_states, m.transitions, m.initial, m.final)
    assert d.n_states == 132
    assert minimize(d) is d


@pytest.mark.parametrize("seed", range(5))
def test_a_minimal_dfa_with_its_states_permuted_is_renumbered_back(seed):
    m = probe_minimal()
    rest = list(range(1, m.n_states))
    random.Random(seed).shuffle(rest)
    d = renumbered(m, [0, *rest])
    assert d.initial == 0 and d != m
    assert minimize(d) == m == reference_minimize(d)


DEAD = (None, None)


@pytest.mark.parametrize("d, expected", [
    # state 1 is unreachable and numbered before the reachable state 2
    (Dfa(X, 3, ((2, None), (0, None), DEAD), 0, frozenset({2})),
     Dfa(X, 2, ((1, None), DEAD), 0, frozenset({1}))),
    # state 1 is unreachable, after every reachable state
    (Dfa(X, 2, (DEAD, (0, None)), 0, frozenset({0})),
     Dfa(X, 1, (DEAD,), 0, frozenset({0}))),
    # state 1 has an empty future
    (Dfa(X, 2, ((1, None), DEAD), 0, frozenset({0})),
     Dfa(X, 1, (DEAD,), 0, frozenset({0}))),
    # the one-state empty language, with and without a loop
    (Dfa(X, 1, (DEAD,), 0, frozenset()), Dfa(X, 1, (DEAD,), 0, frozenset())),
    (Dfa(X, 1, ((0, 0),), 0, frozenset()), Dfa(X, 1, (DEAD,), 0, frozenset())),
], ids=["unreachable-first", "unreachable-last", "empty-future", "empty", "empty-loop"])
def test_minimize_on_dfas_that_look_minimal_but_are_not(d, expected):
    assert minimize(d) == expected == reference_minimize(d)


@settings(max_examples=200, deadline=None)
@given(any_nfa, st.data())
def test_minimize_does_not_depend_on_the_subset_numbering(a, data):
    d = determinize(a)
    perm = data.draw(st.permutations(range(d.n_states)))
    m = minimize(d)
    assert minimize(renumbered(d, perm)) == m
    # a subset DFA is numbered breadth-first, so one of a nonempty language
    # without merges comes back
    assert (m is d) == (m.n_states == d.n_states and bool(m.final))


# -- the separator walk -------------------------------------------------------------
#
# The separator as it ran on the DFA product, kept as the reference for the
# walk over subset pairs: each Nfa side determinized, then a breadth-first
# search of the product of the two DFAs with implicit dead states.

def dfa_product_separator(a, b):
    da = a if isinstance(a, Dfa) else determinize(a)
    db = b if isinstance(b, Dfa) else determinize(b)
    start = (da.initial, db.initial)
    seen = {start: None}
    queue = [start]
    for pair in queue:
        p, q = pair
        if (p is not None and p in da.final) != (q is not None and q in db.final):
            word = []
            while seen[pair] is not None:
                pair, x = seen[pair]
                word.append(x)
            return tuple(reversed(word))
        for x in range(da.alphabet.size):
            np = da.transitions[p][x] if p is not None else None
            nq = db.transitions[q][x] if q is not None else None
            if (np, nq) != (None, None) and (np, nq) not in seen:
                seen[np, nq] = (pair, x)
                queue.append((np, nq))
    return None


sep_nfa = st.one_of(eps_nfa, role_nfa)


@settings(max_examples=300, deadline=None)
@given(sep_nfa, sep_nfa)
def test_separator_walk_matches_the_dfa_product_reference(a, b):
    assert shortest_separator(a, b) == dfa_product_separator(a, b)
    assert shortest_separator(b, a) == dfa_product_separator(b, a)


@settings(max_examples=200, deadline=None)
@given(sep_nfa, sep_nfa)
def test_separator_walk_on_mixed_and_minimal_operands(a, b):
    want = dfa_product_separator(a, b)
    da, mb = determinize(a), minimal_dfa(b)
    assert shortest_separator(da, b) == dfa_product_separator(da, b) == want
    assert shortest_separator(a, mb) == dfa_product_separator(a, mb) == want
    assert shortest_separator(minimal_dfa(a), mb) == want
    assert shortest_separator(a, da) is None
    assert shortest_separator(mb, b) is None


@settings(max_examples=200, deadline=None)
@given(partial_dfa, partial_dfa)
def test_separator_walk_on_partial_dfas(a, b):
    assert shortest_separator(a, b) == dfa_product_separator(a, b)


@settings(max_examples=200, deadline=None)
@given(sep_nfa, st.data())
def test_separator_walk_on_shared_transitions(a, data):
    # path languages and quotients share one transitions object and differ
    # in their initial or final sets
    states = st.frozensets(st.integers(0, a.n_states - 1), max_size=a.n_states)
    initial, final = data.draw(states), data.draw(states)
    for b in (Nfa(a.alphabet, a.n_states, a.transitions, initial, a.final),
              Nfa(a.alphabet, a.n_states, a.transitions, a.initial, final),
              Nfa(a.alphabet, a.n_states, a.transitions, initial, final)):
        assert shortest_separator(a, b) == dfa_product_separator(a, b)
        assert shortest_separator(b, a) == dfa_product_separator(b, a)


@pytest.mark.parametrize("seed", range(10))
def test_separator_walk_on_wide_nfas(seed):
    a = wide_nfa(seed)
    b = Nfa(a.alphabet, a.n_states, a.transitions, a.initial,
            frozenset(random.Random(seed).sample(range(a.n_states), 3)))
    c = wide_nfa(seed + 100)
    if c.alphabet != a.alphabet:
        c = Nfa(a.alphabet, c.n_states, c.transitions, c.initial, c.final)
    for left, right in ((a, b), (a, c), (determinize(a), b), (minimal_dfa(c), a)):
        assert shortest_separator(left, right) == dfa_product_separator(left, right)


def test_equal_operands_return_none_without_a_core(monkeypatch):
    a = rees_probe_star_image()
    # equal, not identical: fresh copies of every field
    b = Nfa(a.alphabet, a.n_states, frozenset(set(a.transitions)),
            frozenset(set(a.initial)), frozenset(set(a.final)))
    ma, mb = minimal_dfa(a), minimize(determinize(b))
    assert a.transitions is not b.transitions and ma is not mb
    calls = []
    real = language._core
    monkeypatch.setattr(language, "_core", lambda aut, *args, **kw:
                        calls.append(aut) or real(aut, *args, **kw))
    assert shortest_separator(a, b) is None
    assert shortest_separator(ma, mb) is None
    assert calls == []
    # an Nfa and a Dfa are never equal, so the walk indexes both sides,
    # the Dfa read as an Nfa
    assert shortest_separator(a, ma) is None
    assert calls == [a, as_nfa(ma)]


@settings(max_examples=200, deadline=None)
@given(eps_nfa, st.frozensets(st.integers(0, 3)))
def test_restrict_is_the_intersection_with_a_universe(a, letters):
    # the reference restriction, which TestTableWriter reads, is the product
    # of a with the one-state automaton of all words over letters
    r = ref_restrict(a, letters)
    prod = intersect(a, universe_nfa(a.alphabet, letters))
    def counts(b):
        return b.n_states, len(b.transitions), len(b.initial), len(b.final)
    assert counts(r) == counts(prod)
    assert ref_words(r) == ref_words(prod) == {w for w in ref_words(a)
                                                if set(w) <= letters}


# -- the cut, closure and product references ----------------------------------
#
# A restriction to letters, trim, the three closures and the product walk
# written out over the triples of Nfa.transitions, which the engine's packed
# rows never read.
# Product states are numbered in the order the product walk documents, and
# the start pairs in the order frozensets iterate, which may change from one
# process to the next, so each pin compares the two in the same process.

def ref_reach(start, succ):
    seen = set(start)
    todo = list(seen)
    while todo:
        for q in succ[todo.pop()]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def ref_restrict(a, letters):
    allowed = {None, *letters}
    succ = [[] for _ in range(a.n_states)]
    for p, x, q in a.transitions:
        if x in allowed:
            succ[p].append(q)
    keep = sorted(ref_reach(a.initial, succ))
    idx = {p: i for i, p in enumerate(keep)}
    trans = {(idx[p], x, idx[q]) for p, x, q in a.transitions
             if x in allowed and p in idx}
    return Nfa(a.alphabet, max(len(keep), 1), frozenset(trans),
               frozenset(idx[p] for p in a.initial),
               frozenset(idx[p] for p in a.final if p in idx))


def ref_trim(a):
    succ = [[] for _ in range(a.n_states)]
    pred = [[] for _ in range(a.n_states)]
    for p, _x, q in a.transitions:
        succ[p].append(q)
        pred[q].append(p)
    keep = sorted(ref_reach(a.initial, succ) & ref_reach(a.final, pred))
    if not keep:
        return empty_nfa(a.alphabet)
    idx = {p: i for i, p in enumerate(keep)}
    trans = {(idx[p], x, idx[q]) for p, x, q in a.transitions
             if p in idx and q in idx}
    return Nfa(a.alphabet, len(keep), frozenset(trans),
               frozenset(idx[p] for p in a.initial if p in idx),
               frozenset(idx[p] for p in a.final if p in idx))


def ref_prefix_closure(a):
    t = ref_trim(a)
    if not t.transitions and not t.final:
        return t
    return Nfa(t.alphabet, t.n_states, t.transitions, t.initial,
               frozenset(range(t.n_states)))


def ref_suffix_closure(a):
    t = ref_trim(a)
    if not t.transitions and not t.final:
        return t
    return Nfa(t.alphabet, t.n_states, t.transitions,
               frozenset(range(t.n_states)), t.final)


def ref_factor_closure(a):
    t = ref_trim(a)
    if not t.transitions and not t.final:
        return t
    everything = frozenset(range(t.n_states))
    return Nfa(t.alphabet, t.n_states, t.transitions, everything, everything)


def ref_product(a, b_moves, start):
    """The product walk over a's triples and the move table b_moves: pairs
    numbered last in first out; from each, a's epsilon moves, then the
    moves of b_moves in order, a letter move with a's successors on that
    letter in increasing order.  Returns the numbered pairs and the moves
    between their numbers."""
    am = ref_moves(a)
    ids = {pair: i for i, pair in enumerate(start)}
    queue = list(ids)
    moves = set()
    while queue:
        pair = queue.pop()
        p, q = pair
        out = [(None, (p2, q)) for p2 in sorted(am.get((p, None), ()))]
        for x, lab, q2 in b_moves[q]:
            if x is None:
                out.append((lab, (p, q2)))
            else:
                out += [(lab, (p2, q2)) for p2 in sorted(am.get((p, x), ()))]
        for lab, nxt in out:
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            moves.add((ids[pair], lab, ids[nxt]))
    return ids, moves


def ref_intersect(a, b):
    # b's moves per state: epsilon moves first, then by letter and target
    bm = ref_moves(b)
    b_moves = [[(x, x, q) for x in (None, *range(b.alphabet.size))
                for q in sorted(bm.get((p, x), ()))] for p in range(b.n_states)]
    start = [(p, q) for p in a.initial for q in b.initial]
    ids, moves = ref_product(a, b_moves, start)
    final = frozenset(i for (p, q), i in ids.items()
                      if p in a.final and q in b.final)
    return Nfa(a.alphabet, max(len(ids), 1), frozenset(moves),
               frozenset(range(len(start))), final)


@settings(max_examples=300, deadline=None)
@given(any_nfa, any_nfa)
def test_cuts_closures_and_products_equal_their_references(a, b):
    assert trim(a) == ref_trim(a)
    assert prefix_closure(a) == ref_prefix_closure(a)
    assert suffix_closure(a) == ref_suffix_closure(a)
    assert factor_closure(a) == ref_factor_closure(a)
    assert intersect(a, b) == ref_intersect(a, b)


# -- the packer and the reverse ------------------------------------------------
#
# ref_reversed reverses the moves and bars the letters in one pass over the
# rows, without _pack: the reference for _reverse and involution_image.

def ref_reversed(a, letter=None):
    """The rows and epsilon masks of a with every move reversed, and its
    letter x read as letter(x) when a letter map is given."""
    n = a.n_states
    rows, eps = [0] * n, [0] * n
    for p, e in enumerate(a.eps):
        for q in language._bits(e):
            eps[q] |= 1 << p
    for p, row in enumerate(a.rows):
        for b in language._bits(row):
            x, q = divmod(b, n)
            rows[q] |= 1 << ((x if letter is None else letter(x)) * n + p)
    return rows, eps


def ref_involution_image(a):
    rows, eps = ref_reversed(a, a.alphabet.bar)
    return _built(Nfa, a.alphabet, a.n_states, tuple(rows), tuple(eps),
                  a.final, a.initial)


def assert_involution_is_the_reference(a):
    image = involution_image(a)
    assert image == ref_involution_image(a)
    assert involution_image(image) == a


@settings(max_examples=150, deadline=None)
@given(eps_nfa)
def test_involution_image_is_the_barred_reversal(a):
    assert_involution_is_the_reference(a)


def test_involution_image_is_the_barred_reversal_on_packed_results():
    for a in packed_results():
        assert_involution_is_the_reference(a)


@settings(max_examples=100, deadline=None)
@given(partial_dfa)
def test_as_nfa_is_its_rebuild_from_triples(d):
    triples = {(p, x, q) for p, row in enumerate(d.transitions)
               for x, q in enumerate(row) if q is not None}
    assert as_nfa(d) == Nfa(d.alphabet, d.n_states, triples, {d.initial}, d.final)


@pytest.mark.parametrize("words", [
    [], [()], [(0, 1), (), (3, None, 2)], [(None,), (None, None, 1), (1,)],
    [(2, 2), (2, 2)], [(None, 3, None)],
])
def test_word_set_nfa_is_its_rebuild_from_triples(words):
    triples, final, nxt = set(), set(), 1
    for w in words:
        prev = 0
        for a in w:
            triples.add((prev, a, nxt))
            prev, nxt = nxt, nxt + 1
        final.add(prev)
    assert word_set_nfa(Y, iter(words)) == Nfa(Y, nxt, triples, {0}, final)


def test_word_set_nfa_rejects_a_letter_out_of_range():
    with pytest.raises(LanguageError, match="^letter 4 out of range$"):
        word_set_nfa(Y, [(0,), (1, None, 4)])


def test_a_one_shot_iterator_packs_like_a_frozenset():
    triples = sorted(EH.transitions, key=repr)
    once = Nfa(Y, 4, iter(triples), iter([0]), iter([2]))
    assert once == Nfa(Y, 4, frozenset(triples), frozenset({0}), frozenset({2})) == EH
    assert Nfa(Y, 4, (t for t in triples), {0}, {2}) == EH


@pytest.mark.parametrize("moves, initial, message", [
    ([(0, 0, 1), (0, 9, 1), (5, 0, 0)], {0}, "letter 9 out of range"),
    ([(0, 0, 1), (5, 0, 0), (0, 9, 1)], {0}, "transition state out of range: (5, 0, 0)"),
    ([(0, None, 1), (1, -1, 0)], {0}, "letter -1 out of range"),
    ([(0, 4, 2)], {0}, "transition state out of range: (0, 4, 2)"),
    ([(0, 9, 1)], {3}, "state 3 out of range"),
])
def test_the_first_bad_triple_gives_its_message(moves, initial, message):
    with pytest.raises(LanguageError) as err:
        Nfa(Y, 2, iter(moves), initial, {1})
    assert str(err.value) == message


@pytest.mark.parametrize("initial, final, message", [
    ({-1}, {1}, "state -1 out of range"),
    ({0}, {5}, "state 5 out of range"),
    ({2}, set(), "state 2 out of range"),
])
def test_an_initial_or_final_state_out_of_range_gives_its_message(initial, final, message):
    with pytest.raises(LanguageError) as err:
        Nfa(Y, 2, (), initial, final)
    assert str(err.value) == message


class TestTextFormat:
    def test_writer_pins_every_token(self):
        a = Nfa(HatAlphabet(("x", "y")), 3,
                frozenset({(0, 0, 1), (1, 2, 2), (2, None, 0)}),
                frozenset({0}), frozenset({2}))
        assert format_automaton(a) == ("states 3\nalphabet x y\ninitial 0\nfinal 2\n"
                                       "0 x 1\n1 ~x 2\n2 - 0\n")

    def test_writer_on_an_automaton_without_states(self):
        assert format_automaton(NONE) == "states 0\nalphabet x y\ninitial \nfinal \n"

    @settings(max_examples=200, deadline=None)
    @given(any_nfa)
    def test_writer_lists_each_move_once_in_order(self, a):
        lines = format_automaton(a).splitlines()
        head = [line.split(" ") for line in lines[:4]]
        assert [h[0] for h in head] == ["states", "alphabet", "initial", "final"]
        assert int(head[0][1]) == a.n_states
        assert tuple(head[1][1:]) == a.alphabet.base
        assert [int(q) for q in head[2][1:] if q] == sorted(a.initial)
        assert [int(q) for q in head[3][1:] if q] == sorted(a.final)
        # each move line names its letter as the alphabet does, `-` for epsilon
        back = [(int(p), None if x == "-" else a.alphabet.letter(x), int(q))
                for p, x, q in (line.split(" ") for line in lines[4:])]
        assert len(back) == len(set(back)) and set(back) == a.transitions
        key = lambda t: (t[0], -1 if t[1] is None else t[1], t[2])
        assert back == sorted(back, key=key)

    @settings(max_examples=100, deadline=None)
    @given(partial_dfa)
    def test_writer_on_a_dfa_writes_it_as_an_nfa(self, d):
        assert format_automaton(d) == format_automaton(as_nfa(d))

    def test_negative_state_count_is_rejected(self):
        with pytest.raises(LanguageError, match="state count must be non-negative"):
            Nfa(X, -1, frozenset(), frozenset(), frozenset())

    def test_trim_keeps_language(self):
        a = Nfa(X, 4, frozenset({(0, x, 1), (2, x, 3)}),
                frozenset({0}), frozenset({1}))
        t = trim(a)
        assert t.n_states == 2 and equivalent(t, a)


# (call, exception type, message): the Dfa constructor's checks
DFA_CHECKS = [
    pytest.param(lambda: Dfa(X, 1, ((None, None),), 1, frozenset()), LanguageError,
                 "initial state out of range", id="initial"),
    pytest.param(lambda: Dfa(X, 2, ((None, None),), 0, frozenset()), LanguageError,
                 "transition table size mismatch", id="table-size"),
    pytest.param(lambda: Dfa(X, 1, ((None,),), 0, frozenset()), LanguageError,
                 "transition row size mismatch", id="row-size"),
    pytest.param(lambda: Dfa(X, 1, ((1, None),), 0, frozenset()), LanguageError,
                 "transition target out of range", id="target"),
    pytest.param(lambda: Dfa(X, 1, ((0, None),), 0, frozenset({1})), LanguageError,
                 "final state out of range", id="final"),
]


@pytest.mark.parametrize("call, exc, message", DFA_CHECKS)
def test_dfa_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message


# (call, exception type, message): HatAlphabet's letter readers, which take
# only the letters 0 .. size - 1
AB = HatAlphabet(("a", "b"))
ALPHABET_CHECKS = [
    pytest.param(lambda: AB.name(-1), LanguageError, "letter -1 out of range",
                 id="name-negative"),
    pytest.param(lambda: AB.name(4), LanguageError, "letter 4 out of range",
                 id="name-too-large"),
    pytest.param(lambda: AB.bar(-1), LanguageError, "letter -1 out of range",
                 id="bar-negative"),
    pytest.param(lambda: AB.bar(4), LanguageError, "letter 4 out of range",
                 id="bar-too-large"),
    pytest.param(lambda: AB.bar_word((0, 5)), LanguageError, "letter 5 out of range",
                 id="bar-word-too-large"),
    pytest.param(lambda: AB.is_positive(-1), LanguageError, "letter -1 out of range",
                 id="is-positive-negative"),
]


@pytest.mark.parametrize("call, exc, message", ALPHABET_CHECKS)
def test_alphabet_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message
