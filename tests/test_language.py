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
    equivalent,
    factor_closure,
    format_automaton,
    intersect,
    involution_image,
    left_quotient,
    member,
    minimal_dfa,
    minimize,
    parse_automaton_text,
    plus,
    prefix_closure,
    restrict,
    right_quotient,
    shortest_separator,
    star,
    suffix_closure,
    trim,
    union,
    word_set_nfa,
    _closed,
    _core,
    _mask,
)
from reesloop import language
from reesloop.loops import loop_problem
from reesloop.semigroup import (NAMED_SEMIGROUPS, ParseError, full_generator_map,
                                rees_matrix, sandwich)
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
    assert m.minimal
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
                        frozenset(), minimal=True)
    perm = data.draw(st.permutations(range(d.n_states)))
    assert minimize(renumbered(d, perm)) == m
    assert minimize(data.draw(st.composite(with_unreachable)(d))) == m


# -- subsets without silent states ---------------------------------------------

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
    full = determinize(a)
    cut = determinize(a, keep_silent=False)
    assert minimize(cut) == minimize(full)
    assert cut.n_states <= full.n_states


@settings(max_examples=200, deadline=None)
@given(role_nfa, role_nfa)
def test_nfa_separator_is_the_separator_of_the_full_dfas(a, b):
    # the separator walk reads NFA rows without their silent states; the
    # full subset automata are the reference
    assert shortest_separator(a, b) == shortest_separator(determinize(a), determinize(b))
    assert shortest_separator(a, determinize(a)) is None


def rees_probe_star_image():
    """star(image) for semitorees c3, I = J = 2, P = g2,g2;g,e."""
    c3 = NAMED_SEMIGROUPS["c3"]()
    gmap = full_generator_map(c3)
    p = sandwich([[c3.index(v) for v in row] for row in (("g2", "g2"), ("g", "e"))])
    m, rs = rees_matrix(c3, 2, 2, p, with_zero=False)
    trans = build_rees_transducer(gmap, rs, full_generator_map(m))
    return star(apply(trans, loop_problem(gmap)))


def test_rees_probe_subsets_with_and_without_silent_states():
    # 17 of the 358 states of star(image) have a letter move and one is final
    rhs = rees_probe_star_image()
    assert rhs.n_states == 358
    assert determinize(rhs).n_states == 1969
    assert determinize(rhs, keep_silent=False).n_states == 132


# -- the one-pass index ---------------------------------------------------------

Y = HatAlphabet(("x", "y"))


def without_epsilon(a):
    return Nfa(a.alphabet, a.n_states,
               frozenset(t for t in a.transitions if t[1] is not None),
               a.initial, a.final)


any_nfa = st.one_of(eps_nfa, role_nfa, eps_nfa.map(without_epsilon))


@settings(max_examples=300, deadline=None)
@given(any_nfa, st.booleans())
# an epsilon cycle that a letter move leads back into, an epsilon self-loop
# on a final state with only epsilon moves, and an NFA with no epsilon move
@example(Nfa(Y, 4, frozenset({(0, None, 1), (1, None, 0), (1, 0, 0), (1, 1, 2),
                              (2, None, 2), (2, None, 3), (3, None, 1)}),
             frozenset({0}), frozenset({2})), False)
@example(Nfa(Y, 3, frozenset({(0, 0, 1), (1, 2, 2), (2, 3, 0)}),
             frozenset({0}), frozenset({2})), True)
def test_core_rows_are_the_closed_reference_successors(a, keep_silent):
    # chunk x of row p, bits x*n .. x*n+n-1, is the reference closure of the
    # successors of p under x, less the dropped silent states (no letter
    # move, not final); a state without a letter move has the row 0
    moves = ref_moves(a)
    lettered = {p for p, x in moves if x is not None}
    keep = set(range(a.n_states)) if keep_silent else lettered | a.final
    core = _core(a, keep_silent)
    n = a.n_states
    assert core.active == _mask(lettered)
    assert _closed(core.close, _mask(a.initial)) == _mask(ref_close(moves, a.initial) & keep)
    for p in range(n):
        assert core.close[p] == _mask(ref_close(moves, {p}) & keep)
        row = core.rows[p]
        if p not in lettered:
            assert row == 0
            continue
        for x in range(a.alphabet.size):
            want = _mask(ref_close(moves, moves.get((p, x), ())) & keep)
            assert row >> x * n & (1 << n) - 1 == want
        assert row >> a.alphabet.size * n == 0


# -- the tuple-row reference ------------------------------------------------------
#
# The subset construction as it ran on one tuple of per-letter masks per
# state, kept as the reference for the packed rows: the same closures, the
# same row entries and the same visiting order, so the two give equal Dfas.

def _tuple_closed(close, mask):
    out = 0
    for p in range(len(close)):
        if mask >> p & 1:
            out |= close[p]
    return out


def tuple_core(a, keep_silent):
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
    everything = (1 << n) - 1
    keep = everything if keep_silent else active | sum(1 << p for p in a.final)
    close = [c & keep for c in close]
    rows = [()] * n
    for p, row in dense.items():
        rows[p] = tuple(_tuple_closed(close, m) if m & wide else m & keep for m in row)
    return close, rows, active


def tuple_post(rows, active, mask, nletters):
    out = [0] * nletters
    for p in range(len(rows)):
        if active >> p & mask >> p & 1:
            out = [o | r for o, r in zip(out, rows[p])]
    return out


def tuple_determinize(a, keep_silent=True):
    close, rows, active = tuple_core(a, keep_silent)
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
@given(any_nfa, st.booleans())
def test_determinize_matches_the_tuple_row_reference(a, keep_silent):
    assert determinize(a, keep_silent=keep_silent) == tuple_determinize(a, keep_silent)


@pytest.mark.parametrize("seed", range(30))
def test_determinize_matches_the_tuple_row_reference_on_wide_nfas(seed):
    a = wide_nfa(seed)
    assert a.n_states >= 30
    for keep_silent in (True, False):
        assert determinize(a, keep_silent=keep_silent) == tuple_determinize(a, keep_silent)


def test_determinize_matches_the_tuple_row_reference_on_the_probe():
    rhs = rees_probe_star_image()
    for keep_silent in (True, False):
        assert determinize(rhs, keep_silent=keep_silent) == tuple_determinize(rhs, keep_silent)


# -- the separator walk -------------------------------------------------------------
#
# The separator as it ran on the DFA product, kept as the reference for the
# walk over subset pairs: each Nfa side determinized without its silent
# states, then a breadth-first search of the product of the two DFAs with
# implicit dead states.

def dfa_product_separator(a, b):
    da = a if isinstance(a, Dfa) else determinize(a, keep_silent=False)
    db = b if isinstance(b, Dfa) else determinize(b, keep_silent=False)
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
    r = restrict(a, letters)
    prod = intersect(a, universe_nfa(a.alphabet, letters))
    def counts(b):
        return b.n_states, len(b.transitions), len(b.initial), len(b.final)
    assert counts(r) == counts(prod)
    assert ref_words(r) == ref_words(prod) == {w for w in ref_words(a)
                                                if set(w) <= letters}


class TestTextFormat:
    def test_roundtrip(self):
        a = Nfa(HatAlphabet(("x", "y")), 3,
                frozenset({(0, 0, 1), (1, 2, 2), (2, None, 0)}),
                frozenset({0}), frozenset({2}))
        back = parse_automaton_text(format_automaton(a))
        assert back == a

    def test_parse_with_inferred_alphabet(self):
        text = "states 2\ninitial 0\nfinal 1\n0 x 1\n1 ~x 0\n"
        a = parse_automaton_text(text)
        assert a.alphabet == HatAlphabet(("x",))
        assert member(a, (a.alphabet.letter("x"),))

    def test_epsilon_and_bar_tokens(self):
        text = "states 2\nalphabet x\ninitial 0\nfinal 1\n0 - 1\n1 ~x 1\n"
        a = parse_automaton_text(text)
        assert member(a, ())
        assert member(a, (a.alphabet.letter("~x"),))

    @pytest.mark.parametrize("text, line, message", [
        ("states 2\ninitial x\nfinal 1\n", 2, "bad state in initial line"),
        ("states 2\ninitial 0\n\nfinal 1 y\n", 4, "bad state in final line"),
        ("states 2\ninitial 0\nfinal 5\n", 3, "state 5 out of range"),
        ("initial 2\nstates 2\nfinal 1\n", 1, "state 2 out of range"),
        ("states 2\nalphabet x\n\ninitial -1\n0 x 1\n", 4,
         "state -1 out of range"),
    ])
    def test_bad_initial_or_final_line_is_a_parse_error_at_its_line(
            self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_automaton_text(text)
        assert err.value.line == line
        assert str(err.value) == f"Parse error at line {line}: {message}"

    def test_trim_keeps_language(self):
        a = Nfa(X, 4, frozenset({(0, x, 1), (2, x, 3)}),
                frozenset({0}), frozenset({1}))
        t = trim(a)
        assert t.n_states == 2 and equivalent(t, a)
