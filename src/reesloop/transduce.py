"""Finite-state transducers with word-pair edge labels, and the explicit
transducer carrying the loop problem of a base semigroup onto the loop
problem of a Rees matrix semigroup over it.  apply reads an input word as a
chain of one-letter moves; word_letters first makes each word one letter,
as the semitorees verifier does, so its image has no epsilon chain."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .language import (AlphabetMismatch, HatAlphabet, LanguageError, Nfa, _core, _mask,
                       _product_nfa, _reach, _union)
from .semigroup import GeneratorMap, ReesStructure, SemigroupError, _built


class HasZero(SemigroupError):
    pass


@dataclass(frozen=True)
class Transducer:
    """Edges carry a finite input word and a finite output word (either may
    be empty)."""

    in_alphabet: HatAlphabet
    out_alphabet: HatAlphabet
    n_states: int
    edges: frozenset[tuple[int, tuple[int, ...], tuple[int, ...], int]]
    initial: frozenset[int]
    final: frozenset[int]

    def __post_init__(self):
        for q in self.initial | self.final:
            if not (0 <= q < self.n_states):
                raise LanguageError(f"state {q} out of range")
        for p, u, v, q in self.edges:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise LanguageError("edge state out of range")
            for a in u:
                if not (0 <= a < self.in_alphabet.size):
                    raise LanguageError(f"input letter {a} out of range")
            for b in v:
                if not (0 <= b < self.out_alphabet.size):
                    raise LanguageError(f"output letter {b} out of range")

    def __repr__(self):
        return f"Transducer(states={self.n_states}, edges={len(self.edges)})"


def normalize(t: Transducer) -> Transducer:
    """Split word labels so every edge reads at most one input letter and
    writes at most one output letter; the relation is unchanged."""
    edges = set()
    n = t.n_states
    for p, u, v, q in t.edges:
        steps = max(len(u), len(v), 1)
        if steps == 1:
            edges.add((p, u, v, q))
            continue
        prev = p
        for k in range(steps):
            nxt = q if k == steps - 1 else n
            if nxt == n:
                n += 1
            edges.add((prev,
                       u[k:k + 1],
                       v[k:k + 1],
                       nxt))
            prev = nxt
    return _built(Transducer, t.in_alphabet, t.out_alphabet, n,
                  frozenset(edges), t.initial, t.final)


def apply(t: Transducer, l: Nfa) -> Nfa:
    """Image of a regular language under the transduction: the product of
    the language automaton with the normalized transducer, projected to the
    output tape."""
    if l.alphabet != t.in_alphabet:
        raise AlphabetMismatch("language is not over the transducer input alphabet")
    nt = normalize(t)
    t_moves: list[list[tuple]] = [[] for _ in range(nt.n_states)]
    for p, u, v, q in nt.edges:
        t_moves[p].append((u[0] if u else None, v[0] if v else None, q))
    return _product_nfa(t.out_alphabet, l, t_moves, nt.initial, nt.final)


def word_letters(t: Transducer, l: Nfa) -> tuple[Transducer, Nfa]:
    """t with each distinct input word of its edges read as one letter, and
    l over those letters with no epsilon move: s --k--> s' for every s' that
    word k leads to from the closure of s; s is final when its closure
    holds a final state.  apply of the two has apply(t, l)'s language."""
    if l.alphabet != t.in_alphabet:
        raise AlphabetMismatch("language is not over the transducer input alphabet")
    letter = {u: k for k, u in enumerate(sorted({u for _p, u, _v, _q in t.edges}))}
    n, rows, full = l.n_states, _core(l).rows, (1 << l.n_states) - 1
    close, moves = [_reach(1 << s, l.eps) for s in range(n)], [0] * n
    for s in range(n):
        for u, k in letter.items():
            m = close[s]
            for a in u:
                m = _union(rows, m) >> a * n & full
            moves[s] |= m << k * n
    alpha, fmask = HatAlphabet(tuple(f"w{k}" for k in range(len(letter)))), _mask(l.final)
    return (_built(Transducer, alpha, t.out_alphabet, t.n_states,
                   frozenset((p, (letter[u],), v, q) for p, u, v, q in t.edges),
                   t.initial, t.final),
            _built(Nfa, alpha, n, tuple(moves), (0,) * n, l.initial,
                   frozenset(s for s in range(n) if close[s] & fmask)))


def choose_words(gmap: GeneratorMap, rng: random.Random | None = None) -> dict[int, tuple[int, ...]]:
    """A shortest nonempty positive word for every element, by breadth-first
    search over the Cayley graph; ties broken by symbol order, or randomly
    when an rng is supplied."""
    target = gmap.target
    letters = list(range(len(gmap.alphabet)))
    words: dict[int, tuple[int, ...]] = {}
    order = letters if rng is None else rng.sample(letters, len(letters))
    queue: list[int] = []
    for x in order:
        e = gmap.image[x]
        if e not in words:
            words[e] = (x,)
            queue.append(e)
    while queue:
        nxt_queue: list[int] = []
        for e in queue:
            order = letters if rng is None else rng.sample(letters, len(letters))
            for x in order:
                p = target.mul(e, gmap.image[x])
                if p not in words:
                    words[p] = words[e] + (x,)
                    nxt_queue.append(p)
        queue = nxt_queue
    return words


def build_rees_transducer(s_gmap: GeneratorMap, rees: ReesStructure,
                          m_gmap: GeneratorMap,
                          words: dict[int, tuple[int, ...]] | None = None) -> Transducer:
    """The transducer from loops of the base semigroup to loops of the Rees
    matrix semigroup M(S; I, J; P).

    States are the pairs (i, j) plus a start state A and an end state Z.  For
    each generator y of M decoding to (i_y, g_y, j_y), with w_y a word for
    g_y and w_ji a word for P[j][i]:

      A -> (i_y, j_y)      reading (w_y, y)
      (i_y, j_y) -> Z      reading (w_y-bar, y-bar)
      (i, k) -> (i, j_y)   reading (w_{k i_y} w_y, y)       for all i, k
      (i, j_y) -> (i, j)   reading (w_y-bar w_{j i_y}-bar, y-bar)  for all i, j
    """
    if rees.with_zero:
        raise HasZero("the transducer construction needs a zero-free Rees product")
    if s_gmap.target is not rees.base and s_gmap.target != rees.base:
        raise SemigroupError("the base map is not onto the Rees product's base")
    if m_gmap.target.order != rees.order:
        raise SemigroupError("the Rees map's target is not of the Rees product's order")
    if words is None:
        words = choose_words(s_gmap)
    in_alpha = HatAlphabet(tuple(s_gmap.alphabet))
    out_alpha = HatAlphabet(tuple(m_gmap.alphabet))
    icount, jcount = rees.i_count, rees.j_count

    def pair_state(i, j):
        return i * jcount + j

    state_a = icount * jcount
    state_z = state_a + 1
    edges = set()
    bar_in = in_alpha.bar_word
    for y, my in enumerate(m_gmap.image):
        iy, gy, jy = rees.decode(my)
        wy = words[gy]
        wy_bar = bar_in(wy)
        ybar = out_alpha.bar(y)
        edges.add((state_a, wy, (y,), pair_state(iy, jy)))
        edges.add((pair_state(iy, jy), wy_bar, (ybar,), state_z))
        for i in range(icount):
            for k in range(jcount):
                w_kiy = words[rees.sandwich.entry(k, iy)]
                edges.add((pair_state(i, k), w_kiy + wy, (y,), pair_state(i, jy)))
            for j in range(jcount):
                w_jiy = words[rees.sandwich.entry(j, iy)]
                edges.add((pair_state(i, jy), wy_bar + bar_in(w_jiy), (ybar,),
                           pair_state(i, j)))
    return _built(Transducer, in_alpha, out_alpha, state_z + 1, frozenset(edges),
                  frozenset({state_a}), frozenset({state_z}))
