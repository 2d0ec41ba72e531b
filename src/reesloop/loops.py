"""Cayley graphs, loop automata and loop problems.

The loop automaton of a semigroup S with generator choice sigma is the Cayley
graph of S^1 under the lifted monoid choice, doubled with an inverse edge
x-bar for every edge x, viewed as an acceptor with the identity as the only
initial and final state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .language import HatAlphabet, Nfa
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    IndexOutOfRange,
    NoIdentity,
    _built,
    lift_to_monoid,
)


class LoopError(ValueError):
    pass


class EmptyVertexSet(LoopError):
    pass


class NotInLoopProblem(LoopError):
    pass


@dataclass(frozen=True)
class CayleyGraph:
    """Right Cayley graph: an edge a --x--> b exactly when a.(x sigma) = b."""

    monoid: FiniteSemigroup
    gen_map: GeneratorMap
    edges: tuple[tuple[int, int, int], ...]  # (a, letter, b)

    @property
    def vertex_count(self) -> int:
        return self.monoid.order


@dataclass(frozen=True)
class LoopAutomaton:
    """Doubled Cayley graph of a monoid, accepting loops at the identity."""

    nfa: Nfa
    monoid: FiniteSemigroup
    gen_map: GeneratorMap  # monoid-level map whose Cayley graph this is
    identity_state: int

    @property
    def alphabet(self) -> HatAlphabet:
        return self.nfa.alphabet


def cayley_graph(gmap: GeneratorMap) -> CayleyGraph:
    """Cayley graph of a monoid generator choice."""
    m = gmap.target
    if m.identity is None or not gmap.monoid:
        raise NoIdentity("cayley_graph needs a monoid generator map")
    edges = tuple((a, x, m.mul(a, gmap.image[x]))
                  for a in range(m.order) for x in range(len(gmap.alphabet)))
    return CayleyGraph(m, gmap, edges)


def monoid_loop_automaton(gmap: GeneratorMap) -> LoopAutomaton:
    """Loop automaton of a monoid with its own designated identity."""
    cg = cayley_graph(gmap)
    alphabet = HatAlphabet(tuple(gmap.alphabet))
    trans = set()
    for a, x, b in cg.edges:
        trans.add((a, x, b))
        trans.add((b, alphabet.bar(x), a))
    ident = gmap.target.identity
    nfa = _built(Nfa, alphabet, gmap.target.order, frozenset(trans),
                 frozenset({ident}), frozenset({ident}))
    return LoopAutomaton(nfa, gmap.target, gmap, ident)


def loop_automaton(gmap: GeneratorMap) -> LoopAutomaton:
    """Loop automaton of a semigroup: a fresh identity is always adjoined,
    even when the target happens to be a monoid."""
    return monoid_loop_automaton(lift_to_monoid(gmap))


def loop_problem(gmap: GeneratorMap) -> Nfa:
    """The language recognised by the loop automaton."""
    la = monoid_loop_automaton(gmap) if gmap.monoid else loop_automaton(gmap)
    return la.nfa


def path_language(la: LoopAutomaton, sources, targets) -> Nfa:
    """Words labelling paths from one vertex set to another."""
    src = frozenset(sources)
    tgt = frozenset(targets)
    if not src or not tgt:
        raise EmptyVertexSet("vertex sets must be nonempty")
    for v in src | tgt:
        if not (0 <= v < la.monoid.order):
            raise IndexOutOfRange(f"vertex {v} out of range")
    return _built(Nfa, la.nfa.alphabet, la.nfa.n_states, la.nfa.transitions, src, tgt)


def non_returning_language(la: LoopAutomaton) -> Nfa:
    """Nonempty words labelling loops at the identity that avoid the identity
    strictly in between: the identity state is split into a source copy
    (keeping its out-edges) and a fresh sink copy (receiving its in-edges)."""
    ident = la.identity_state
    sink = la.nfa.n_states
    trans = set()
    for p, x, q in la.nfa.transitions:
        trans.add((p, x, sink if q == ident else q))
    return _built(Nfa, la.nfa.alphabet, sink + 1, frozenset(trans),
                  frozenset({ident}), frozenset({sink}))


def zigzag_factor(alphabet: HatAlphabet, word) -> list[tuple[int, ...]]:
    """Split a word into maximal alternating blocks u0, v1-bar, u1, ...,
    vn-bar (positive blocks at even positions, negative at odd), inserting
    empty blocks so the shape starts positive and ends negative.
    Concatenating the blocks restores the word; the empty word factors as
    the single empty block u0 (the n = 0 degenerate shape)."""
    word = tuple(word)
    runs: list[tuple[int, ...]] = []
    run: list[int] = []
    for x in word:
        if run and alphabet.is_positive(x) != alphabet.is_positive(run[-1]):
            runs.append(tuple(run))
            run = []
        run.append(x)
    if run:
        runs.append(tuple(run))
    if not runs:
        return [()]
    if not alphabet.is_positive(runs[0][0]):
        runs.insert(0, ())
    if alphabet.is_positive(runs[-1][0]):
        runs.append(())
    return runs


def _accepting_path(la_nfa: Nfa, word) -> list[int] | None:
    """Lexicographically least accepting state sequence under state order."""
    word = tuple(word)
    step: dict[tuple[int, int], set[int]] = {}
    for p, x, q in la_nfa.transitions:
        step.setdefault((p, x), set()).add(q)
    # states at position t able to finish the remaining suffix
    viable = [set() for _ in range(len(word) + 1)]
    viable[len(word)] = set(la_nfa.final)
    for t in range(len(word) - 1, -1, -1):
        x = word[t]
        for p in range(la_nfa.n_states):
            if step.get((p, x), set()) & viable[t + 1]:
                viable[t].add(p)
    starts = sorted(set(la_nfa.initial) & viable[0])
    if not starts:
        return None
    path = [starts[0]]
    for t, x in enumerate(word):
        nxt = sorted(step.get((path[-1], x), set()) & viable[t + 1])
        path.append(nxt[0])
    return path


def zigzag_witness(la: LoopAutomaton, word) -> tuple[int, ...]:
    """Vertex sequence p0..pn at the block boundaries of zigzag_factor, with
    p0 = pn = 1 and p_i (u_i sigma) = p_{i+1} (v_{i+1} sigma); extracted from
    an accepting path and re-verified before returning."""
    word = tuple(word)
    path = _accepting_path(la.nfa, word)
    if path is None:
        raise NotInLoopProblem("word is not accepted by the loop automaton")
    blocks = zigzag_factor(la.alphabet, word)
    # p_i sits after blocks u_0 v_1-bar ... v_i-bar (the first 2i blocks)
    positions = [0]
    acc = 0
    for k in range(1, len(blocks) // 2 + 1):
        acc += len(blocks[2 * k - 2]) + len(blocks[2 * k - 1])
        positions.append(acc)
    witness = tuple(path[p] for p in positions)
    gm = la.gen_map
    n = len(blocks) // 2
    for i in range(n):
        u = blocks[2 * i]
        v = la.alphabet.bar_word(blocks[2 * i + 1])
        lhs = la.monoid.mul(witness[i], gm.evaluate(u))
        rhs = la.monoid.mul(witness[i + 1], gm.evaluate(v))
        if lhs != rhs:
            raise LoopError("zigzag witness equations failed")
    if witness[0] != la.identity_state or witness[-1] != la.identity_state:
        raise LoopError("zigzag witness must start and end at the identity")
    return witness


# -- DOT export ---------------------------------------------------------------

def cayley_dot(cg: CayleyGraph, name: str = "cayley") -> str:
    m = cg.monoid
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in range(m.order):
        shape = "doublecircle" if v == m.identity else "circle"
        lines.append(f'  v{v} [label="{m.labels[v]}", shape={shape}];')
    for a, x, b in cg.edges:
        lines.append(f'  v{a} -> v{b} [label="{cg.gen_map.alphabet[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def loop_automaton_dot(la: LoopAutomaton, name: str = "loops") -> str:
    """Positive edges solid, inverse edges dashed, identity double-circled."""
    m = la.monoid
    alpha = la.alphabet
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in range(m.order):
        shape = "doublecircle" if v == la.identity_state else "circle"
        lines.append(f'  v{v} [label="{m.labels[v]}", shape={shape}];')
    for p, x, q in sorted(la.nfa.transitions):
        style = "solid" if alpha.is_positive(x) else "dashed"
        lines.append(f'  v{p} -> v{q} [label="{alpha.name(x)}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
