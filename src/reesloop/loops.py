"""Cayley graphs, loop automata and loop problems.

The loop automaton of a semigroup S with generator choice sigma is the Cayley
graph of S^1 under the lifted monoid choice, doubled with an inverse edge
x-bar for every edge x, viewed as an acceptor with the identity as the only
initial and final state.  Every loop automaton is an Nfa, and one writer,
table_loop_nfa, packs each of them from a table onto given letters, S^1's
fresh identity a rule, not a table.  The identity is the Nfa's one initial
state; only the DOT export and zigzag_witness, which name S^1's elements,
lift the map to S^1.
"""

from __future__ import annotations

from .language import HatAlphabet, Nfa, _repack
from .semigroup import (
    FiniteSemigroup,
    GeneratorMap,
    IndexOutOfRange,
    _built,
    lift_to_monoid,
)


class LoopError(ValueError):
    pass


class EmptyVertexSet(LoopError):
    pass


class NotInLoopProblem(LoopError):
    pass


def table_loop_nfa(target: FiniteSemigroup, image, alphabet: HatAlphabet, letters,
                   monoid: bool = False, both: bool = False) -> Nfa:
    """Loop automaton of the images `image` in target, packed from the table
    over alphabet: a --x--> b and b --x-bar--> a whenever a.(x sigma) = b,
    image i on letters[i] and its bar on letters[k + i], k = len(image).
    The monoid is target when `monoid`, else target with a fresh identity
    (state target.order, 1.g = g, no table of S^1).  The states are the
    vertices reached from the identity along positive moves, or along moves
    of both kinds when `both`, in sorted order."""
    ident = target.identity if monoid else target.order
    table = target.table if monoid else target.table + (range(ident),)
    if both:
        near = [[row[g] for g in image] for row in table]
        for a, row in enumerate(table):
            for g in image:
                near[row[g]].append(a)
    seen, todo = {ident}, [ident]
    while todo and len(seen) < len(table):
        a = todo.pop()
        for b in near[a] if both else map(table[a].__getitem__, image):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    n, k = len(seen), len(image)
    if n < len(table):  # renumber the kept vertices in sorted order
        idx = {v: i for i, v in enumerate(sorted(seen))}
        table = [[idx[row[g]] for g in image] for row in map(table.__getitem__, idx)]
        image, ident = range(k), idx[ident]
    moves = [(g, 1 << x * n, 1 << y * n) for g, x, y in zip(image, letters[:k], letters[k:])]
    rows = [0] * n
    for a, row in enumerate(table):
        bits = 0
        for g, fwd, back in moves:
            b = row[g]
            bits |= fwd << b
            rows[b] |= back << a
        rows[a] |= bits
    start = frozenset({ident})
    return _built(Nfa, alphabet, n, tuple(rows), (0,) * n, start, start)


def loop_problem(gmap: GeneratorMap) -> Nfa:
    """The language recognised by the loop automaton, written from gmap's
    own table: a semigroup map gets its fresh identity without S^1."""
    alphabet = HatAlphabet(gmap.alphabet)
    return table_loop_nfa(gmap.target, gmap.image, alphabet, range(alphabet.size),
                          gmap.monoid)


def loop_automaton(gmap: GeneratorMap) -> Nfa:
    """Loop automaton of a semigroup: a fresh identity is always adjoined,
    at state gmap.target.order, even when the target happens to be a monoid."""
    alphabet = HatAlphabet(gmap.alphabet)
    return table_loop_nfa(gmap.target, gmap.image, alphabet, range(alphabet.size))


def path_language(nfa: Nfa, sources, targets) -> Nfa:
    """Words labelling paths from one vertex set to another."""
    src = frozenset(sources)
    tgt = frozenset(targets)
    if not src or not tgt:
        raise EmptyVertexSet("vertex sets must be nonempty")
    for v in src | tgt:
        if not (0 <= v < nfa.n_states):
            raise IndexOutOfRange(f"vertex {v} out of range")
    return _built(Nfa, nfa.alphabet, nfa.n_states, nfa.rows, nfa.eps, src, tgt)


def non_returning_language(nfa: Nfa) -> Nfa:
    """Nonempty words labelling loops at the identity, the one initial
    state, that avoid the identity strictly in between: the identity state
    is split into a source copy (keeping its out-edges) and a fresh sink
    copy (receiving its in-edges).  The sink is state n, so every row is
    re-packed into chunks of n + 1 bits, and one mask moves the identity's
    bit to the sink's in every chunk."""
    if len(nfa.initial) != 1:
        raise LoopError(f"a loop automaton has one initial state, not {len(nfa.initial)}")
    (ident,) = nfa.initial
    n = sink = nfa.n_states
    into = sum(1 << (x * (n + 1) + ident) for x in range(nfa.alphabet.size))

    def redirected(row):
        row = _repack(row, n, n + 1)
        hit = row & into
        return row ^ hit ^ hit << (sink - ident)

    return _built(Nfa, nfa.alphabet, n + 1,
                  tuple(map(redirected, nfa.rows)) + (0,),
                  tuple(map(redirected, nfa.eps)) + (0,),
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
    """Lexicographically least accepting state sequence under state order,
    read off the rows of an automaton without epsilon moves."""
    word = tuple(word)
    if not all(0 <= x < la_nfa.alphabet.size for x in word):
        return None
    n = la_nfa.n_states
    full = (1 << n) - 1
    rows = la_nfa.rows
    # viable[t]: the states at position t able to finish the remaining suffix
    viable = [0] * (len(word) + 1)
    viable[len(word)] = sum(1 << q for q in la_nfa.final)
    for t in range(len(word) - 1, -1, -1):
        shift, nxt = word[t] * n, viable[t + 1]
        viable[t] = sum(1 << p for p in range(n) if rows[p] >> shift & full & nxt)
    starts = sum(1 << q for q in la_nfa.initial) & viable[0]
    if not starts:
        return None
    path = [(starts & -starts).bit_length() - 1]
    for t, x in enumerate(word):
        m = rows[path[-1]] >> x * n & full & viable[t + 1]
        path.append((m & -m).bit_length() - 1)
    return path


def zigzag_witness(gmap: GeneratorMap, word) -> tuple[int, ...]:
    """Vertex sequence p0..pn of S^1 at the block boundaries of
    zigzag_factor, with p0 = pn = 1 and p_i (u_i sigma) = p_{i+1}
    (v_{i+1} sigma); extracted from an accepting path and re-verified
    before returning."""
    word = tuple(word)
    lifted = lift_to_monoid(gmap)
    nfa = loop_problem(lifted)
    path = _accepting_path(nfa, word)
    if path is None:
        raise NotInLoopProblem("word is not accepted by the loop automaton")
    alphabet = nfa.alphabet
    blocks = zigzag_factor(alphabet, word)
    # p_i sits after blocks u_0 v_1-bar ... v_i-bar (the first 2i blocks)
    positions = [0]
    acc = 0
    for k in range(1, len(blocks) // 2 + 1):
        acc += len(blocks[2 * k - 2]) + len(blocks[2 * k - 1])
        positions.append(acc)
    witness = tuple(path[p] for p in positions)
    m = lifted.target
    n = len(blocks) // 2
    for i in range(n):
        u = blocks[2 * i]
        v = alphabet.bar_word(blocks[2 * i + 1])
        lhs = m.mul(witness[i], lifted.evaluate(u))
        rhs = m.mul(witness[i + 1], lifted.evaluate(v))
        if lhs != rhs:
            raise LoopError("zigzag witness equations failed")
    if witness[0] != m.identity or witness[-1] != m.identity:
        raise LoopError("zigzag witness must start and end at the identity")
    return witness


# -- DOT export ---------------------------------------------------------------

def _quoted(text: str) -> str:
    """text as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, m: FiniteSemigroup, edges) -> str:
    """DOT digraph on the elements of m, identity double-circled, edges (a, b, label, attrs)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in range(m.order):
        shape = "doublecircle" if v == m.identity else "circle"
        lines.append(f"  v{v} [label={_quoted(m.labels[v])}, shape={shape}];")
    lines.extend(f"  v{a} -> v{b} [label={_quoted(label)}{attrs}];"
                 for a, b, label, attrs in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_dot(gmap: GeneratorMap) -> str:
    """Right Cayley graph of a monoid generator choice: an edge a --x--> b
    exactly when a.(x sigma) = b."""
    m = gmap.target
    return _dot("cayley", m, ((a, row[g], x, "")
                              for a, row in enumerate(m.table)
                              for x, g in zip(gmap.alphabet, gmap.image)))


def loop_automaton_dot(gmap: GeneratorMap) -> str:
    """The loop automaton on the elements of S^1: positive edges solid,
    inverse edges dashed, identity double-circled."""
    lifted = lift_to_monoid(gmap)
    nfa = loop_problem(lifted)
    alpha = nfa.alphabet
    edges = []
    for p, x, q in sorted(nfa.transitions):
        style = "solid" if alpha.is_positive(x) else "dashed"
        edges.append((p, q, alpha.name(x), f", style={style}"))
    return _dot("loops", lifted.target, edges)
