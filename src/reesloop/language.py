"""Regular languages over involutive doubled alphabets.

Automata are partial (no explicit dead state); epsilon transitions are
permitted in an Nfa.  State sets are integer bitmasks internally, and an Nfa
stores its moves as rows of them: rows[p] packs, letter after letter in
chunks of n_states bits, the successors of p under that letter, and eps[p]
holds its epsilon successors.  Only _pack turns (p, x, q) moves into rows;
a loop automaton is read off its table, every other construction builds
its rows from rows, and `transitions` derives the triples only for readers
that want them.  Products are walked forward only; a right quotient walks
the product of the two reverses.  Each operation that simulates an Nfa
(determinize, member, enumerate_words, shortest_separator) closes its
epsilon moves once per automaton with _core: only the states with an
epsilon move are searched for their closures, and only chunks that hold
one of them are closed; an epsilon-free automaton's rows are returned as
they are.  A state set's successors under every letter are then one OR of its
members' closed rows.

A state is silent when it has no letter move and is not final, as are most
states of a transducer image, which only pass epsilon moves on.  A silent
state in a closed set changes neither its successors nor its acceptance.
Only epsilon_free(a) drops them: it closes a once and keeps the other
states, so every later reader of the result skips both steps.  Every other
reader, determinize included, works on the full closed sets.

shortest_separator determinizes nothing.  Equal automata have equal
languages, and it returns None for them at once; otherwise it walks pairs
of closed state sets breadth-first over the closed rows of both sides, a
Dfa side read as an Nfa.  No verdict reads the triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .semigroup import _built


class LanguageError(ValueError):
    pass


class AlphabetMismatch(LanguageError):
    pass


@dataclass(frozen=True)
class HatAlphabet:
    """X^ = X union X-bar; letter k+i is the bar partner of letter i."""

    base: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.base)) != len(self.base):
            raise LanguageError("alphabet symbols must be distinct")
        for s in self.base:
            if not s or s == "-" or s.startswith("~") or any(c.isspace() for c in s):
                raise LanguageError(f"bad symbol {s!r}")

    @property
    def size(self) -> int:
        return 2 * len(self.base)

    def bar(self, letter: int) -> int:
        k = self._check(letter)
        return letter - k if letter >= k else letter + k

    def is_positive(self, letter: int) -> bool:
        return letter < self._check(letter)

    def bar_word(self, word) -> tuple[int, ...]:
        """Reverse the word and bar each letter."""
        return tuple(self.bar(a) for a in reversed(word))

    def name(self, letter: int) -> str:
        k = self._check(letter)
        return self.base[letter] if letter < k else "~" + self.base[letter - k]

    def _check(self, letter: int) -> int:
        """The number of base symbols, once letter is shown to be a letter."""
        k = len(self.base)
        if not 0 <= letter < 2 * k:
            raise LanguageError(f"letter {letter} out of range")
        return k

    def letter(self, name: str) -> int:
        if name.startswith("~"):
            return len(self.base) + self._base_index(name[1:])
        return self._base_index(name)

    def _base_index(self, name: str) -> int:
        try:
            return self.base.index(name)
        except ValueError:
            raise LanguageError(f"unknown symbol {name!r}") from None


@dataclass(frozen=True, init=False)
class Nfa:
    """An automaton with epsilon moves, stored as packed successor rows:
    rows[p] holds the letter successors of p, one n-bit chunk per letter
    (bit x*n + q for the move p --x--> q, n = n_states), and eps[p] its
    epsilon successors (bit q for p --> q).  == and hash read these fields.
    The public constructor takes the moves as (p, x, q) triples, x None for
    epsilon, checks them and packs them once; `transitions` gives the
    triples back."""

    alphabet: HatAlphabet
    n_states: int
    rows: tuple[int, ...]
    eps: tuple[int, ...]
    initial: frozenset[int]
    final: frozenset[int]

    def __init__(self, alphabet: HatAlphabet, n_states: int, transitions,
                 initial, final):
        if n_states < 0:
            raise LanguageError("state count must be non-negative")
        initial, final = frozenset(initial), frozenset(final)
        for q in initial | final:
            if not (0 <= q < n_states):
                raise LanguageError(f"state {q} out of range")
        moves = tuple(transitions)
        for p, a, q in moves:
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise LanguageError(f"transition state out of range: {(p, a, q)}")
            if a is not None and not 0 <= a < alphabet.size:
                raise LanguageError(f"letter {a} out of range")
        rows, eps = _pack(n_states, moves)
        self.__dict__.update(alphabet=alphabet, n_states=n_states,
                             rows=rows, eps=eps, initial=initial, final=final)

    @property
    def transitions(self) -> frozenset[tuple[int, int | None, int]]:
        """The moves as (p, x, q) triples, x None for epsilon, read off the
        rows on every call."""
        n = self.n_states
        out = [(p, None, q) for p, e in enumerate(self.eps) for q in _bits(e)]
        out += [(p, *divmod(b, n)) for p, row in enumerate(self.rows) for b in _bits(row)]
        return frozenset(out)

    def __repr__(self):
        moves = sum(r.bit_count() for r in self.rows + self.eps)
        return f"Nfa(states={self.n_states}, transitions={moves})"


@dataclass(frozen=True)
class Dfa:
    """Partial DFA; transitions[p][a] is the successor or None."""

    alphabet: HatAlphabet
    n_states: int
    transitions: tuple[tuple[int | None, ...], ...]
    initial: int
    final: frozenset[int]

    def __post_init__(self):
        if not (0 <= self.initial < self.n_states):
            raise LanguageError("initial state out of range")
        if len(self.transitions) != self.n_states:
            raise LanguageError("transition table size mismatch")
        nletters = self.alphabet.size
        for row in self.transitions:
            if len(row) != nletters:
                raise LanguageError("transition row size mismatch")
            for q in row:
                if q is not None and not (0 <= q < self.n_states):
                    raise LanguageError("transition target out of range")
        for q in self.final:
            if not (0 <= q < self.n_states):
                raise LanguageError("final state out of range")

    def __repr__(self):
        return f"Dfa(states={self.n_states})"


def as_nfa(a: Nfa | Dfa) -> Nfa:
    if isinstance(a, Nfa):
        return a
    rows, eps = _pack(a.n_states, [(p, x, q) for p, row in enumerate(a.transitions)
                                   for x, q in enumerate(row) if q is not None])
    return _built(Nfa, a.alphabet, a.n_states, rows, eps,
                  frozenset({a.initial}), a.final)


def empty_nfa(alphabet) -> Nfa:
    return Nfa(alphabet, 1, frozenset(), frozenset({0}), frozenset())


def word_set_nfa(alphabet, words) -> Nfa:
    """Union of finite words as one automaton (a simple chain per word); a
    None in a word is an epsilon move."""
    moves, final, nxt = [], set(), 1
    for w in words:
        prev = 0
        for a in w:
            if a is not None and not 0 <= a < alphabet.size:
                raise LanguageError(f"letter {a} out of range")
            moves.append((prev, a, nxt))
            prev, nxt = nxt, nxt + 1
        final.add(prev)
    rows, eps = _pack(nxt, moves)
    return _built(Nfa, alphabet, nxt, rows, eps, frozenset({0}), frozenset(final))


# -- bitmask core -------------------------------------------------------------
#
# Only _pack turns (p, x, q) moves into rows; a construction whose result
# has another state count re-packs the nonzero rows, chunk by chunk.  Closure
# distributes over union, so the successors of a closed state set under
# every letter are one OR of its members' closed rows, read off chunk by
# chunk.

def _mask(states) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _pack(n: int, moves) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows and epsilon masks of n states with the moves (p, x, q), x
    None for epsilon."""
    rows, eps = [0] * n, [0] * n
    for p, x, q in moves:
        if x is None:
            eps[p] |= 1 << q
        else:
            rows[p] |= 1 << (x * n + q)
    return tuple(rows), tuple(eps)


def _repack(row: int, n: int, new_n: int, by: int = 0) -> int:
    """A packed row of n-bit chunks as one of new_n-bit chunks, every state
    moved up by `by`."""
    full = (1 << n) - 1
    out, shift = 0, by
    while row:
        out |= (row & full) << shift
        row >>= n
        shift += new_n
    return out


class _Core(NamedTuple):
    rows: list[int] | tuple[int, ...]  # rows[p]: closed successors of p, one n-bit chunk per letter
    active: int  # the states with a letter move; rows[p] is 0 for the rest
    start: int  # the closure of the initial states
    final: int  # the final states


def _core(a: Nfa) -> _Core:
    """The closed rows of a.  An epsilon-free automaton's rows are returned
    as they are.  Otherwise only the states with an epsilon move (the wide
    states) are searched; every other state closes to itself, so a row none
    of whose chunks holds a wide state is closed already."""
    n = a.n_states
    rows, eps = a.rows, a.eps
    active = 0
    for p, row in enumerate(rows):
        if row:
            active |= 1 << p
    if not any(eps):
        return _Core(rows, active, _mask(a.initial), _mask(a.final))
    close = [1 << p for p in range(n)]
    wide = 0
    for p, e in enumerate(eps):
        if e:
            close[p] = _reach(1 << p, eps)
            wide |= 1 << p
    full = (1 << n) - 1
    wide_all = wide * sum(1 << x * n for x in range(a.alphabet.size))  # in every chunk
    closed = []
    for row in rows:
        if row & wide_all:
            packed = shift = 0
            while row:
                m = row & full
                if m:
                    packed |= (_union(close, m) if m & wide else m) << shift
                row >>= n
                shift += n
            row = packed
        closed.append(row)
    return _Core(closed, active, _union(close, _mask(a.initial)), _mask(a.final))


def _union(rows: list[int], mask: int) -> int:
    """The OR of rows[p] over the set bits p of mask: the closure of a state
    set over close, or a closed set's packed successors over the rows."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


def _reach(start: int, succ) -> int:
    """The states reachable from the state set start; succ[p] is the set of
    successors of p."""
    seen = todo = start
    while todo:
        low = todo & -todo
        todo ^= low
        add = succ[low.bit_length() - 1] & ~seen
        seen |= add
        todo |= add
    return seen


def determinize(a: Nfa) -> Dfa:
    """Subset construction over the closed rows; no dead state is kept.
    Each subset is a full epsilon-closed state set, and the subsets are
    numbered breadth-first, letters in order, as by minimize."""
    rows, active, start, fmask = _core(a)
    n = a.n_states
    full = (1 << n) - 1
    nletters = a.alphabet.size
    ids = {start: 0}
    queue = [start]
    table = []
    for mask in queue:
        row = [None] * nletters
        post = _union(rows, mask & active)
        x = 0
        while post:
            nxt = post & full
            if nxt:
                tid = ids.get(nxt)
                if tid is None:
                    tid = ids[nxt] = len(queue)
                    queue.append(nxt)
                row[x] = tid
            post >>= n
            x += 1
        table.append(tuple(row))
    final = frozenset(sid for sid, mask in enumerate(queue) if mask & fmask)
    return _built(Dfa, a.alphabet, len(table), tuple(table), 0, final)


def _breadth_first(transitions) -> bool:
    """Whether rows 0, 1, 2, ... are each reached before they are read and
    each first-seen successor is the next number: breadth-first from 0."""
    seen = 1
    for p, row in enumerate(transitions):
        if p >= seen:
            return False
        for q in row:
            if q is not None and q >= seen:
                if q != seen:
                    return False
                seen += 1
    return True


def minimize(d: Dfa) -> Dfa:
    """Moore partition refinement, renumbered canonically by breadth-first
    order; equivalent inputs yield identical outputs.  The implicit dead
    state is one more block: state n, non-final, the target of its own
    moves and of every None move of d.  States with an empty future refine
    into its block, which the renumbering never emits, and unreachable
    states are never reached, so there is no trim pass.  Each round refines
    the last, so a round that keeps the block count keeps the partition, and
    refinement stops there or once every state is a block of its own.  If
    then every state is, the dead one too, and d is numbered breadth-first
    from initial state 0, as by determinize, d itself is returned as given."""
    n = d.n_states
    nletters = d.alphabet.size
    trans = [[n if q is None else q for q in row] for row in d.transitions]
    trans.append([n] * nletters)
    cls = [0] * (n + 1)
    for p in d.final:
        cls[p] = 1
    blocks = 2 if d.final else 1
    while blocks <= n:
        sigs: dict[tuple, int] = {}
        of = cls.__getitem__
        cls = [sigs.setdefault((c, *map(of, row)), len(sigs))
               for c, row in zip(cls, trans)]
        if len(sigs) == blocks:
            break
        blocks = len(sigs)
    if blocks > n and d.initial == 0 and _breadth_first(d.transitions):
        return d
    start, dead = cls[d.initial], cls[n]
    if start == dead:
        return _built(Dfa, d.alphabet, 1, ((None,) * nletters,), 0, frozenset())
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
    new_id = [order.get(c) for c in cls]
    rows = tuple(tuple(map(new_id.__getitem__, trans[rep[c]])) for c in order)
    fin = frozenset(i for c, i in order.items() if rep[c] in d.final)
    return _built(Dfa, d.alphabet, len(rows), rows, 0, fin)


def minimal_dfa(a: Nfa | Dfa) -> Dfa:
    return minimize(a if isinstance(a, Dfa) else determinize(a))


def member(a: Nfa | Dfa, word) -> bool:
    """State-set simulation; a letter outside the alphabet is an error."""
    a = as_nfa(a)
    word = tuple(word)
    for x in word:
        if not 0 <= x < a.alphabet.size:
            raise LanguageError(f"letter {x} out of range")
    rows, active, mask, fmask = _core(a)
    n = a.n_states
    full = (1 << n) - 1
    for x in word:
        mask = _union(rows, mask & active) >> x * n & full
        if not mask:
            return False
    return bool(mask & fmask)


def shortest_separator(a: Nfa | Dfa, b: Nfa | Dfa):
    """The shortlex-least word in the symmetric difference, or None when
    the languages are equal.  Equal automata return None at once.  Otherwise
    a breadth-first walk over pairs of closed state sets, one per side,
    tries the letters in order and stops at the first pair whose acceptance
    differs; a pair is one int, the first side's set in its low n_a bits.
    Each side is read as an Nfa, through its closed rows, so neither side is
    determinized."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("cannot compare over different alphabets")
    if a == b:
        return None
    a, b = as_nfa(a), as_nfa(b)
    core_a, core_b = _core(a), _core(b)
    final_a, final_b = core_a.final, core_b.final
    if bool(core_a.start & final_a) != bool(core_b.start & final_b):
        return ()
    na, nb = a.n_states, b.n_states
    full_a, full_b = (1 << na) - 1, (1 << nb) - 1
    start = core_a.start | core_b.start << na
    seen = {start: None}
    queue = [start]
    for pair in queue:
        post_a = _union(core_a.rows, pair & core_a.active)
        post_b = _union(core_b.rows, pair >> na & core_b.active)
        x = 0
        while post_a or post_b:
            ma, mb = post_a & full_a, post_b & full_b
            nxt = ma | mb << na
            if nxt and nxt not in seen:
                seen[nxt] = (pair, x)
                if bool(ma & final_a) != bool(mb & final_b):
                    word = []
                    while seen[nxt] is not None:
                        nxt, x = seen[nxt]
                        word.append(x)
                    return tuple(reversed(word))
                queue.append(nxt)
            post_a >>= na
            post_b >>= nb
            x += 1
    return None


def equivalent(a: Nfa | Dfa, b: Nfa | Dfa) -> bool:
    return shortest_separator(a, b) is None


def _require_same(a: Nfa, *rest: Nfa):
    if any(b.alphabet != a.alphabet for b in rest):
        raise AlphabetMismatch("operands over different alphabets")


def _side_by_side(parts) -> tuple[int, list[int], list[int], list[int]]:
    """The state count, rows and epsilon masks of the parts as one automaton,
    each part's states numbered after those of the parts before it, and the
    offset of each part's states.  Each part's rows are packed once, to the
    final width."""
    n = sum(a.n_states for a in parts)
    rows, eps, offsets = [], [], []
    by = 0
    for a in parts:
        na = a.n_states
        rows += [r and _repack(r, na, n, by) for r in a.rows]
        eps += [e << by for e in a.eps]
        offsets.append(by)
        by += na
    return n, rows, eps, offsets


def union(a: Nfa, *rest: Nfa) -> Nfa:
    """The union of the operands' languages: their automata side by side,
    numbered in order, every initial and final state kept."""
    parts = (a, *rest)
    _require_same(*parts)
    n, rows, eps, offsets = _side_by_side(parts)
    return _built(Nfa, a.alphabet, n, tuple(rows), tuple(eps),
                  frozenset(q + by for b, by in zip(parts, offsets) for q in b.initial),
                  frozenset(q + by for b, by in zip(parts, offsets) for q in b.final))


def concat(a: Nfa, *rest: Nfa) -> Nfa:
    """The concatenation of the operands' languages in order: their automata
    side by side, each part's final states bridged by epsilon moves to the
    next part's initial states."""
    parts = (a, *rest)
    _require_same(*parts)
    n, rows, eps, offsets = _side_by_side(parts)
    for b, c, by, to in zip(parts, parts[1:], offsets, offsets[1:]):
        bridge = _mask(c.initial) << to
        for f in b.final:
            eps[f + by] |= bridge
    return _built(Nfa, a.alphabet, n, tuple(rows), tuple(eps), a.initial,
                  frozenset(q + offsets[-1] for q in parts[-1].final))


def star(a: Nfa) -> Nfa:
    """Kleene closure; always accepts the empty word."""
    hub = a.n_states
    rows = [r and _repack(r, hub, hub + 1) for r in a.rows]
    rows.append(0)
    eps = list(a.eps)
    eps.append(_mask(a.initial))
    for f in a.final:
        eps[f] |= 1 << hub
    return _built(Nfa, a.alphabet, hub + 1, tuple(rows), tuple(eps),
                  frozenset({hub}), frozenset({hub}))


def plus(a: Nfa) -> Nfa:
    eps = list(a.eps)
    init = _mask(a.initial)
    for f in a.final:
        eps[f] |= init
    return _built(Nfa, a.alphabet, a.n_states, a.rows, tuple(eps), a.initial, a.final)


def _reverse(a: Nfa) -> Nfa:
    """a read backwards: its moves reversed, initial and final swapped."""
    n = a.n_states
    moves = [(q, None, p) for p, e in enumerate(a.eps) for q in _bits(e)]
    moves += [(b % n, b // n, p) for p, row in enumerate(a.rows) for b in _bits(row)]
    rows, eps = _pack(n, moves)
    return _built(Nfa, a.alphabet, n, rows, eps, a.final, a.initial)


def _moves(a: Nfa) -> list[list[tuple]]:
    """Each state's moves (letter or None, label, target); an automaton's
    moves are labelled by the letters they read.  A state's epsilon moves
    come first, then its letter moves by letter, each by target."""
    n = a.n_states
    out: list[list[tuple]] = []
    for row, e in zip(a.rows, a.eps):
        moves = [(None, None, q) for q in _bits(e)]
        for b in _bits(row):
            x, q = divmod(b, n)
            moves.append((x, x, q))
        out.append(moves)
    return out


def _product(a: Nfa, b_moves, start) -> tuple[dict, list]:
    """Explore the synchronized product of a and the move table b_moves
    from the start pairs.  An epsilon move of the first side advances it
    alone, unlabelled; one of the second side advances it alone with its
    label; a letter move of the second side advances both sides, with its
    label, along the first side's moves on that letter.  Pairs are numbered
    in discovery order, taken last in first out; from each, the first
    side's epsilon moves come first, then the moves of b_moves in order, a
    letter move with the first side's successors in increasing order.
    Returns the reached pairs and the moves (i, label, j) between their
    numbers."""
    rows, eps = a.rows, a.eps
    n = a.n_states
    full = (1 << n) - 1
    ids = {pair: i for i, pair in enumerate(start)}
    queue = list(ids)
    moves = []
    while queue:
        pair = queue.pop()
        p, q = pair
        out = []
        m = eps[p]
        while m:
            low = m & -m
            m ^= low
            out.append((None, (low.bit_length() - 1, q)))
        row = rows[p]
        for x, lab, q2 in b_moves[q]:
            if x is None:
                out.append((lab, (p, q2)))
                continue
            m = row >> x * n & full
            while m:
                low = m & -m
                m ^= low
                out.append((lab, (low.bit_length() - 1, q2)))
        cur = ids[pair]
        for lab, nxt in out:
            i = ids.get(nxt)
            if i is None:
                i = ids[nxt] = len(ids)
                queue.append(nxt)
            moves.append((cur, lab, i))
    return ids, moves


def _product_nfa(alphabet: HatAlphabet, a: Nfa, b_moves, b_initial, b_final) -> Nfa:
    """The product of a and the move table b_moves, as an Nfa over alphabet:
    its rows are packed once the walk has numbered every pair."""
    start = [(p, q) for p in a.initial for q in b_initial]
    ids, moves = _product(a, b_moves, start)
    n = max(len(ids), 1)
    rows, eps = _pack(n, moves)
    final = frozenset(i for (p, q), i in ids.items()
                      if p in a.final and q in b_final)
    return _built(Nfa, alphabet, n, rows, eps, frozenset(range(len(start))), final)


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product construction; epsilon moves advance one side at a time."""
    _require_same(a, b)
    return _product_nfa(a.alphabet, a, _moves(b), b.initial, b.final)


def _induced(a: Nfa, parts) -> Nfa:
    """a on one state per part of a's states, numbered in order: the states
    of a part merge into one, with the moves of them all, and a state in no
    part goes with its moves.  One state is left if there is no part, and a
    itself when the parts are its states in order."""
    n, new_n = a.n_states, max(len(parts), 1)
    idx, kept = [None] * n, 0
    for i, part in enumerate(parts):
        for p in part:
            idx[p] = i
            kept |= 1 << p
    if n == new_n and idx == list(range(n)):
        return a

    def renumbered(row, shifts):
        out = 0
        for shift, new_shift in shifts:
            m = row >> shift & kept
            while m:
                low = m & -m
                m ^= low
                out |= 1 << (new_shift + idx[low.bit_length() - 1])
        return out

    chunks = [(x * n, x * new_n) for x in range(a.alphabet.size)]
    rows, eps = [0] * new_n, [0] * new_n
    for p in _bits(kept):
        if a.rows[p]:
            rows[idx[p]] |= renumbered(a.rows[p], chunks)
        if a.eps[p]:
            eps[idx[p]] |= renumbered(a.eps[p], ((0, 0),))
    return _built(Nfa, a.alphabet, new_n, tuple(rows), tuple(eps),
                  frozenset(idx[p] for p in a.initial if kept >> p & 1),
                  frozenset(idx[p] for p in a.final if kept >> p & 1))


def epsilon_free(a: Nfa) -> Nfa:
    """a's language without epsilon moves or silent states (no letter move,
    not final), which change neither a closed set's successors nor its
    acceptance: the other states, renumbered in order, with their closed
    rows cut to them and the closure of a's initial states; a state whose
    letter moves all end in silent states goes too, until none does."""
    core = _core(a)
    n, rows, final = a.n_states, core.rows, core.final
    spread = sum(1 << x * n for x in range(a.alphabet.size))
    keep, live = None, core.active | final
    while live != keep:
        keep, kept = live, live * spread  # kept: keep in every chunk
        rows = [r & kept for r in rows]
        live = final | _mask(p for p, r in enumerate(rows) if r)
    closed = _built(Nfa, a.alphabet, n, tuple(rows), (0,) * n,
                    frozenset(_bits(core.start & keep)), a.final)
    return _induced(closed, [(p,) for p in _bits(keep)])


def _successors(a: Nfa) -> list[int]:
    """Each state's successors on any letter or epsilon: the low n bits of
    the OR of its row shifted down by x*n for each letter x."""
    n = a.n_states
    shifts = [x * n for x in range(a.alphabet.size)]
    full = (1 << n) - 1
    out = []
    for row, e in zip(a.rows, a.eps):
        m = 0
        for shift in shifts:
            m |= row >> shift
        out.append(m & full | e)
    return out


def _quotient_ends(l: Nfa, r: Nfa) -> frozenset[int]:
    """The states of l that a word of r leads to from l's initial states:
    a forward walk of the product of l and r from their initial pairs."""
    seen, _ = _product(l, _moves(r), [(p, q) for p in l.initial for q in r.initial])
    return frozenset(p for p, q in seen if q in r.final)


def right_quotient(l: Nfa, r: Nfa) -> Nfa:
    """L R^-1 = {w : wr in L for some r in R}.  Final states of L become
    those from which some word of R completes to acceptance: the states
    that the reverse of R leads to in the reverse of L, which starts at
    L's final states.  The rows are l's."""
    _require_same(l, r)
    return _built(Nfa, l.alphabet, l.n_states, l.rows, l.eps, l.initial,
                  _quotient_ends(_reverse(l), _reverse(r)))


def left_quotient(r: Nfa, l: Nfa) -> Nfa:
    """R^-1 L = {w : rw in L for some r in R}.  Initial states of L become
    those reachable from an initial state along some word of R."""
    _require_same(l, r)
    return _built(Nfa, l.alphabet, l.n_states, l.rows, l.eps,
                  _quotient_ends(l, r), l.final)


def involution_image(a: Nfa) -> Nfa:
    """w -> w-bar: the reverse of a, each letter relabelled by its bar."""
    bar = a.alphabet.bar
    return relabel(_reverse(a), a.alphabet, [bar(x) for x in range(a.alphabet.size)])


def trim(a: Nfa) -> Nfa:
    """Keep only states both reachable and co-accessible."""
    n = a.n_states
    succ = _successors(a)
    pred = [0] * n
    for p, m in enumerate(succ):
        for q in _bits(m):
            pred[q] |= 1 << p
    keep = _reach(_mask(a.initial), succ) & _reach(_mask(a.final), pred)
    return _induced(a, [(p,) for p in _bits(keep)]) if keep else empty_nfa(a.alphabet)


def _trimmed_closure(a: Nfa, initial: bool, final: bool) -> Nfa:
    """trim(a) with every state made initial, final or both; the empty
    language stays as trim leaves it."""
    t = trim(a)
    if not t.final and not any(t.rows) and not any(t.eps):
        return t
    every = frozenset(range(t.n_states))
    return _built(Nfa, t.alphabet, t.n_states, t.rows, t.eps,
                  every if initial else t.initial, every if final else t.final)


def prefix_closure(a: Nfa) -> Nfa:
    return _trimmed_closure(a, initial=False, final=True)


def suffix_closure(a: Nfa) -> Nfa:
    return _trimmed_closure(a, initial=True, final=False)


def factor_closure(a: Nfa) -> Nfa:
    return _trimmed_closure(a, initial=True, final=True)


def enumerate_words(a: Nfa | Dfa, max_len: int) -> list[tuple[int, ...]]:
    """All accepted words of length <= max_len in length-lex order."""
    a = as_nfa(a)
    rows, active, start, fmask = _core(a)
    n = a.n_states
    full = (1 << n) - 1
    if not start:
        return []
    out = []
    level = [((), start)]
    for length in range(max_len + 1):
        nxt = []
        for word, mask in level:
            if mask & fmask:
                out.append(word)
            if length < max_len:
                post = _union(rows, mask & active)
                x = 0
                while post:
                    m = post & full
                    if m:
                        nxt.append((word + (x,), m))
                    post >>= n
                    x += 1
        level = nxt
    return out


def relabel(a: Nfa, target: HatAlphabet, letter_map) -> Nfa:
    """Transport an automaton onto another alphabet via a letter map: chunk
    x of every row moves to chunk letter_map[x], which must be a letter of
    target; the map covers every letter of a's alphabet."""
    if len(letter_map) < a.alphabet.size:
        raise LanguageError(f"letter map of {len(letter_map)} letters for "
                            f"an alphabet of {a.alphabet.size}")
    n = a.n_states
    full = (1 << n) - 1
    nletters = target.size
    rows = []
    for row in a.rows:
        out = x = 0
        while row:
            m = row & full
            if m:
                y = letter_map[x]
                if not 0 <= y < nletters:
                    raise LanguageError(f"letter {y} out of range")
                out |= m << y * n
            row >>= n
            x += 1
        rows.append(out)
    return _built(Nfa, target, n, tuple(rows), a.eps, a.initial, a.final)


def sub_hat_letters(target: HatAlphabet, base_symbols) -> list[int]:
    """The letters of target for the given base symbols, by name, then for
    their bars.  The list is indexed by the letters of HatAlphabet(base
    symbols), so it is relabel's letter map from that alphabet into
    target."""
    return ([target.letter(b) for b in base_symbols]
            + [target.letter("~" + b) for b in base_symbols])


# -- text format --------------------------------------------------------------

def format_automaton(a: Nfa | Dfa) -> str:
    """The automaton as text, the output of `reesloop loop`: header lines
    for the states, alphabet, initial and final states, then one `p x q`
    line per move, x `-` for epsilon and `~s` for the bar of s."""
    a = as_nfa(a)
    lines = [f"states {a.n_states}"]
    lines.append("alphabet " + " ".join(a.alphabet.base))
    lines.append("initial " + " ".join(str(q) for q in sorted(a.initial)))
    lines.append("final " + " ".join(str(q) for q in sorted(a.final)))
    for p, x, q in sorted(a.transitions,
                          key=lambda t: (t[0], -1 if t[1] is None else t[1], t[2])):
        lines.append(f"{p} {'-' if x is None else a.alphabet.name(x)} {q}")
    return "\n".join(lines) + "\n"
