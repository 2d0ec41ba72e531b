"""Regular languages over involutive doubled alphabets.

Automata are partial (no explicit dead state); epsilon transitions are
permitted in an Nfa.  State sets are integer bitmasks internally, and each
operation that simulates an Nfa (determinize, member, enumerate_words,
shortest_separator) closes its epsilon moves once per automaton into
successor rows: one integer per state that packs, letter after letter in
chunks of n_states bits, the epsilon closure of that letter's successors.
A state set's successors under every letter are then one OR of its
members' rows.  The rows are indexed in one pass over the transitions; only
the states with an epsilon move are searched for their closures, and only
chunks that hold one of them are closed.

A state is silent when it has no letter move and is not final, as are most
states of a transducer image, which only pass epsilon moves on.  A silent
state in a subset changes neither its successors nor its acceptance, so
determinize(a, keep_silent=False) drops them from every subset; minimal_dfa
determinizes that way, and its result depends only on the language.  Plain
determinize keeps the full closed subsets.

shortest_separator determinizes nothing.  Equal automata have equal
languages, and it returns None for them at once; otherwise it walks pairs
of closed state sets breadth-first over the rows of both sides without
silent states, a Dfa side read as an Nfa.  _core is the only indexer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .semigroup import ParseError, _built


class LanguageError(ValueError):
    pass


class AlphabetMismatch(LanguageError):
    pass


@dataclass(frozen=True)
class HatAlphabet:
    """X^ = X union X-bar; letter k+i is the bar partner of letter i."""

    base: tuple[str, ...]

    def __post_init__(self):
        _check_symbols(self.base)

    @property
    def size(self) -> int:
        return 2 * len(self.base)

    def bar(self, letter: int) -> int:
        k = len(self.base)
        return letter - k if letter >= k else letter + k

    def is_positive(self, letter: int) -> bool:
        return letter < len(self.base)

    def bar_word(self, word) -> tuple[int, ...]:
        """Reverse the word and bar each letter."""
        return tuple(self.bar(a) for a in reversed(word))

    def name(self, letter: int) -> str:
        k = len(self.base)
        return self.base[letter] if letter < k else "~" + self.base[letter - k]

    def letter(self, name: str) -> int:
        if name.startswith("~"):
            return len(self.base) + self._base_index(name[1:])
        return self._base_index(name)

    def _base_index(self, name: str) -> int:
        try:
            return self.base.index(name)
        except ValueError:
            raise LanguageError(f"unknown symbol {name!r}") from None


def _check_symbols(symbols):
    if len(set(symbols)) != len(symbols):
        raise LanguageError("alphabet symbols must be distinct")
    for s in symbols:
        if not s or s == "-" or s.startswith("~") or any(c.isspace() for c in s):
            raise LanguageError(f"bad symbol {s!r}")


@dataclass(frozen=True)
class Nfa:
    alphabet: HatAlphabet
    n_states: int
    transitions: frozenset[tuple[int, int | None, int]]
    initial: frozenset[int]
    final: frozenset[int]

    def __post_init__(self):
        for q in self.initial | self.final:
            if not (0 <= q < self.n_states):
                raise LanguageError(f"state {q} out of range")
        nletters = self.alphabet.size
        for p, a, q in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise LanguageError(f"transition state out of range: {(p, a, q)}")
            if a is not None and not (0 <= a < nletters):
                raise LanguageError(f"letter {a} out of range")

    def __repr__(self):
        return f"Nfa(states={self.n_states}, transitions={len(self.transitions)})"


@dataclass(frozen=True)
class Dfa:
    """Partial DFA; transitions[p][a] is the successor or None."""

    alphabet: HatAlphabet
    n_states: int
    transitions: tuple[tuple[int | None, ...], ...]
    initial: int
    final: frozenset[int]
    minimal: bool = False

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
        return f"Dfa(states={self.n_states}, minimal={self.minimal})"


def as_nfa(a: Nfa | Dfa) -> Nfa:
    if isinstance(a, Nfa):
        return a
    trans = {(p, x, q) for p, row in enumerate(a.transitions)
             for x, q in enumerate(row) if q is not None}
    return _built(Nfa, a.alphabet, a.n_states, frozenset(trans),
                  frozenset({a.initial}), a.final)


def empty_nfa(alphabet) -> Nfa:
    return Nfa(alphabet, 1, frozenset(), frozenset({0}), frozenset())


def word_set_nfa(alphabet, words) -> Nfa:
    """Union of finite words as one automaton (a simple chain per word)."""
    trans = set()
    final = set()
    n = 1
    for w in words:
        w = tuple(w)
        if not w:
            final.add(0)
            continue
        prev = 0
        for i, a in enumerate(w):
            nxt = n
            n += 1
            trans.add((prev, a, nxt))
            prev = nxt
        final.add(prev)
    return Nfa(alphabet, n, frozenset(trans), frozenset({0}), frozenset(final))


# -- bitmask core -------------------------------------------------------------
#
# State sets are integer bitmasks.  _core closes an automaton's epsilon moves
# once per call into successor rows: rows[p] packs one n-bit chunk per
# letter, n = a.n_states, and bits x*n .. x*n+n-1 hold the epsilon closure of
# the successors of p under letter x.  One pass over the transitions ORs each
# letter move into its state's per-letter masks and collects the epsilon
# moves of the states that have them; the closure search starts only from
# those states, and each state's masks are packed once.  Closure distributes
# over union, so the successors of a closed state set under every letter are
# one OR of its members' rows, read off chunk by chunk.

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(states) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


class _Core(NamedTuple):
    close: list[int]  # close[p]: epsilon closure of p, less dropped silent states
    rows: list[int]  # rows[p]: closed successors of p, one n-bit chunk per letter
    active: int  # the states with a letter move; rows[p] is 0 for the rest


def _core(a: Nfa, keep_silent: bool = True) -> _Core:
    """The closures and rows of a, indexed in one pass over its moves.
    Only the states with an epsilon move (the wide states) are searched;
    every other state closes to itself, so a chunk that holds no wide
    state is closed already.  With keep_silent=False each closure drops the
    silent states, and so does every chunk of every row."""
    n = a.n_states
    nletters = a.alphabet.size
    dense: dict[int, list[int]] = {}
    eps: dict[int, int] = {}
    for p, x, q in a.transitions:
        if x is None:
            eps[p] = eps.get(p, 0) | 1 << q
        else:
            row = dense.get(p)
            if row is None:
                row = dense[p] = [0] * nletters
            row[x] |= 1 << q
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
    active = _mask(dense)
    everything = (1 << n) - 1
    keep = everything if keep_silent else active | _mask(a.final)
    if keep != everything:
        close = [c & keep for c in close]
    rows = [0] * n
    for p, row in dense.items():
        packed = shift = 0
        for m in row:
            if m:
                packed |= (_closed(close, m) if m & wide else m & keep) << shift
            shift += n
        rows[p] = packed
    return _Core(close, rows, active)


def _closed(close: list[int], mask: int) -> int:
    out = 0
    for p in _bits(mask):
        out |= close[p]
    return out


def _post(core: _Core, mask: int) -> int:
    """The successors of a closed state set under every letter, packed as
    the rows are."""
    rows = core.rows
    mask &= core.active
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


def _reach(start, succ) -> set:
    """Every node reachable from start; succ(node) lists its successors."""
    seen = set(start)
    queue = list(seen)
    while queue:
        for nxt in succ(queue.pop()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def determinize(a: Nfa, *, keep_silent: bool = True) -> Dfa:
    """Subset construction over the closed rows; no dead state is kept.

    By default each subset is the full epsilon-closed state set.  With
    keep_silent=False every subset drops its silent states (no letter move,
    not final): they change neither a subset's successors nor its
    acceptance, so the language is the same and there are never more
    subsets.  The states are masked once per call, in the closures that
    the start set and the rows are built from."""
    core = _core(a, keep_silent)
    start = _closed(core.close, _mask(a.initial))
    fmask = _mask(a.final)
    n = a.n_states
    full = (1 << n) - 1
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
        row = table[sid]
        post = _post(core, mask)
        x = 0
        while post:
            nxt = post & full
            if nxt:
                tid = ids.get(nxt)
                if tid is None:
                    tid = ids[nxt] = len(ids)
                    table.append([None] * nletters)
                    queue.append(nxt)
                row[x] = tid
            post >>= n
            x += 1
    return _built(Dfa, a.alphabet, len(table), tuple(tuple(r) for r in table),
                  0, frozenset(final), False)


def minimize(d: Dfa) -> Dfa:
    """Moore partition refinement, renumbered canonically by breadth-first
    order; equivalent inputs yield identical outputs.  The implicit dead
    state is one more block: state n, non-final, the target of its own
    moves and of every None move of d.  States with an empty future refine
    into its block, which the renumbering never emits, and unreachable
    states are never reached, so there is no trim pass."""
    n = d.n_states
    nletters = d.alphabet.size
    trans = [[n if q is None else q for q in row] for row in d.transitions]
    trans.append([n] * nletters)
    cls = [0] * (n + 1)
    for p in d.final:
        cls[p] = 1
    while True:
        sigs: dict[tuple, int] = {}
        of = cls.__getitem__
        new = [sigs.setdefault((c, *map(of, row)), len(sigs))
               for c, row in zip(cls, trans)]
        if new == cls:
            break
        cls = new
    start, dead = cls[d.initial], cls[n]
    if start == dead:
        return _built(Dfa, d.alphabet, 1, ((None,) * nletters,), 0,
                      frozenset(), True)
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
    return _built(Dfa, d.alphabet, len(rows), rows, 0, fin, True)


def minimal_dfa(a: Nfa | Dfa) -> Dfa:
    return minimize(a if isinstance(a, Dfa) else determinize(a, keep_silent=False))


def member(a: Nfa | Dfa, word) -> bool:
    """State-set simulation; a letter outside the alphabet is an error."""
    a = as_nfa(a)
    word = tuple(word)
    for x in word:
        if not 0 <= x < a.alphabet.size:
            raise LanguageError(f"letter {x} out of range")
    core = _core(a)
    n = a.n_states
    full = (1 << n) - 1
    mask = _closed(core.close, _mask(a.initial))
    for x in word:
        mask = _post(core, mask) >> x * n & full
        if not mask:
            return False
    return bool(mask & _mask(a.final))


def _walk_side(a: Nfa) -> tuple[_Core, int, int]:
    """The core, closed start set and final mask one side of a walk reads."""
    core = _core(a, keep_silent=False)
    return core, _closed(core.close, _mask(a.initial)), _mask(a.final)


def shortest_separator(a: Nfa | Dfa, b: Nfa | Dfa):
    """The shortlex-least word in the symmetric difference, or None when
    the languages are equal.  Equal automata return None at once.  Otherwise
    a breadth-first walk over pairs of closed state sets, one per side,
    tries the letters in order and stops at the first pair whose acceptance
    differs; a pair is one int, the first side's set in its low n_a bits.
    Each side is read as an Nfa, through its rows without silent states, so
    neither side is determinized."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("cannot compare over different alphabets")
    if a == b:
        return None
    a, b = as_nfa(a), as_nfa(b)
    core_a, start_a, final_a = _walk_side(a)
    core_b, start_b, final_b = _walk_side(b)
    if bool(start_a & final_a) != bool(start_b & final_b):
        return ()
    na, nb = a.n_states, b.n_states
    full_a, full_b = (1 << na) - 1, (1 << nb) - 1
    start = start_a | start_b << na
    seen = {start: None}
    queue = [start]
    for pair in queue:
        post_a = _post(core_a, pair & full_a)
        post_b = _post(core_b, pair >> na)
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


def _offset(trans, by: int):
    return {(p + by, a, q + by) for p, a, q in trans}


def _require_same(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("operands over different alphabets")


def union(a: Nfa, b: Nfa) -> Nfa:
    _require_same(a, b)
    return _built(Nfa, a.alphabet, a.n_states + b.n_states,
                  frozenset(a.transitions) | frozenset(_offset(b.transitions, a.n_states)),
                  a.initial | frozenset(q + a.n_states for q in b.initial),
                  a.final | frozenset(q + a.n_states for q in b.final))


def concat(a: Nfa, b: Nfa) -> Nfa:
    _require_same(a, b)
    bridge = {(f, None, i + a.n_states) for f in a.final for i in b.initial}
    return _built(Nfa, a.alphabet, a.n_states + b.n_states,
                  frozenset(a.transitions) | frozenset(_offset(b.transitions, a.n_states)) | frozenset(bridge),
                  a.initial,
                  frozenset(q + a.n_states for q in b.final))


def star(a: Nfa) -> Nfa:
    """Kleene closure; always accepts the empty word."""
    hub = a.n_states
    trans = set(a.transitions)
    trans.update((hub, None, i) for i in a.initial)
    trans.update((f, None, hub) for f in a.final)
    return _built(Nfa, a.alphabet, a.n_states + 1, frozenset(trans),
                  frozenset({hub}), frozenset({hub}))


def plus(a: Nfa) -> Nfa:
    trans = set(a.transitions)
    trans.update((f, None, i) for f in a.final for i in a.initial)
    return _built(Nfa, a.alphabet, a.n_states, frozenset(trans), a.initial, a.final)


def _moves(a: Nfa, backward: bool = False) -> list[list[tuple]]:
    """Each state's moves (letter or None, label, other end), forward or
    backward; an automaton's moves are labelled by the letters they read."""
    out: list[list[tuple]] = [[] for _ in range(a.n_states)]
    for p, x, q in a.transitions:
        if backward:
            p, q = q, p
        out[p].append((x, x, q))
    return out


def _product(a_moves, b_moves, start) -> tuple[dict, list]:
    """Explore the synchronized product of two move tables from the start
    pairs.  An epsilon move of the first side advances it alone, unlabelled;
    one of the second side advances it alone with its label; a letter move
    of the second side advances both sides, with its label, along the first
    side's moves on that letter.  Returns the reached pairs numbered in
    discovery order, and the moves (i, label, j) between those numbers."""
    eps: list[list[int]] = []
    step: dict[tuple[int, int], list[int]] = {}
    for p, row in enumerate(a_moves):
        eps.append([q for x, _lab, q in row if x is None])
        for x, _lab, q in row:
            if x is not None:
                step.setdefault((p, x), []).append(q)
    ids = {pair: i for i, pair in enumerate(start)}
    queue = list(ids)
    moves = []
    while queue:
        pair = queue.pop()
        p, q = pair
        out = [(None, (p2, q)) for p2 in eps[p]]
        for x, lab, q2 in b_moves[q]:
            if x is None:
                out.append((lab, (p, q2)))
            else:
                for p2 in step.get((p, x), ()):
                    out.append((lab, (p2, q2)))
        cur = ids[pair]
        for lab, nxt in out:
            i = ids.get(nxt)
            if i is None:
                i = ids[nxt] = len(ids)
                queue.append(nxt)
            moves.append((cur, lab, i))
    return ids, moves


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product construction; epsilon moves advance one side at a time."""
    _require_same(a, b)
    start = [(p, q) for p in a.initial for q in b.initial]
    ids, moves = _product(_moves(a), _moves(b), start)
    final = frozenset(i for (p, q), i in ids.items()
                      if p in a.final and q in b.final)
    return _built(Nfa, a.alphabet, max(len(ids), 1), frozenset(moves),
                  frozenset(range(len(start))), final)


def restrict(a: Nfa, letters) -> Nfa:
    """a without the moves on letters outside the given ones: its epsilon
    moves and its moves on letters, between the states they reach from
    a.initial, renumbered in sorted order.  It has the states and moves of
    the product of a with the one-state automaton of all words over letters,
    without a product walk."""
    allowed = {None, *letters}
    succ: list[list[int]] = [[] for _ in range(a.n_states)]
    for p, x, q in a.transitions:
        if x in allowed:
            succ[p].append(q)
    keep = sorted(_reach(a.initial, succ.__getitem__))
    idx = {p: i for i, p in enumerate(keep)}
    trans = {(idx[p], x, idx[q]) for p, x, q in a.transitions
             if x in allowed and p in idx}
    return _built(Nfa, a.alphabet, max(len(keep), 1), frozenset(trans),
                  frozenset(idx[p] for p in a.initial),
                  frozenset(idx[p] for p in a.final if p in idx))


def right_quotient(l: Nfa, r: Nfa) -> Nfa:
    """L R^-1 = {w : wr in L for some r in R}.  Final states of L become
    those from which some word of R completes to acceptance: a backward
    search of the product from its final pairs, which follows r's epsilon
    moves back to r's initial states."""
    _require_same(l, r)
    good, _ = _product(_moves(l, backward=True), _moves(r, backward=True),
                       [(p, q) for p in l.final for q in r.final])
    new_final = {p for p, q in good if q in r.initial}
    return _built(Nfa, l.alphabet, l.n_states, l.transitions, l.initial,
                  frozenset(new_final))


def left_quotient(r: Nfa, l: Nfa) -> Nfa:
    """R^-1 L = {w : rw in L for some r in R}.  Initial states of L become
    those reachable from an initial state along some word of R."""
    _require_same(l, r)
    seen, _ = _product(_moves(l), _moves(r),
                       [(p, q) for p in l.initial for q in r.initial])
    new_initial = {p for p, q in seen if q in r.final}
    return _built(Nfa, l.alphabet, l.n_states, l.transitions,
                  frozenset(new_initial), l.final)


def involution_image(a: Nfa) -> Nfa:
    """w -> w-bar: reverse the automaton and bar each letter."""
    bar = a.alphabet.bar
    trans = {(q, None if x is None else bar(x), p) for p, x, q in a.transitions}
    return _built(Nfa, a.alphabet, a.n_states, frozenset(trans), a.final, a.initial)


def trim(a: Nfa) -> Nfa:
    """Keep only states both reachable and co-accessible."""
    succ: list[list[int]] = [[] for _ in range(a.n_states)]
    pred: list[list[int]] = [[] for _ in range(a.n_states)]
    for p, _x, q in a.transitions:
        succ[p].append(q)
        pred[q].append(p)
    keep = sorted(_reach(a.initial, succ.__getitem__)
                  & _reach(a.final, pred.__getitem__))
    if not keep:
        return empty_nfa(a.alphabet)
    idx = {p: i for i, p in enumerate(keep)}
    trans = {(idx[p], x, idx[q]) for p, x, q in a.transitions
             if p in idx and q in idx}
    return _built(Nfa, a.alphabet, len(keep), frozenset(trans),
                  frozenset(idx[p] for p in a.initial if p in idx),
                  frozenset(idx[p] for p in a.final if p in idx))


def prefix_closure(a: Nfa) -> Nfa:
    t = trim(a)
    if not t.transitions and not t.final:
        return t
    return _built(Nfa, t.alphabet, t.n_states, t.transitions, t.initial,
                  frozenset(range(t.n_states)))


def suffix_closure(a: Nfa) -> Nfa:
    t = trim(a)
    if not t.transitions and not t.final:
        return t
    return _built(Nfa, t.alphabet, t.n_states, t.transitions,
                  frozenset(range(t.n_states)), t.final)


def factor_closure(a: Nfa) -> Nfa:
    t = trim(a)
    if not t.transitions and not t.final:
        return t
    everything = frozenset(range(t.n_states))
    return _built(Nfa, t.alphabet, t.n_states, t.transitions, everything, everything)


def enumerate_words(a: Nfa | Dfa, max_len: int) -> list[tuple[int, ...]]:
    """All accepted words of length <= max_len in length-lex order."""
    a = as_nfa(a)
    core = _core(a)
    fmask = _mask(a.final)
    n = a.n_states
    full = (1 << n) - 1
    start = _closed(core.close, _mask(a.initial))
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
                post = _post(core, mask)
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
    """Transport an automaton onto another alphabet via a letter map."""
    trans = {(p, None if x is None else letter_map[x], q)
             for p, x, q in a.transitions}
    return Nfa(target, a.n_states, frozenset(trans), a.initial, a.final)


def embed_hat(a: Nfa, target: HatAlphabet) -> Nfa:
    """Embed an automaton over a hat sub-alphabet into a larger hat alphabet,
    matching letters by symbol name and bar sign."""
    lm = {}
    for x in range(a.alphabet.size):
        lm[x] = target.letter(a.alphabet.name(x))
    return relabel(a, target, lm)


def sub_hat_letters(target: HatAlphabet, base_symbols) -> list[int]:
    """The letters of target covering the hat alphabet of the given base."""
    out = []
    for b in base_symbols:
        out.append(target.letter(b))
    for b in base_symbols:
        out.append(target.letter("~" + b))
    return out


# -- text format --------------------------------------------------------------

def format_automaton(a: Nfa | Dfa) -> str:
    a = as_nfa(a)
    lines = [f"states {a.n_states}"]
    lines.append("alphabet " + " ".join(a.alphabet.base))
    lines.append("initial " + " ".join(str(q) for q in sorted(a.initial)))
    lines.append("final " + " ".join(str(q) for q in sorted(a.final)))
    for p, x, q in sorted(a.transitions,
                          key=lambda t: (t[0], -1 if t[1] is None else t[1], t[2])):
        lines.append(f"{p} {'-' if x is None else a.alphabet.name(x)} {q}")
    return "\n".join(lines) + "\n"


def parse_automaton_text(text: str) -> Nfa:
    raw = text.splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    n_states = None
    base: list[str] | None = None
    ends: dict[str, tuple[int, list[int]]] = {}  # initial/final: line, states
    trans_lines = []
    for no, ln in lines:
        toks = ln.split()
        if toks[0] == "states":
            try:
                n_states = int(toks[1])
            except (IndexError, ValueError):
                raise ParseError("bad states line", no) from None
        elif toks[0] == "alphabet":
            base = toks[1:]
        elif toks[0] in ("initial", "final"):
            try:
                ends[toks[0]] = (no, [int(t) for t in toks[1:]])
            except ValueError:
                raise ParseError(f"bad state in {toks[0]} line", no) from None
        elif len(toks) == 3:
            trans_lines.append((no, toks))
        else:
            raise ParseError(f"unexpected line {ln!r}", no)
    if n_states is None:
        raise ParseError("missing states line", 1)
    if base is None:
        seen = []
        for _no, (_p, sym, _q) in trans_lines:
            if sym == "-":
                continue
            b = sym[1:] if sym.startswith("~") else sym
            if b not in seen:
                seen.append(b)
        base = sorted(seen)
    alphabet = HatAlphabet(tuple(base))
    trans = set()
    for no, (p, sym, q) in trans_lines:
        try:
            pi, qi = int(p), int(q)
        except ValueError:
            raise ParseError(f"bad state in transition {p} {sym} {q}", no) from None
        letter = None if sym == "-" else alphabet.letter(sym)
        if not (0 <= pi < n_states and 0 <= qi < n_states):
            raise ParseError(f"state out of range in {p} {sym} {q}", no)
        trans.add((pi, letter, qi))
    for no, states in ends.values():
        for q in states:
            if not 0 <= q < n_states:
                raise ParseError(f"state {q} out of range", no)
    initial = frozenset(ends.get("initial", (0, ()))[1])
    final = frozenset(ends.get("final", (0, ()))[1])
    return Nfa(alphabet, n_states, frozenset(trans), initial, final)

