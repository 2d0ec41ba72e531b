"""Verdict oracle for the subsemigroup-intersection identity, built straight
from multiplication tables.

It never imports ``reesloop.language``: loop-problem membership is decided
by simulating vertex subsets on the doubled right Cayley graph of S^1 (or of
T^1), and equivalence by a breadth-first search over pairs of such subsets.

Words are over the hat alphabet of ``full_generator_map(S)``: letter ``x``
for ``x < n`` is the generator for element ``x``; letter ``n + x`` is its bar.
Vertex ``n`` is the adjoined identity of S^1, shared by T^1 because it is
fresh for every subsemigroup T.
"""

from __future__ import annotations


def loop_graph(table, letters, vertices=None) -> list[list[int]]:
    """Per-letter successor bitmasks of the doubled right Cayley graph of
    S^1.  Only the positive letters in ``letters`` carry edges, and only
    from vertices in ``vertices`` (default: all of S^1)."""
    n = len(table)
    succ = [[0] * (n + 1) for _ in range(2 * n)]
    for a in range(n + 1):
        if vertices is not None and a not in vertices:
            continue
        for x in letters:
            b = x if a == n else table[a][x]
            succ[x][a] |= 1 << b
            succ[n + x][b] |= 1 << a
    return succ


def _step(succ, mask: int, letter: int) -> int:
    row = succ[letter]
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def accepts(succ, word, identity: int) -> bool:
    """Whether the word labels a closed path at the identity vertex."""
    start = 1 << identity
    mask = start
    for x in word:
        mask = _step(succ, mask, x)
        if not mask:
            return False
    return bool(mask & start)


class SubsemigroupOracle:
    """Both sides of L(T) = L(S) /\\ X^* for a subsemigroup T of S with
    X = the labels of T: the left side walks the Cayley graph of T^1, the
    right side that of S^1 restricted to words over X-hat."""

    def __init__(self, table, tset):
        self.n = len(table)
        self.tset = frozenset(tset)
        self.x_letters = sorted(self.tset) + [self.n + t for t in sorted(self.tset)]
        self.lhs = loop_graph(table, sorted(self.tset), self.tset | {self.n})
        self.rhs = loop_graph(table, sorted(self.tset))

    def sides(self, word) -> tuple[bool, bool]:
        """(word in the left side, word in the right side)."""
        if any(x not in self.x_letters for x in word):
            return False, False
        return accepts(self.lhs, word, self.n), accepts(self.rhs, word, self.n)

    def shortest_separator_length(self) -> int | None:
        """Length of a shortest word in exactly one side, or None when the
        two sides are equal."""
        start = (1 << self.n, 1 << self.n)
        seen = {start}
        frontier = [start]
        length = 0
        while frontier:
            nxt = []
            for a, b in frontier:
                if bool(a >> self.n & 1) != bool(b >> self.n & 1):
                    return length
                for x in self.x_letters:
                    pair = (_step(self.lhs, a, x), _step(self.rhs, b, x))
                    if pair not in seen:
                        seen.add(pair)
                        nxt.append(pair)
            frontier = nxt
            length += 1
        return None

    def certifies(self, word) -> bool:
        """A reported separator is accepted when it lies in exactly one side
        and is as short as any separating word."""
        lhs, rhs = self.sides(word)
        return lhs != rhs and len(word) == self.shortest_separator_length()


def parse_separator(labels, text: str) -> tuple[int, ...]:
    """Letters of a separator rendered as in RESULT lines: symbol names
    joined by '.', with '~' marking a bar and '-' the empty word."""
    if text == "-":
        return ()
    n = len(labels)
    out = []
    for name in text.split("."):
        if name.startswith("~"):
            out.append(n + labels.index(name[1:]))
        else:
            out.append(labels.index(name))
    return tuple(out)
