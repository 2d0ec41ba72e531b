"""Finite semigroups as multiplication tables.

Elements are dense integer indices; labels are presentation only. All values
are immutable.  Public constructors and parsers check every invariant, so a
FiniteSemigroup is associative and its designated zero/identity obey their
laws.  Derived constructions (S^1, S^0, quotients, Rees matrix semigroups,
their maps and automata) are correct once their inputs are: they are trusted
and build through _built unchecked, each table row by row in one pass from
its product rule; tests/test_trusted.py rebuilds them.
Subset and morphism checks live in one gate each: _subsemigroup_set and
_is_morphism.  The gate stays at the boundary: is_weakly_pru runs it before
the _weakly_pru kernel, and the intersection verifier runs it once before
the kernel, while the corpus listings trust all_subsemigroups, whose sets
are closed by construction, and call the kernel directly.  Those sets are
the shared frozensets of _subsets, one table per order, and are tested for
closure as bitmasks over the table rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


class SemigroupError(ValueError):
    pass


class NonAssociative(SemigroupError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"associativity fails at triple ({a},{b},{c})")


class BadZero(SemigroupError):
    pass


class BadIdentity(SemigroupError):
    pass


class IndexOutOfRange(SemigroupError):
    pass


class EmptySubset(SemigroupError):
    pass


class NotAnIdeal(SemigroupError):
    pass


class ZeroEntryWithoutZero(SemigroupError):
    pass


class OrderTooLarge(SemigroupError):
    pass


class NoIdentity(SemigroupError):
    pass


class NoZero(SemigroupError):
    pass


class NotIdempotent(SemigroupError):
    pass


class NotASubsemigroup(SemigroupError):
    pass


class NotGenerating(SemigroupError):
    pass


class ParseError(ValueError):
    """Error in one of the text formats, with a 1-based line number and the
    bare message."""

    def __init__(self, message: str, line: int):
        self.line, self.message = line, message
        super().__init__(f"Parse error at line {line}: {message}")


def _built(cls, *values):
    """An instance of the frozen dataclass cls with the given values of all
    its fields, in order, made without running __post_init__: only for
    results whose invariants follow from inputs already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class FiniteSemigroup:
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    zero: int | None = None
    identity: int | None = None

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise SemigroupError("a semigroup needs at least one element")
        if len(set(self.labels)) != n:
            raise SemigroupError("labels must be distinct")
        for lab in self.labels:
            if not lab or any(ch.isspace() for ch in lab):
                raise SemigroupError(f"bad label {lab!r}")
        if len(self.table) != n:
            raise IndexOutOfRange("table is not square")
        for row in self.table:
            if len(row) != n:
                raise IndexOutOfRange("table is not square")
            for v in row:
                if not (0 <= v < n):
                    raise IndexOutOfRange(f"table entry {v} out of range")
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                ab = ta[b]
                tab = t[ab]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise NonAssociative(a, b, c)
        if self.zero is not None:
            z = self.zero
            if not (0 <= z < n):
                raise IndexOutOfRange(f"zero index {z} out of range")
            if any(t[z][a] != z or t[a][z] != z for a in range(n)):
                raise BadZero(f"element {self.labels[z]} is not a zero")
        if self.identity is not None:
            e = self.identity
            if not (0 <= e < n):
                raise IndexOutOfRange(f"identity index {e} out of range")
            if any(t[e][a] != a or t[a][e] != a for a in range(n)):
                raise BadIdentity(f"element {self.labels[e]} is not an identity")

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SemigroupError(f"no element labelled {label!r}") from None

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"


def make_semigroup(labels, table, zero: int | None = None,
                   identity: int | None = None) -> FiniteSemigroup:
    """Validate and build a semigroup from a multiplication table."""
    rows = tuple(tuple(row) for row in table)
    if labels is None:
        labels = tuple(f"s{i}" for i in range(len(rows)))
    return FiniteSemigroup(tuple(labels), rows, zero, identity)


def _fresh_label(existing, base: str) -> str:
    lab = base
    while lab in existing:
        lab += "'"
    return lab


@dataclass(frozen=True)
class GeneratorMap:
    """A surjective assignment from a finite alphabet onto a semigroup.

    `monoid` marks a monoid-level choice of generators: the target must carry
    a designated identity, which is generated for free (by the empty word).
    """

    alphabet: tuple[str, ...]
    target: FiniteSemigroup
    image: tuple[int, ...]
    monoid: bool = False

    def __post_init__(self):
        if len(self.alphabet) != len(self.image):
            raise SemigroupError("alphabet and image sizes differ")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise SemigroupError("alphabet symbols must be distinct")
        n = self.target.order
        for v in self.image:
            if not (0 <= v < n):
                raise IndexOutOfRange(f"image index {v} out of range")
        if self.monoid and self.target.identity is None:
            raise NoIdentity("monoid generator map needs a designated identity")
        reached = set(self.image)
        if self.monoid:
            reached.add(self.target.identity)
        frontier = list(reached)
        while frontier:  # every product of generators is a chain of right products
            row = self.target.table[frontier.pop()]
            for g in self.image:
                if row[g] not in reached:
                    reached.add(row[g])
                    frontier.append(row[g])
        if len(reached) != n:
            missing = [self.target.labels[i] for i in range(n) if i not in reached]
            raise NotGenerating(f"generators do not reach {missing}")

    def evaluate(self, word) -> int:
        """Image of a positive word (a sequence of letter indices)."""
        for x in word:
            if not 0 <= x < len(self.image):
                raise IndexOutOfRange(f"letter {x} out of range")
        if not word:
            if self.monoid:
                return self.target.identity
            raise SemigroupError("empty word has no image under a semigroup map")
        it = iter(word)
        acc = self.image[next(it)]
        for x in it:
            acc = self.target.mul(acc, self.image[x])
        return acc


def full_generator_map(s: FiniteSemigroup) -> GeneratorMap:
    """One generator per element, named by the element's label."""
    return _built(GeneratorMap, s.labels, s, tuple(range(s.order)), False)


def generator_map(s: FiniteSemigroup, labels) -> GeneratorMap:
    """Generators selected by element labels, symbols named the same way."""
    idx = tuple(s.index(l) for l in labels)
    return GeneratorMap(tuple(labels), s, idx)


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """S^1: a fresh identity is adjoined even if S already has one."""
    n = s.order
    rows = tuple((*row, a) for a, row in enumerate(s.table)) + (tuple(range(n + 1)),)
    labels = s.labels + (_fresh_label(s.labels, "1"),)
    return _built(FiniteSemigroup, labels, rows, s.zero, n)


def adjoin_zero(s: FiniteSemigroup) -> FiniteSemigroup:
    """S^0: a fresh absorbing element; any previously designated zero loses
    its designation (it no longer absorbs the new element)."""
    n = s.order
    rows = tuple((*row, n) for row in s.table) + ((n,) * (n + 1),)
    labels = s.labels + (_fresh_label(s.labels, "0"),)
    return _built(FiniteSemigroup, labels, rows, n, s.identity)


def lift_to_monoid(gmap: GeneratorMap) -> GeneratorMap:
    """The unique extension of a semigroup generator choice to S^1."""
    return _built(GeneratorMap, gmap.alphabet, adjoin_identity(gmap.target),
                  gmap.image, True)


def _check_subset(s: FiniteSemigroup, subset) -> frozenset:
    sub = frozenset(subset)
    if not sub:
        raise EmptySubset("subset is empty")
    for v in sub:
        if not (0 <= v < s.order):
            raise IndexOutOfRange(f"subset element {v} out of range")
    return sub


def is_subsemigroup(s: FiniteSemigroup, subset) -> bool:
    sub = _check_subset(s, subset)
    rows = s.table
    return all(rows[a][b] in sub for a in sub for b in sub)


def _subsemigroup_set(s: FiniteSemigroup, subset) -> frozenset:
    """The subset as a frozenset, once is_subsemigroup finds it closed."""
    sub = frozenset(subset)
    if not is_subsemigroup(s, sub):
        raise NotASubsemigroup(f"{sorted(sub)} is not a subsemigroup")
    return sub


def _is_morphism(src: FiniteSemigroup, dst: FiniteSemigroup, phi) -> bool:
    """phi(a) phi(b) = phi(ab) in dst for all a, b of src."""
    rows, out = src.table, dst.table
    return all(out[phi[a]][phi[b]] == phi[rows[a][b]]
               for a in range(src.order) for b in range(src.order))


@functools.lru_cache(maxsize=8)
def _subsets(n: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """(mask, set) for every nonempty subset of range(n), by size and then
    lexicographically; one table per order, shared by every semigroup of it."""
    return tuple((sum(1 << v for v in sub), frozenset(sub))
                 for r in range(1, n + 1)
                 for sub in itertools.combinations(range(n), r))


def all_subsemigroups(s: FiniteSemigroup) -> list[frozenset[int]]:
    """Every subsemigroup, by size and then lexicographically, as the shared
    frozensets of _subsets."""
    rows = s.table
    return [t for mask, t in _subsets(s.order)
            if all(mask >> rows[a][b] & 1 for a in t for b in t)]


def is_ideal(s: FiniteSemigroup, subset) -> bool:
    """True iff the subset absorbs multiplication by S on both sides."""
    sub = _check_subset(s, subset)
    return all(s.mul(a, t) in sub and s.mul(t, a) in sub
               for t in sub for a in range(s.order))


def subsemigroup(s: FiniteSemigroup, subset) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """The subsemigroup on `subset` as its own table, plus the embedding."""
    emb = tuple(sorted(_subsemigroup_set(s, subset)))
    back = {v: i for i, v in enumerate(emb)}
    rows = s.table
    table = tuple(tuple(back[rows[a][b]] for b in emb) for a in emb)
    return (_built(FiniteSemigroup, tuple(s.labels[v] for v in emb), table,
                   back.get(s.zero), back.get(s.identity)), emb)


def rees_quotient(s: FiniteSemigroup, ideal, gmap: GeneratorMap | None = None):
    """S/T: collapse an ideal to a zero.  Returns (quotient, projection) and,
    when a generator map onto S is supplied, (quotient, projection, induced map)."""
    if gmap is not None and gmap.target is not s and gmap.target != s:
        raise SemigroupError("the generator map is not onto S")
    t = frozenset(ideal)
    if not is_ideal(s, t):
        raise NotAnIdeal(f"{sorted(t)} is not an ideal")
    survivors = [v for v in range(s.order) if v not in t]
    zero_idx = len(survivors)
    back = {v: i for i, v in enumerate(survivors)}
    proj = tuple(back.get(v, zero_idx) for v in range(s.order))
    labels = tuple(s.labels[v] for v in survivors)
    labels += (_fresh_label(labels, "0"),)
    rows = [tuple([proj[s.table[a][b]] for b in survivors] + [zero_idx])
            for a in survivors]
    rows.append((zero_idx,) * (zero_idx + 1))
    ident = None if s.identity is None or s.identity in t else proj[s.identity]
    q = _built(FiniteSemigroup, labels, tuple(rows), zero_idx, ident)
    if gmap is None:
        return q, proj
    image = tuple(proj[v] for v in gmap.image)
    if gmap.monoid:  # without the identity its images may not generate S/T
        return q, proj, GeneratorMap(gmap.alphabet, q, image)
    return q, proj, _built(GeneratorMap, gmap.alphabet, q, image, False)


ZERO = None  # sandwich-matrix mark for the absent entry


@dataclass(frozen=True)
class SandwichMatrix:
    """J x I matrix over S union {ZERO}; entries[j][i] is an element index
    of the base semigroup, or ZERO."""

    rows: int
    cols: int
    entries: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise SemigroupError("sandwich matrix must be nonempty")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise SemigroupError("sandwich matrix shape mismatch")
        for row in self.entries:
            for v in row:
                if v is not None and (isinstance(v, bool) or not isinstance(v, int) or v < 0):
                    raise IndexOutOfRange(f"bad sandwich entry {v!r}")

    def entry(self, j: int, i: int) -> int | None:
        return self.entries[j][i]

    @property
    def has_zero_entry(self) -> bool:
        return any(v is None for row in self.entries for v in row)

    @property
    def regular(self) -> bool:
        """Every row and every column carries a non-ZERO entry."""
        rows_ok = all(any(v is not None for v in row) for row in self.entries)
        cols_ok = all(any(row[i] is not None for row in self.entries)
                      for i in range(self.cols))
        return rows_ok and cols_ok


def sandwich(entries) -> SandwichMatrix:
    rows = tuple(tuple(row) for row in entries)
    return SandwichMatrix(len(rows), len(rows[0]) if rows else 0, rows)


@dataclass(frozen=True)
class ReesStructure:
    """Coordinate chart (i, s, j) <-> element index of a constructed Rees
    matrix semigroup, the triples in lexicographic order: (i, s, j) is
    element (i|S| + s)|J| + j, and the zero, when present, the last.  P must
    be J x I over S, with ZERO entries only when with_zero."""

    base: FiniteSemigroup
    i_count: int
    j_count: int
    sandwich: SandwichMatrix
    with_zero: bool

    def __post_init__(self):
        p = self.sandwich
        if p.rows != self.j_count or p.cols != self.i_count:
            raise SemigroupError(f"sandwich matrix must be {self.j_count}x{self.i_count}")
        for row in p.entries:
            for v in row:
                if v is None:
                    if not self.with_zero:
                        raise ZeroEntryWithoutZero("ZERO entry in a zero-free construction")
                elif v >= self.base.order:
                    raise IndexOutOfRange(f"sandwich entry {v} out of range")

    @functools.cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """Every nonzero element's (i, s, j), in index order."""
        return tuple(itertools.product(range(self.i_count), range(self.base.order),
                                       range(self.j_count)))

    def encode(self, i: int, s: int, j: int) -> int:
        if not (0 <= i < self.i_count and 0 <= s < self.base.order
                and 0 <= j < self.j_count):
            raise IndexOutOfRange(f"bad triple ({i},{s},{j})")
        return (i * self.base.order + s) * self.j_count + j

    def decode(self, idx: int):
        """The triple at idx, or None for the zero."""
        if idx == self.zero_index:
            return None
        if not (0 <= idx < self.order):
            raise IndexOutOfRange(f"bad element index {idx}")
        return self.triples[idx]

    @property
    def zero_index(self) -> int | None:
        return len(self.triples) if self.with_zero else None

    @property
    def order(self) -> int:
        return len(self.triples) + self.with_zero


def rees_matrix(s: FiniteSemigroup, i_count: int, j_count: int,
                p: SandwichMatrix, with_zero: bool):
    """M(S; I, J; P) or M^0(S; I, J; P) with the product
    (i1,g1,j1)(i2,g2,j2) = (i1, g1 P[j1][i2] g2, j2), or the zero when the
    sandwich entry is ZERO.  One pass over rs.triples writes the labels and
    the rows, the zero's column and row included, from S's table and P."""
    rs = ReesStructure(s, i_count, j_count, p, with_zero)
    triples, table, zero = rs.triples, s.table, rs.zero_index
    index = {t: k for k, t in enumerate(triples)}
    labels = [f"({i + 1},{s.labels[g]},{j + 1})" for i, g, j in triples]
    rows = []
    for i1, g1, j1 in triples:
        # sides[i2]: the table row of g1 P[j1][i2], or None for a ZERO entry
        sides = [None if pe is None else table[table[g1][pe]] for pe in p.entries[j1]]
        row = [zero if sides[i2] is None else index[i1, sides[i2][g2], j2]
               for i2, g2, j2 in triples]
        rows.append(tuple(row + [zero] if with_zero else row))
    if with_zero:
        labels.append(_fresh_label(labels, "0"))
        rows.append((zero,) * rs.order)
    return _built(FiniteSemigroup, tuple(labels), tuple(rows), zero, None), rs


def idempotents(s: FiniteSemigroup) -> frozenset[int]:
    return frozenset(e for e in range(s.order) if s.mul(e, e) == e)


@dataclass(frozen=True)
class GreenClasses:
    r: tuple[frozenset[int], ...]
    l: tuple[frozenset[int], ...]
    h: tuple[frozenset[int], ...]
    d: tuple[frozenset[int], ...]

    def class_of(self, relation: str, x: int) -> frozenset[int]:
        for cls in getattr(self, relation):
            if x in cls:
                return cls
        raise IndexOutOfRange(f"element {x} not found")


def _partition_by(keys: list) -> tuple[frozenset[int], ...]:
    groups: dict = {}
    for x, k in enumerate(keys):
        groups.setdefault(k, []).append(x)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def green_classes(s: FiniteSemigroup) -> GreenClasses:
    """Green's relations from principal one-sided ideals (a S^1, S^1 a).
    D is taken as J, which it equals in a finite semigroup: a D b exactly
    when S^1 a S^1 = S^1 b S^1, the principal ideal of a."""
    n = s.order
    right = [frozenset({a} | {s.mul(a, b) for b in range(n)}) for a in range(n)]
    left = [frozenset({a} | {s.mul(b, a) for b in range(n)}) for a in range(n)]
    r = _partition_by(right)
    l = _partition_by(left)
    h = _partition_by([(right[a], left[a]) for a in range(n)])
    d = _partition_by([principal_ideal(s, a) for a in range(n)])
    return GreenClasses(r, l, h, d)


def group_of_units(m: FiniteSemigroup):
    """The units of a monoid: (group, embedding, inverse map on S-indices)."""
    if m.identity is None:
        raise NoIdentity("no designated identity")
    e = m.identity
    inverse: dict[int, int] = {}
    for g in range(m.order):
        for h in range(m.order):
            if m.mul(g, h) == e and m.mul(h, g) == e:
                inverse[g] = h
                break
    grp, emb = subsemigroup(m, frozenset(inverse))  # its identity is e's index
    return grp, emb, inverse


def maximal_subgroup(s: FiniteSemigroup, e: int):
    """Group of units of the local monoid eSe: (group, embedding into S)."""
    if s.mul(e, e) != e:
        raise NotIdempotent(f"element {e} is not idempotent")
    local = sorted({s.mul(e, s.mul(x, e)) for x in range(s.order)})
    loc, emb = subsemigroup(s, frozenset(local))
    loc = _built(FiniteSemigroup, loc.labels, loc.table, loc.zero,
                 emb.index(e))
    grp, emb2, _ = group_of_units(loc)
    return grp, tuple(emb[v] for v in emb2)


def principal_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    """S^1 a S^1 = {a} | aS | Sa | (Sa)S, read off the table rows."""
    rows = s.table
    sa = {row[a] for row in rows}
    out = {a, *rows[a], *sa}
    for b in sa:
        out.update(rows[b])
    return frozenset(out)


def all_ideals(s: FiniteSemigroup) -> list[frozenset[int]]:
    """Every nonempty ideal, as unions of principal ideals."""
    principals = {principal_ideal(s, a) for a in range(s.order)}
    ideals = set(principals)
    frontier = list(ideals)
    while frontier:
        i = frontier.pop()
        for p in principals:
            u = i | p
            if u not in ideals:
                ideals.add(u)
                frontier.append(u)
    return sorted(ideals, key=lambda t: (len(t), sorted(t)))


def is_completely_zero_simple(s: FiniteSemigroup) -> bool:
    """Only ideals are {0} and S, and S.S != {0}.  Finiteness of the
    idempotent set is automatic for a finite carrier."""
    if s.zero is None:
        raise NoZero("no designated zero")
    z = s.zero
    if all(s.mul(a, b) == z for a in range(s.order) for b in range(s.order)):
        return False
    full = frozenset(range(s.order))
    return all(principal_ideal(s, a) == full for a in range(s.order) if a != z)


def is_right_unitary(s: FiniteSemigroup, t) -> bool:
    """x in T and ax in T together force a in T."""
    sub = _subsemigroup_set(s, t)
    return all(a in sub
               for a in range(s.order) for x in sub if s.mul(a, x) in sub)


def is_pseudo_right_unitary(s: FiniteSemigroup, t) -> bool:
    """For every a some b in T agrees with a's left action on each x in T
    that a keeps inside T."""
    sub = _subsemigroup_set(s, t)
    for a in range(s.order):
        kept = [x for x in sub if s.mul(a, x) in sub]
        if not any(all(s.mul(b, x) == s.mul(a, x) for x in kept) for b in sub):
            return False
    return True


def is_weakly_pru(s: FiniteSemigroup, t) -> bool:
    """For every a and pair x, y in T with ax in T, some b in T has
    bx = ax and by = ay."""
    return _weakly_pru(s.table, _subsemigroup_set(s, t))


def _weakly_pru(rows, sub: frozenset) -> bool:
    """is_weakly_pru on table rows and a set already known to be closed:
    (ax, ay) is one of the pairs (bx, by), packed as bit bx*n + by."""
    n = len(rows)
    t_rows = [rows[b] for b in sub]
    outside = [row for a, row in enumerate(rows) if a not in sub]  # a in T is its own b
    for x in sub:
        kept = [row for row in outside if row[x] in sub]
        if not kept:
            continue
        for y in sub:
            pairs = 0
            for row in t_rows:
                pairs |= 1 << (row[x] * n + row[y])
            for row in kept:
                if not pairs >> (row[x] * n + row[y]) & 1:
                    return False
    return True


def enumerate_semigroups(n: int):
    """The 1, 8, 113, 3492 associative tables on n = 1..4 labelled elements,
    by backtracking that checks each new cell, so each is built unchecked."""
    if not (1 <= n <= 4):
        raise OrderTooLarge("enumeration supported for orders 1..4 only")
    labels = tuple(f"s{i}" for i in range(n))
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[-1] * n for _ in range(n)]
    rng = range(n)

    def consistent(i: int, j: int) -> bool:
        """Associativity on the defined triples that read cell (i, j): no other changed."""
        ti = table[i]
        for b in rng:  # (ib)c against i(bc), where b = j or bc = j
            ib, tb = ti[b], table[b]
            if ib >= 0:
                tib = table[ib]
                for c in rng:
                    bc = tb[c]
                    if (b == j or bc == j) and bc >= 0 and 0 <= tib[c] != ti[bc] >= 0:
                        return False
        for a in rng:  # (ab)j against a(bj), where b = i or ab = i
            ta = table[a]
            for b in rng:
                ab = ta[b]
                if (b == i or ab == i) and ab >= 0:
                    bj = table[b][j]
                    if bj >= 0 and 0 <= table[ab][j] != ta[bj] >= 0:
                        return False
        return True

    def fill(k: int):
        if k == len(cells):
            yield _built(FiniteSemigroup, labels, tuple(map(tuple, table)), None, None)
            return
        i, j = cells[k]
        for v in rng:
            table[i][j] = v
            if consistent(i, j):
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def isomorphism(s1: FiniteSemigroup, s2: FiniteSemigroup):
    """The lexicographically least table isomorphism s1 -> s2 as an index
    tuple, or None.  The search is exhaustive over the n! bijections; every
    caller in the package passes order at most 4."""
    if s1.order != s2.order:
        return None
    return next((phi for phi in itertools.permutations(range(s1.order))
                 if _is_morphism(s1, s2, phi)), None)


def are_isomorphic(s1: FiniteSemigroup, s2: FiniteSemigroup) -> bool:
    return isomorphism(s1, s2) is not None


# -- a small zoo -------------------------------------------------------------

def trivial_semigroup() -> FiniteSemigroup:
    return FiniteSemigroup(("e",), ((0,),), identity=0)


def cyclic_group(n: int) -> FiniteSemigroup:
    labels = tuple("e" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteSemigroup(labels, table, identity=0)


def left_zero(n: int) -> FiniteSemigroup:
    labels = tuple(f"l{i}" for i in range(n))
    return FiniteSemigroup(labels, tuple(tuple(i for _ in range(n)) for i in range(n)))


def null_semigroup(n: int) -> FiniteSemigroup:
    """All products equal the zero (element 0)."""
    labels = ("0",) + tuple(f"a{i}" for i in range(1, n))
    return FiniteSemigroup(labels, tuple(tuple(0 for _ in range(n)) for _ in range(n)),
                           zero=0)


def brandt_b2() -> FiniteSemigroup:
    """The five-element Brandt semigroup M^0(trivial; 2, 2; identity pattern)."""
    p = sandwich([[0, ZERO], [ZERO, 0]])
    return rees_matrix(trivial_semigroup(), 2, 2, p, with_zero=True)[0]


NAMED_SEMIGROUPS = {
    "trivial": trivial_semigroup,
    "c2": lambda: cyclic_group(2),
    "c3": lambda: cyclic_group(3),
    "c4": lambda: cyclic_group(4),
    "b2": brandt_b2,
    "leftzero2": lambda: left_zero(2),
    "null2": lambda: null_semigroup(2),
}


# -- text format --------------------------------------------------------------

def format_semigroup(s: FiniteSemigroup) -> str:
    lines = [str(s.order), " ".join(s.labels)]
    for row in s.table:
        lines.append(" ".join(s.labels[v] for v in row))
    if s.zero is not None:
        lines.append(f"zero {s.labels[s.zero]}")
    if s.identity is not None:
        lines.append(f"identity {s.labels[s.identity]}")
    return "\n".join(lines) + "\n"


def parse_semigroup_text(text: str) -> FiniteSemigroup:
    raw = text.splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise ParseError("empty table file", 1)
    no, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"expected element count, got {first!r}", no) from None
    if n < 1:
        raise ParseError("element count must be positive", no)
    if len(lines) < n + 2:
        raise ParseError(f"expected {n} table rows", lines[-1][0])
    no, lab_line = lines[1]
    labels = tuple(lab_line.split())
    if len(labels) != n:
        raise ParseError(f"expected {n} labels, got {len(labels)}", no)
    if len(set(labels)) != n:
        raise ParseError("duplicate labels", no)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for r in range(n):
        no, row_line = lines[2 + r]
        toks = row_line.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, got {len(toks)}", no)
        try:
            rows.append(tuple(index[t] for t in toks))
        except KeyError as e:
            raise ParseError(f"unknown label {e.args[0]!r}", no) from None
    marks: dict[str, tuple[int, int]] = {}  # zero/identity: line, element
    for no, extra in lines[2 + n:]:
        toks = extra.split()
        if len(toks) != 2 or toks[0] not in ("zero", "identity"):
            raise ParseError(f"unexpected line {extra!r}", no)
        if toks[0] in marks:
            raise ParseError(f"repeated {toks[0]} line", no)
        if toks[1] not in index:
            raise ParseError(f"unknown label {toks[1]!r}", no)
        marks[toks[0]] = (no, index[toks[1]])
    zero, identity = (marks.get(k, (0, None)) for k in ("zero", "identity"))
    try:
        return FiniteSemigroup(labels, tuple(rows), zero=zero[1], identity=identity[1])
    except (BadZero, BadIdentity) as e:  # reported at the line that names it
        raise ParseError(str(e), (zero if isinstance(e, BadZero) else identity)[0]) from None
    except SemigroupError as e:
        raise ParseError(str(e), lines[0][0]) from None
