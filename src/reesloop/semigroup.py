"""Finite semigroups as multiplication tables.

Elements are dense integer indices; labels are presentation only. All values
are immutable.  Public constructors and parsers check every invariant, so a
FiniteSemigroup is associative and its designated zero/identity obey their
laws.  Derived constructions (S^1, S^0, quotients, Rees matrix semigroups,
their maps and automata) are correct once their inputs are: they are trusted
and build through _built unchecked; tests/test_trusted.py rebuilds them.
"""

from __future__ import annotations

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
    """Error in one of the text formats, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
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
        while frontier:
            a = frontier.pop()
            for g in self.image:
                for p in (self.target.mul(a, g), self.target.mul(g, a)):
                    if p not in reached:
                        reached.add(p)
                        frontier.append(p)
        if len(reached) != n:
            missing = [self.target.labels[i] for i in range(n) if i not in reached]
            raise NotGenerating(f"generators do not reach {missing}")

    def evaluate(self, word) -> int:
        """Image of a positive word (a sequence of letter indices)."""
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
    rows = [list(row) + [a] for a, row in enumerate(s.table)]
    rows.append(list(range(n + 1)))
    labels = s.labels + (_fresh_label(s.labels, "1"),)
    return _built(FiniteSemigroup, labels, tuple(tuple(r) for r in rows),
                  s.zero, n)


def adjoin_zero(s: FiniteSemigroup) -> FiniteSemigroup:
    """S^0: a fresh absorbing element; any previously designated zero loses
    its designation (it no longer absorbs the new element)."""
    n = s.order
    rows = [list(row) + [n] for row in s.table]
    rows.append([n] * (n + 1))
    labels = s.labels + (_fresh_label(s.labels, "0"),)
    return _built(FiniteSemigroup, labels, tuple(tuple(r) for r in rows),
                  n, s.identity)


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
    return all(s.mul(a, b) in sub for a in sub for b in sub)


def all_subsemigroups(s: FiniteSemigroup) -> list[frozenset[int]]:
    """Every subsemigroup, by size and then lexicographically."""
    subsets = (frozenset(sub) for r in range(1, s.order + 1)
               for sub in itertools.combinations(range(s.order), r))
    return [t for t in subsets if is_subsemigroup(s, t)]


def is_ideal(s: FiniteSemigroup, subset) -> bool:
    """True iff the subset absorbs multiplication by S on both sides."""
    sub = _check_subset(s, subset)
    return all(s.mul(a, t) in sub and s.mul(t, a) in sub
               for t in sub for a in range(s.order))


def subsemigroup(s: FiniteSemigroup, subset) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """The subsemigroup on `subset` as its own table, plus the embedding."""
    sub = _check_subset(s, subset)
    if not is_subsemigroup(s, sub):
        raise NotASubsemigroup(f"{sorted(sub)} is not closed under multiplication")
    emb = tuple(sorted(sub))
    back = {v: i for i, v in enumerate(emb)}
    table = tuple(tuple(back[s.mul(a, b)] for b in emb) for a in emb)
    return (_built(FiniteSemigroup, tuple(s.labels[v] for v in emb), table,
                   back.get(s.zero), back.get(s.identity)), emb)


def rees_quotient(s: FiniteSemigroup, ideal, gmap: GeneratorMap | None = None):
    """S/T: collapse an ideal to a zero.  Returns (quotient, projection) and,
    when a generator map is supplied, (quotient, projection, induced map)."""
    t = _check_subset(s, ideal)
    if not is_ideal(s, t):
        raise NotAnIdeal(f"{sorted(t)} is not an ideal")
    survivors = [v for v in range(s.order) if v not in t]
    zero_idx = len(survivors)
    proj = [zero_idx] * s.order
    for i, v in enumerate(survivors):
        proj[v] = i
    labels = tuple(s.labels[v] for v in survivors)
    labels += (_fresh_label(labels, "0"),)
    n = zero_idx + 1
    rows = [[zero_idx] * n for _ in range(n)]
    for i, a in enumerate(survivors):
        for j, b in enumerate(survivors):
            rows[i][j] = proj[s.mul(a, b)]
    ident = None if s.identity is None or s.identity in t else proj[s.identity]
    q = _built(FiniteSemigroup, labels, tuple(tuple(r) for r in rows),
               zero_idx, ident)
    proj_t = tuple(proj)
    if gmap is None:
        return q, proj_t
    image = tuple(proj[v] for v in gmap.image)
    if gmap.monoid:  # without the identity its images may not generate S/T
        return q, proj_t, GeneratorMap(gmap.alphabet, q, image)
    return q, proj_t, _built(GeneratorMap, gmap.alphabet, q, image, False)


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
                if v is not None and (not isinstance(v, int) or v < 0):
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
    matrix semigroup; the zero, when present, is the last index."""

    base: FiniteSemigroup
    i_count: int
    j_count: int
    sandwich: SandwichMatrix
    with_zero: bool

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
        idx, j = divmod(idx, self.j_count)
        i, s = divmod(idx, self.base.order)
        return (i, s, j)

    @property
    def zero_index(self) -> int | None:
        return self.i_count * self.base.order * self.j_count if self.with_zero else None

    @property
    def order(self) -> int:
        n = self.i_count * self.base.order * self.j_count
        return n + 1 if self.with_zero else n


def rees_matrix(s: FiniteSemigroup, i_count: int, j_count: int,
                p: SandwichMatrix, with_zero: bool):
    """M(S; I, J; P) or M^0(S; I, J; P) with the product
    (i1,g1,j1)(i2,g2,j2) = (i1, g1 P[j1][i2] g2, j2), or the zero when the
    sandwich entry is ZERO."""
    if p.rows != j_count or p.cols != i_count:
        raise SemigroupError(f"sandwich matrix must be {j_count}x{i_count}")
    for row in p.entries:
        for v in row:
            if v is None:
                if not with_zero:
                    raise ZeroEntryWithoutZero("ZERO entry in a zero-free construction")
            elif v >= s.order:
                raise IndexOutOfRange(f"sandwich entry {v} out of range")
    rs = ReesStructure(s, i_count, j_count, p, with_zero)
    n = rs.order
    zero = rs.zero_index
    labels = []
    for i in range(i_count):
        for g in range(s.order):
            for j in range(j_count):
                labels.append(f"({i + 1},{s.labels[g]},{j + 1})")
    if with_zero:
        labels.append(_fresh_label(labels, "0"))
    rows = [[0] * n for _ in range(n)]
    triples = [(i, g, j) for i in range(i_count)
               for g in range(s.order) for j in range(j_count)]
    for a, (i1, g1, j1) in enumerate(triples):
        for b, (i2, g2, j2) in enumerate(triples):
            pe = p.entry(j1, i2)
            if pe is None:
                rows[a][b] = zero
            else:
                rows[a][b] = rs.encode(i1, s.mul(s.mul(g1, pe), g2), j2)
    if with_zero:
        for a in range(n):
            rows[a][zero] = zero
            rows[zero][a] = zero
    m = _built(FiniteSemigroup, tuple(labels), tuple(tuple(r) for r in rows),
               zero, None)
    return m, rs


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
    """Green's relations from principal one-sided ideals (a S^1, S^1 a)."""
    n = s.order
    right = [frozenset({a} | {s.mul(a, b) for b in range(n)}) for a in range(n)]
    left = [frozenset({a} | {s.mul(b, a) for b in range(n)}) for a in range(n)]
    r = _partition_by(right)
    l = _partition_by(left)
    h = _partition_by([(right[a], left[a]) for a in range(n)])
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cls in itertools.chain(r, l):
        it = iter(sorted(cls))
        root = find(next(it))
        for x in it:
            parent[find(x)] = root
    d = _partition_by([find(x) for x in range(n)])
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
    """S^1 a S^1 = {a} | aS | Sa | SaS."""
    n = s.order
    out = {a}
    out.update(s.mul(a, x) for x in range(n))
    out.update(s.mul(x, a) for x in range(n))
    out.update(s.mul(x, s.mul(a, y)) for x in range(n) for y in range(n))
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
    sub = _check_subset(s, t)
    if not is_subsemigroup(s, sub):
        raise NotASubsemigroup(f"{sorted(sub)} is not a subsemigroup")
    return all(a in sub
               for a in range(s.order) for x in sub if s.mul(a, x) in sub)


def is_pseudo_right_unitary(s: FiniteSemigroup, t) -> bool:
    """For every a some b in T agrees with a's left action on each x in T
    that a keeps inside T."""
    sub = _check_subset(s, t)
    if not is_subsemigroup(s, sub):
        raise NotASubsemigroup(f"{sorted(sub)} is not a subsemigroup")
    for a in range(s.order):
        kept = [x for x in sub if s.mul(a, x) in sub]
        if not any(all(s.mul(b, x) == s.mul(a, x) for x in kept) for b in sub):
            return False
    return True


def is_weakly_pru(s: FiniteSemigroup, t) -> bool:
    """For every a and pair x, y in T with ax in T, some b in T has
    bx = ax and by = ay: (ax, ay) is one of the pairs (bx, by) for x, y."""
    sub = _check_subset(s, t)
    if not is_subsemigroup(s, sub):
        raise NotASubsemigroup(f"{sorted(sub)} is not a subsemigroup")
    rows = s.table
    t_rows = [rows[b] for b in sub]
    for x in sub:
        kept = [row for row in rows if row[x] in sub]
        for y in sub:
            pairs = {(row[x], row[y]) for row in t_rows}
            if any((row[x], row[y]) not in pairs for row in kept):
                return False
    return True


def enumerate_semigroups(n: int):
    """All associative tables on n labelled elements, by backtracking with
    associativity pruning.  Labelled count: 1, 8, 113, 3492 for n = 1..4."""
    if not (1 <= n <= 4):
        raise OrderTooLarge("enumeration supported for orders 1..4 only")
    labels = tuple(f"s{i}" for i in range(n))
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[-1] * n for _ in range(n)]
    rng = range(n)

    def ok_so_far() -> bool:
        for a in rng:
            ta = table[a]
            for b in rng:
                ab = ta[b]
                if ab < 0:
                    continue
                for c in rng:
                    bc = table[b][c]
                    abc1 = table[ab][c]
                    if bc >= 0:
                        abc2 = ta[bc]
                        if abc1 >= 0 and abc2 >= 0 and abc1 != abc2:
                            return False
        return True

    def fill(k: int):
        if k == len(cells):
            yield FiniteSemigroup(labels, tuple(tuple(r) for r in table))
            return
        i, j = cells[k]
        for v in rng:
            table[i][j] = v
            if ok_so_far():
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def isomorphism(s1: FiniteSemigroup, s2: FiniteSemigroup):
    """A table isomorphism s1 -> s2 as an index tuple, or None."""
    n = s1.order
    if n != s2.order:
        return None

    def profile(s, x):
        row = s.table[x]
        col = tuple(s.table[y][x] for y in range(s.order))
        return (s.mul(x, x) == x, len(set(row)), len(set(col)))

    p1 = [profile(s1, x) for x in range(n)]
    p2 = [profile(s2, x) for x in range(n)]
    image = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        for v in range(n):
            if used[v] or p1[k] != p2[v]:
                continue
            image[k] = v
            used[v] = True
            good = True
            for a in range(k + 1):
                for b in range(k + 1):
                    c = s1.mul(a, b)
                    if c <= k:
                        if s2.mul(image[a], image[b]) != image[c]:
                            good = False
                            break
                    # product outside the placed prefix: checked later
                if not good:
                    break
            if good and extend(k + 1):
                return True
            used[v] = False
            image[k] = -1
        return False

    if not extend(0):
        return None
    for a in range(n):
        for b in range(n):
            if s2.mul(image[a], image[b]) != image[s1.mul(a, b)]:
                return None
    return tuple(image)


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
    zero = identity = None
    for no, extra in lines[2 + n:]:
        toks = extra.split()
        if len(toks) != 2 or toks[0] not in ("zero", "identity"):
            raise ParseError(f"unexpected line {extra!r}", no)
        if toks[1] not in index:
            raise ParseError(f"unknown label {toks[1]!r}", no)
        if toks[0] == "zero":
            zero = index[toks[1]]
        else:
            identity = index[toks[1]]
    try:
        return FiniteSemigroup(labels, tuple(rows), zero=zero, identity=identity)
    except SemigroupError as e:
        raise ParseError(str(e), lines[0][0]) from None
