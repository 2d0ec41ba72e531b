import itertools
import random

import pytest

from reesloop import semigroup
from reesloop.cli import _sandwiches, iter_instances
from reesloop.semigroup import (
    BadIdentity,
    BadZero,
    EmptySubset,
    FiniteSemigroup,
    GeneratorMap,
    IndexOutOfRange,
    NAMED_SEMIGROUPS,
    NonAssociative,
    NotASubsemigroup,
    NotGenerating,
    NotIdempotent,
    NoIdentity,
    NoZero,
    OrderTooLarge,
    ParseError,
    ReesStructure,
    SandwichMatrix,
    SemigroupError,
    ZERO,
    ZeroEntryWithoutZero,
    adjoin_identity,
    adjoin_zero,
    all_ideals,
    are_isomorphic,
    brandt_b2,
    cyclic_group,
    enumerate_semigroups,
    format_semigroup,
    full_generator_map,
    generator_map,
    green_classes,
    group_of_units,
    idempotents,
    is_completely_zero_simple,
    is_ideal,
    is_pseudo_right_unitary,
    is_right_unitary,
    is_subsemigroup,
    is_weakly_pru,
    isomorphism,
    left_zero,
    make_semigroup,
    maximal_subgroup,
    null_semigroup,
    parse_semigroup_text,
    rees_matrix,
    rees_quotient,
    sandwich,
    subsemigroup,
    trivial_semigroup,
)


def brute_force_associative(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def all_subsemigroups(s):
    """The listing as it ran before subset masks: a frozenset of its own for
    every subset, tested for closure element by element."""
    for r in range(1, s.order + 1):
        for sub in itertools.combinations(range(s.order), r):
            fs = frozenset(sub)
            if all(s.mul(a, b) in fs for a in fs for b in fs):
                yield fs


def reference_weakly_pru(s, t):
    """The definition read literally: for every a and x, y in T with ax in
    T, some b in T has bx = ax and by = ay."""
    for a in range(s.order):
        for x in t:
            if s.mul(a, x) not in t:
                continue
            for y in t:
                if not any(s.mul(b, x) == s.mul(a, x) and s.mul(b, y) == s.mul(a, y)
                           for b in t):
                    return False
    return True


def pair_set_weakly_pru(s, t):
    """is_weakly_pru as it ran before its pairs were packed into an int:
    the gate, then a set of (bx, by) tuples for each x, y in T."""
    sub = semigroup._subsemigroup_set(s, t)
    rows = s.table
    t_rows = [rows[b] for b in sub]
    outside = [row for a, row in enumerate(rows) if a not in sub]
    for x in sub:
        kept = [row for row in outside if row[x] in sub]
        if not kept:
            continue
        for y in sub:
            pairs = {(row[x], row[y]) for row in t_rows}
            if any((row[x], row[y]) not in pairs for row in kept):
                return False
    return True


def reference_enumerate_tables(n):
    """The backtracking enumerator that rechecks every defined triple after
    each cell is set."""
    table = [[-1] * n for _ in range(n)]
    rng = range(n)

    def ok_so_far():
        for a in rng:
            for b in rng:
                ab = table[a][b]
                if ab < 0:
                    continue
                for c in rng:
                    bc = table[b][c]
                    if bc >= 0 and 0 <= table[ab][c] != table[a][bc] >= 0:
                        return False
        return True

    def fill(k):
        if k == n * n:
            yield tuple(tuple(r) for r in table)
            return
        i, j = divmod(k, n)
        for v in rng:
            table[i][j] = v
            if ok_so_far():
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def reference_principal_ideal(s, a):
    n = s.order
    return frozenset({a} | {s.mul(a, x) for x in range(n)}
                     | {s.mul(x, a) for x in range(n)}
                     | {s.mul(x, s.mul(a, y)) for x in range(n) for y in range(n)})


def reference_green_classes(s):
    """green_classes as it ran before D was read off S^1 a S^1: D is the
    union-find join of the R- and L-classes."""
    n = s.order

    def partition(keys):
        groups = {}
        for x, k in enumerate(keys):
            groups.setdefault(k, []).append(x)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))

    right = [frozenset({a} | {s.mul(a, b) for b in range(n)}) for a in range(n)]
    left = [frozenset({a} | {s.mul(b, a) for b in range(n)}) for a in range(n)]
    r = partition(right)
    l = partition(left)
    h = partition([(right[a], left[a]) for a in range(n)])
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
    d = partition([find(x) for x in range(n)])
    return semigroup.GreenClasses(r, l, h, d)


def reference_isomorphism(s1, s2):
    """isomorphism as it ran before the exhaustive search: backtracking over
    images pruned by an (idempotent, row size, column size) profile."""
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

    def extend(k):
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
                    if c <= k and s2.mul(image[a], image[b]) != image[c]:
                        good = False
                        break
                if not good:
                    break
            if good and extend(k + 1):
                return True
            used[v] = False
            image[k] = -1
        return False

    return tuple(image) if extend(0) else None


def corpus_rees_semigroups():
    """Every distinct Rees matrix semigroup that the default semitorees,
    semitoreeszero, unit-sandwich, czeros and decompose-roundtrip corpora
    build or decide, with the three czeros bases b2, C2^0 and C3^0."""
    found = []
    for tag, zero in (("semitorees", False), ("semitoreeszero", True),
                      ("unit-sandwich", True)):
        for _iid, (_tag, (s, _g, ic, jc, p, *_)) in iter_instances(tag):
            found.append(rees_matrix(s, ic, jc, p, zero)[0])
    for tag in ("czeros", "decompose-roundtrip"):
        found.extend(m for _iid, (_tag, (m, *_)) in iter_instances(tag))
    return list(dict.fromkeys(found))


def reference_rees_matrix(s, i_count, j_count, p, with_zero):
    """rees_matrix as it was before it wrote each row in one pass: the
    triples listed for the labels, again for the rows and a third time to
    fill the zero's row and column, every cell through ReesStructure.encode,
    s.mul and p.entry (its checks on P left out)."""
    rs = ReesStructure(s, i_count, j_count, p, with_zero)
    n = rs.order
    zero = rs.zero_index
    labels = []
    for i in range(i_count):
        for g in range(s.order):
            for j in range(j_count):
                labels.append(f"({i + 1},{s.labels[g]},{j + 1})")
    if with_zero:
        labels.append(semigroup._fresh_label(labels, "0"))
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
    m = semigroup._built(semigroup.FiniteSemigroup, tuple(labels),
                         tuple(tuple(r) for r in rows), zero, None)
    return m, rs


def reference_rees_quotient(s, ideal, gmap):
    """rees_quotient as it was before it wrote each survivor's row once: an
    n x n table of zeros, overwritten cell by cell through s.mul (its ideal
    check left out, and the induced map always checked)."""
    t = frozenset(ideal)
    survivors = [v for v in range(s.order) if v not in t]
    zero_idx = len(survivors)
    proj = [zero_idx] * s.order
    for i, v in enumerate(survivors):
        proj[v] = i
    labels = tuple(s.labels[v] for v in survivors)
    labels += (semigroup._fresh_label(labels, "0"),)
    n = zero_idx + 1
    rows = [[zero_idx] * n for _ in range(n)]
    for i, a in enumerate(survivors):
        for j, b in enumerate(survivors):
            rows[i][j] = proj[s.mul(a, b)]
    ident = None if s.identity is None or s.identity in t else proj[s.identity]
    q = semigroup._built(semigroup.FiniteSemigroup, labels,
                         tuple(tuple(r) for r in rows), zero_idx, ident)
    image = tuple(proj[v] for v in gmap.image)
    return q, tuple(proj), semigroup.GeneratorMap(gmap.alphabet, q, image)


class TestMakeSemigroup:
    def test_trivial(self):
        s = make_semigroup(["e"], [[0]])
        assert s.order == 1 and s.mul(0, 0) == 0

    def test_left_zero_all_triples(self):
        table = [[0, 0], [1, 1]]
        assert brute_force_associative(table)
        s = make_semigroup(["a", "b"], table)
        assert s.mul(0, 1) == 0 and s.mul(1, 0) == 1

    def test_non_associative_reports_first_triple(self):
        # a.a=b, a.b=a, b.a=a, b.b=a: (aa)b = bb = a but a(ab) = aa = b
        with pytest.raises(NonAssociative) as exc:
            make_semigroup(["a", "b"], [[1, 0], [0, 0]])
        assert exc.value.triple == (0, 0, 1)

    def test_bad_zero_and_identity(self):
        with pytest.raises(BadZero):
            make_semigroup(None, cyclic_group(2).table, zero=1)
        with pytest.raises(BadIdentity):
            make_semigroup(None, cyclic_group(2).table, identity=1)

    def test_trivial_zero_is_fine(self):
        s = make_semigroup(["e"], [[0]], zero=0, identity=0)
        assert s.zero == 0 and s.identity == 0


class TestAdjoin:
    def test_identity_on_trivial(self):
        m = adjoin_identity(trivial_semigroup())
        assert m.order == 2 and m.identity == 1
        assert m.mul(1, 0) == 0 and m.mul(0, 1) == 0

    def test_identity_added_even_to_groups(self):
        m = adjoin_identity(cyclic_group(2))
        assert m.order == 3
        assert m.identity == 2
        assert m.mul(0, 0) == 0  # the old identity still acts inside C2

    def test_identity_on_left_zero_keeps_products(self):
        s = left_zero(2)
        m = adjoin_identity(s)
        assert m.order == 3
        assert all(m.mul(a, b) == s.mul(a, b) for a in range(2) for b in range(2))
        assert brute_force_associative(m.table)

    def test_zero_on_trivial(self):
        s = adjoin_zero(trivial_semigroup())
        assert s.order == 2 and s.zero == 1
        assert s.mul(0, 0) == 0
        assert s.mul(0, 1) == s.mul(1, 0) == 1

    def test_zero_on_c2(self):
        s = adjoin_zero(cyclic_group(2))
        assert s.order == 3 and s.zero == 2

    def test_zero_twice(self):
        s = adjoin_zero(adjoin_zero(cyclic_group(2)))
        assert s.order == 4
        assert s.zero == 3
        # only the newest zero absorbs everything, including the old zero
        assert s.mul(2, 3) == 3 and s.mul(3, 2) == 3
        assert s.mul(2, 0) == 2
        assert brute_force_associative(s.table)


class TestIdealsAndQuotients:
    def test_whole_semigroup_is_ideal(self):
        for s in (cyclic_group(2), left_zero(2), brandt_b2()):
            assert is_ideal(s, range(s.order))

    def test_zero_singleton_is_ideal(self):
        s = adjoin_zero(cyclic_group(2))
        assert is_ideal(s, {s.zero})

    def test_identity_singleton_is_not(self):
        s = adjoin_zero(cyclic_group(2))
        assert not is_ideal(s, {0})  # e.g = g escapes

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySubset):
            is_ideal(cyclic_group(2), set())

    def test_quotient_by_whole(self):
        s = cyclic_group(2)
        q, proj = rees_quotient(s, {0, 1})
        assert q.order == 1 and q.zero == 0

    def test_quotient_accepts_a_map_onto_an_equal_copy(self):
        s, copy = cyclic_group(2), cyclic_group(2)
        assert copy is not s and copy == s
        q, proj, gmap = rees_quotient(s, {0, 1}, full_generator_map(copy))
        assert gmap.target is q and gmap.image == (0, 0)

    def test_quotient_by_zero_ideal_is_isomorphic(self):
        s = adjoin_zero(cyclic_group(2))
        q, proj = rees_quotient(s, {s.zero})
        assert are_isomorphic(q, s)

    def test_quotient_projection_is_morphism(self):
        # search a Rees semigroup for a proper ideal, then recheck all pairs
        p = sandwich([[0, 1], [1, 0]])
        m, _ = rees_matrix(cyclic_group(2), 1, 2, sandwich([[0], [1]]), False)
        ideals = [t for t in all_ideals(m) if len(t) < m.order]
        for t in ideals:
            q, proj = rees_quotient(m, t)
            for a in range(m.order):
                for b in range(m.order):
                    assert q.mul(proj[a], proj[b]) == proj[m.mul(a, b)]


class TestReesMatrix:
    def test_trivial_one_by_one(self):
        m, rs = rees_matrix(trivial_semigroup(), 1, 1, sandwich([[0]]), False)
        assert m.order == 1

    def test_product_law_without_zero(self):
        c2 = cyclic_group(2)
        m, rs = rees_matrix(c2, 1, 1, sandwich([[0]]), False)
        for g1 in range(2):
            for g2 in range(2):
                a = rs.encode(0, g1, 0)
                b = rs.encode(0, g2, 0)
                assert m.mul(a, b) == rs.encode(0, c2.mul(g1, g2), 0)

    def test_zero_product_when_sandwich_entry_is_zero(self):
        p = sandwich([[0, ZERO], [ZERO, 0]])
        m, rs = rees_matrix(trivial_semigroup(), 2, 2, p, True)
        a = rs.encode(0, 0, 1)  # (1, e, 2)
        b = rs.encode(0, 0, 0)  # (1, e, 1)
        assert m.mul(a, b) == rs.zero_index  # P[2][1] is ZERO
        assert m.order == 5

    def test_zero_entry_without_zero_rejected(self):
        with pytest.raises(ZeroEntryWithoutZero):
            rees_matrix(trivial_semigroup(), 2, 2,
                        sandwich([[0, ZERO], [ZERO, 0]]), False)

    def test_encode_decode_roundtrip(self):
        p = sandwich([[0, 1], [1, ZERO]])
        m, rs = rees_matrix(cyclic_group(2), 2, 2, p, True)
        for idx in range(m.order):
            tr = rs.decode(idx)
            if tr is None:
                assert idx == rs.zero_index
            else:
                assert rs.encode(*tr) == idx

    def test_regular_predicate(self):
        assert sandwich([[0, ZERO], [ZERO, 0]]).regular
        assert not sandwich([[ZERO, ZERO], [0, 0]]).regular


class TestOnePassBuilders:
    """rees_matrix and rees_quotient give what the references above give."""

    @pytest.mark.parametrize("name", NAMED_SEMIGROUPS)
    @pytest.mark.parametrize("with_zero", [False, True])
    def test_rees_matrix_equals_the_reference(self, name, with_zero):
        base = NAMED_SEMIGROUPS[name]()
        count = 0
        for ic, jc in itertools.product((1, 2), repeat=2):
            for p in _sandwiches(base, ic, jc, allow_zero=with_zero):
                m, rs = rees_matrix(base, ic, jc, p, with_zero)
                assert (m, rs) == reference_rees_matrix(base, ic, jc, p, with_zero)
                assert [rs.encode(*t) for t in rs.triples] == list(range(len(rs.triples)))
                assert all(rs.decode(rs.encode(*t)) == t for t in rs.triples)
                count += 1
        n = base.order + with_zero
        assert count == n + 2 * n ** 2 + n ** 4

    def test_rees_quotient_equals_the_reference(self):
        bases = [s for n in (1, 2, 3) for s in enumerate_semigroups(n)] + [brandt_b2()]
        count = 0
        for s in bases:
            gmap = full_generator_map(s)
            for t in all_ideals(s):
                assert rees_quotient(s, t, gmap) == reference_rees_quotient(s, t, gmap)
                count += 1
        assert count == 294 + len(all_ideals(brandt_b2()))


class TestStructure:
    def test_idempotents(self):
        assert idempotents(trivial_semigroup()) == {0}
        assert idempotents(cyclic_group(3)) == {0}
        b2 = brandt_b2()
        ids = idempotents(b2)
        assert len(ids) == 3 and b2.zero in ids

    def test_green_on_groups(self):
        g = cyclic_group(3)
        cls = green_classes(g)
        full = frozenset(range(3))
        assert cls.r == cls.l == cls.h == cls.d == (full,)

    def test_green_on_left_zero(self):
        s = left_zero(2)
        cls = green_classes(s)
        # oracle: aS^1 = {a}, S^1 a = {a, b}
        for a in range(2):
            assert frozenset({a} | {s.mul(a, b) for b in range(2)}) == {a}
        assert cls.r == (frozenset({0}), frozenset({1}))
        assert cls.l == (frozenset({0, 1}),)
        assert cls.d == (frozenset({0, 1}),)

    def test_green_on_b2(self):
        b2 = brandt_b2()
        # oracle: brute-force principal one-sided ideals
        def rset(a):
            return frozenset({a} | {b2.mul(a, x) for x in range(5)})
        def lset(a):
            return frozenset({a} | {b2.mul(x, a) for x in range(5)})
        cls = green_classes(b2)
        nonzero = [c for c in cls.d if b2.zero not in c]
        assert len(nonzero) == 1 and len(nonzero[0]) == 4
        assert sum(1 for c in cls.r if b2.zero not in c) == 2
        assert sum(1 for c in cls.l if b2.zero not in c) == 2
        for a in range(5):
            for b in range(5):
                same_r = any(a in c and b in c for c in cls.r)
                assert same_r == (rset(a) == rset(b))
                same_l = any(a in c and b in c for c in cls.l)
                assert same_l == (lset(a) == lset(b))

    def test_units_of_group(self):
        g = cyclic_group(3)
        grp, emb, inv = group_of_units(g)
        assert grp.order == 3 and set(emb) == {0, 1, 2}

    def test_units_of_lifted_left_zero(self):
        m = adjoin_identity(left_zero(2))
        grp, emb, inv = group_of_units(m)
        assert grp.order == 1 and emb == (m.identity,)

    def test_units_of_c2_with_zero(self):
        m = adjoin_zero(cyclic_group(2))  # keeps the designated identity
        grp, emb, inv = group_of_units(m)
        assert grp.order == 2 and m.zero not in emb  # 0 is not a unit
        assert are_isomorphic(grp, cyclic_group(2))

    def test_units_needs_identity(self):
        with pytest.raises(NoIdentity):
            group_of_units(left_zero(2))

    def test_maximal_subgroup_of_group(self):
        g = cyclic_group(3)
        grp, emb = maximal_subgroup(g, 0)
        assert are_isomorphic(grp, g)

    def test_maximal_subgroup_of_b2(self):
        b2 = brandt_b2()
        e = sorted(x for x in idempotents(b2) if x != b2.zero)[0]
        grp, emb = maximal_subgroup(b2, e)
        assert grp.order == 1

    def test_maximal_subgroup_rees_over_c2(self):
        m, rs = rees_matrix(cyclic_group(2), 1, 1, sandwich([[1]]), True)
        e = next(x for x in idempotents(m) if x != m.zero)
        grp, emb = maximal_subgroup(m, e)
        assert are_isomorphic(grp, cyclic_group(2))

    def test_maximal_subgroup_needs_idempotent(self):
        with pytest.raises(NotIdempotent):
            maximal_subgroup(cyclic_group(2), 1)


class TestCompletelyZeroSimple:
    def brute_force_ideals(self, s):
        out = []
        for r in range(1, s.order + 1):
            for sub in itertools.combinations(range(s.order), r):
                if is_ideal(s, frozenset(sub)):
                    out.append(frozenset(sub))
        return out

    def test_b2_by_ideal_enumeration(self):
        b2 = brandt_b2()
        ideals = self.brute_force_ideals(b2)
        assert sorted(map(sorted, ideals)) == [list(range(5)), [b2.zero]]
        assert is_completely_zero_simple(b2)

    def test_all_ideals_matches_brute_force(self):
        for s in (brandt_b2(), adjoin_zero(cyclic_group(2)), null_semigroup(3),
                  *(s for n in range(1, 5) for s in enumerate_semigroups(n))):
            assert all_ideals(s) == self.brute_force_ideals(s)

    def test_null_semigroup_fails_square_clause(self):
        assert not is_completely_zero_simple(null_semigroup(2))

    def test_c2_with_zero(self):
        assert is_completely_zero_simple(adjoin_zero(cyclic_group(2)))

    def test_needs_zero(self):
        with pytest.raises(NoZero):
            is_completely_zero_simple(cyclic_group(2))


class TestUnitaryPredicates:
    def test_whole_semigroup(self):
        for s in (cyclic_group(3), left_zero(2)):
            t = frozenset(range(s.order))
            assert is_right_unitary(s, t)
            assert is_pseudo_right_unitary(s, t)
            assert is_weakly_pru(s, t)

    def test_s_in_s_zero_is_right_unitary(self):
        s = cyclic_group(2)
        s0 = adjoin_zero(s)
        t = frozenset(range(s.order))
        assert is_right_unitary(s0, t)
        assert is_pseudo_right_unitary(s0, t)
        assert is_weakly_pru(s0, t)

    def test_rees_column_is_pseudo_right_unitary(self):
        # the column subsemigroup at an admissible position
        c2 = cyclic_group(2)
        p = sandwich([[0, 1], [1, 0]])
        m, rs = rees_matrix(c2, 2, 2, p, False)
        t = frozenset(rs.encode(0, g, 0) for g in range(2))
        assert is_pseudo_right_unitary(m, t)
        assert is_weakly_pru(m, t)

    def test_not_a_subsemigroup_raises(self):
        b2 = brandt_b2()
        nonzero_non_idem = [x for x in range(5)
                            if x != b2.zero and b2.mul(x, x) == b2.zero]
        with pytest.raises(NotASubsemigroup):
            is_right_unitary(b2, {nonzero_non_idem[0]})

    def test_implications_on_enumerated_pairs(self):
        # right unitary implies both weaker forms; pseudo does NOT imply
        # weakly in general (see the documented counterexample below)
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                for t in all_subsemigroups(s):
                    ru = is_right_unitary(s, t)
                    if ru:
                        assert is_pseudo_right_unitary(s, t)
                        assert is_weakly_pru(s, t)

    def test_weakly_pru_matches_the_definition_up_to_order_four(self):
        # the gated predicate, its kernel and the tuple-set form agree with
        # the definition on every pair
        verdicts = [(reference_weakly_pru(s, t), is_weakly_pru(s, t),
                     semigroup._weakly_pru(s.table, t), pair_set_weakly_pru(s, t))
                    for n in range(1, 5) for s in enumerate_semigroups(n)
                    for t in all_subsemigroups(s)]
        assert len(verdicts) == 34019
        assert all(len(set(v)) == 1 for v in verdicts)
        assert sum(v[0] for v in verdicts) == 26056

    def test_pseudo_does_not_imply_weakly(self):
        s = make_semigroup(None, ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
        t = frozenset({0, 2})
        assert is_subsemigroup(s, t)
        assert is_pseudo_right_unitary(s, t)
        assert not is_weakly_pru(s, t)


class TestEnumeration:
    def brute_force_count(self, n):
        count = 0
        for flat in itertools.product(range(n), repeat=n * n):
            table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            count += brute_force_associative(table)
        return count

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 8), (3, 113)])
    def test_counts_against_brute_force(self, n, expected):
        assert self.brute_force_count(n) == expected
        assert sum(1 for _ in enumerate_semigroups(n)) == expected

    def test_all_yielded_tables_are_associative(self):
        for s in enumerate_semigroups(3):
            assert brute_force_associative(s.table)

    def test_order_four_count(self):
        assert sum(1 for _ in enumerate_semigroups(4)) == 3492

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            next(enumerate_semigroups(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_tables_in_the_same_order_as_the_full_recheck(self, n):
        assert [s.table for s in enumerate_semigroups(n)] == \
            list(reference_enumerate_tables(n))


class TestIdealsAndSubsemigroupsUpToOrderFour:
    @pytest.fixture(scope="class")
    def semigroups(self):
        return [s for n in range(1, 5) for s in enumerate_semigroups(n)]

    def test_principal_ideals(self, semigroups):
        for s in semigroups:
            for a in range(s.order):
                assert semigroup.principal_ideal(s, a) == reference_principal_ideal(s, a)

    def test_all_subsemigroups(self, semigroups):
        found = [semigroup.all_subsemigroups(s) for s in semigroups]
        assert found == [list(all_subsemigroups(s)) for s in semigroups]
        assert sum(map(len, found)) == 34019

    def test_all_subsemigroups_of_the_order_four_monoids_and_zero_extensions(
            self, semigroups):
        for s in semigroups[-3492:]:
            for ext in (adjoin_identity(s), adjoin_zero(s)):
                assert semigroup.all_subsemigroups(ext) == list(all_subsemigroups(ext))

    def test_all_subsemigroups_of_the_default_corpus_rees_matrix_semigroups(self):
        # one Rees matrix semigroup for each base, I x J, zero and zero
        # pattern of P in the default semitorees, semitoreeszero and
        # unit-sandwich corpora; orders 1 to 13
        seen = set()
        for tag, zero in (("semitorees", False), ("semitoreeszero", True),
                          ("unit-sandwich", True)):
            for _iid, (_tag, (s, _g, ic, jc, p, *_)) in iter_instances(tag):
                key = (s.labels, ic, jc, zero,
                       tuple(v is None for row in p.entries for v in row))
                if key not in seen:
                    seen.add(key)
                    m, _ = rees_matrix(s, ic, jc, p, zero)
                    assert semigroup.all_subsemigroups(m) == list(all_subsemigroups(m))
        assert len(seen) == 86

    def test_green_classes_are_the_union_find_classes(self, semigroups):
        # every table of order <= 4, its S^1 and S^0, and the corpus Rees
        # matrix semigroups (orders 1 to 13)
        rees = corpus_rees_semigroups()
        assert len(rees) == 550
        checked = 0
        for s in semigroups:
            for t in (s, adjoin_identity(s), adjoin_zero(s)):
                assert green_classes(t) == reference_green_classes(t)
                checked += 1
        for m in rees:
            assert green_classes(m) == reference_green_classes(m)
            checked += 1
        assert checked == 3 * 3614 + 550

    def test_one_subset_is_one_frozenset_across_the_semigroups_of_an_order(
            self, semigroups):
        first, second = (semigroup.all_subsemigroups(s) for s in semigroups[-2:])
        by_value = {t: t for t in first}
        common = [u for u in second if u in by_value]
        assert common and all(by_value[u] is u for u in common)

    def test_listing_the_subsemigroup_corpus_runs_no_gate(self, monkeypatch):
        calls = []
        gate = semigroup._subsemigroup_set
        monkeypatch.setattr(semigroup, "_subsemigroup_set",
                            lambda s, t: calls.append(t) or gate(s, t))
        assert sum(1 for _ in iter_instances("subsemigroup", max_order=3)) > 0
        assert calls == []
        is_weakly_pru(cyclic_group(2), {0})  # the gate is still at the boundary
        assert calls == [{0}]


class TestGeneratorMaps:
    def test_full_map(self):
        s = cyclic_group(3)
        gm = full_generator_map(s)
        assert gm.evaluate((1, 1)) == 2

    def test_single_generator_of_c3(self):
        gm = generator_map(cyclic_group(3), ["g"])
        assert gm.evaluate((0, 0, 0)) == 0

    def test_not_generating(self):
        with pytest.raises(NotGenerating):
            generator_map(cyclic_group(3), ["e"])

    def test_right_products_reach_what_two_sided_products_reach(self):
        # the two-sided search is the reference, on every table of order at
        # most 3 and every nonempty generator subset, as a monoid map too
        # where the table has an identity
        def two_sided(s, image, start):
            reached, frontier = set(start), list(start)
            while frontier:
                a = frontier.pop()
                for g in image:
                    for p in (s.mul(a, g), s.mul(g, a)):
                        if p not in reached:
                            reached.add(p)
                            frontier.append(p)
            return len(reached) == s.order

        cases = 0
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                ident = next((e for e in range(n) if all(
                    s.mul(e, a) == a == s.mul(a, e) for a in range(n))), None)
                maps = [(s, False)]
                if ident is not None:
                    maps.append((make_semigroup(s.labels, s.table, identity=ident), True))
                for image in itertools.chain.from_iterable(
                        itertools.combinations(range(n), r) for r in range(1, n + 1)):
                    for t, monoid in maps:
                        start = set(image) | ({t.identity} if monoid else set())
                        try:
                            semigroup.GeneratorMap(t.labels[:len(image)], t, image, monoid)
                        except NotGenerating:
                            assert not two_sided(t, image, start)
                        else:
                            assert two_sided(t, image, start)
                        cases += 1
        assert cases == 1060

    def test_empty_word_needs_monoid(self):
        gm = generator_map(cyclic_group(3), ["g"])
        with pytest.raises(ValueError):
            gm.evaluate(())
        from reesloop.semigroup import lift_to_monoid
        assert lift_to_monoid(gm).evaluate(()) == 3


class TestSubsemigroupExtraction:
    def test_embedding_table(self):
        s0 = adjoin_zero(cyclic_group(2))
        sub, emb = subsemigroup(s0, {0, 1})
        assert are_isomorphic(sub, cyclic_group(2))
        assert emb == (0, 1)


class TestTextFormat:
    def test_roundtrip(self):
        for s in (cyclic_group(3), brandt_b2(), adjoin_identity(left_zero(2))):
            text = format_semigroup(s)
            back = parse_semigroup_text(text)
            assert back == s

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_semigroup_text("2\na b\na a\n")
        assert exc.value.line == 3

    def test_bad_label_in_row(self):
        with pytest.raises(ParseError) as exc:
            parse_semigroup_text("2\na b\na c\nb a\n")
        assert exc.value.line == 3

    # the right-zero table a b / a b: b is no zero and a no identity
    @pytest.mark.parametrize("text, line, message", [
        ("1\ne\ne\nzero e\nzero e\n", 5, "repeated zero line"),
        ("1\ne\ne\nidentity e\n\nidentity e\n", 6, "repeated identity line"),
        ("2\na b\na b\na b\n\nzero b\n", 6, "element b is not a zero"),
        ("2\na b\na b\na b\nzero b\nidentity a\n", 5, "element b is not a zero"),
        ("2\na b\na b\na b\nidentity a\n", 5, "element a is not an identity"),
        ("2\na b\nb a\na a\nzero a\n", 1, "associativity fails at triple (0,0,1)"),
    ])
    def test_zero_or_identity_line_error_is_reported_at_its_line(self, text, line,
                                                                 message):
        with pytest.raises(ParseError) as exc:
            parse_semigroup_text(text)
        assert str(exc.value) == f"Parse error at line {line}: {message}"


def _c2_rees():
    return rees_matrix(cyclic_group(2), 1, 1, sandwich([[0]]), False)[1]


# (call, exception type, message): every input check of this module that no
# other test reaches
INPUT_CHECKS = [
    pytest.param(lambda: FiniteSemigroup((), ()), SemigroupError,
                 "a semigroup needs at least one element", id="no-elements"),
    pytest.param(lambda: FiniteSemigroup(("a", "a"), ((0, 0), (0, 0))), SemigroupError,
                 "labels must be distinct", id="repeated-labels"),
    pytest.param(lambda: FiniteSemigroup(("a b",), ((0,),)), SemigroupError,
                 "bad label 'a b'", id="bad-label"),
    pytest.param(lambda: FiniteSemigroup(("a", "b"), ((0, 0),)), IndexOutOfRange,
                 "table is not square", id="too-few-rows"),
    pytest.param(lambda: FiniteSemigroup(("a", "b"), ((0, 0), (0,))), IndexOutOfRange,
                 "table is not square", id="short-row"),
    pytest.param(lambda: FiniteSemigroup(("a",), ((1,),)), IndexOutOfRange,
                 "table entry 1 out of range", id="entry-out-of-range"),
    pytest.param(lambda: FiniteSemigroup(("a",), ((0,),), zero=1), IndexOutOfRange,
                 "zero index 1 out of range", id="zero-out-of-range"),
    pytest.param(lambda: FiniteSemigroup(("a",), ((0,),), identity=-1), IndexOutOfRange,
                 "identity index -1 out of range", id="identity-out-of-range"),
    pytest.param(lambda: GeneratorMap(("x",), cyclic_group(2), (0, 1)), SemigroupError,
                 "alphabet and image sizes differ", id="map-sizes-differ"),
    pytest.param(lambda: GeneratorMap(("x", "x"), cyclic_group(2), (0, 1)), SemigroupError,
                 "alphabet symbols must be distinct", id="map-repeated-symbols"),
    pytest.param(lambda: GeneratorMap(("x",), cyclic_group(2), (2,)), IndexOutOfRange,
                 "image index 2 out of range", id="map-image-out-of-range"),
    pytest.param(lambda: GeneratorMap(("x",), left_zero(1), (0,), monoid=True), NoIdentity,
                 "monoid generator map needs a designated identity", id="monoid-map-no-identity"),
    pytest.param(lambda: full_generator_map(cyclic_group(3)).evaluate((-1,)), IndexOutOfRange,
                 "letter -1 out of range", id="evaluate-negative-letter"),
    pytest.param(lambda: full_generator_map(cyclic_group(3)).evaluate((0, 3)), IndexOutOfRange,
                 "letter 3 out of range", id="evaluate-letter-too-large"),
    pytest.param(lambda: sandwich([]), SemigroupError,
                 "sandwich matrix must be nonempty", id="sandwich-empty"),
    pytest.param(lambda: SandwichMatrix(2, 2, ((0, 0), (0,))), SemigroupError,
                 "sandwich matrix shape mismatch", id="sandwich-ragged"),
    pytest.param(lambda: sandwich([[-1]]), IndexOutOfRange,
                 "bad sandwich entry -1", id="sandwich-bad-entry"),
    pytest.param(lambda: sandwich([[True]]), IndexOutOfRange,
                 "bad sandwich entry True", id="sandwich-bool-entry"),
    pytest.param(lambda: sandwich([[0, False]]), IndexOutOfRange,
                 "bad sandwich entry False", id="sandwich-false-entry"),
    pytest.param(lambda: ReesStructure(cyclic_group(2), 2, 2, sandwich([[0]]), False),
                 SemigroupError, "sandwich matrix must be 2x2", id="structure-wrong-shape"),
    pytest.param(lambda: ReesStructure(cyclic_group(2), 1, 1, sandwich([[ZERO]]), False),
                 ZeroEntryWithoutZero, "ZERO entry in a zero-free construction",
                 id="structure-zero-entry-without-zero"),
    pytest.param(lambda: ReesStructure(cyclic_group(2), 1, 1, sandwich([[2]]), True),
                 IndexOutOfRange, "sandwich entry 2 out of range",
                 id="structure-entry-too-large"),
    pytest.param(lambda: rees_matrix(cyclic_group(2), 2, 1, sandwich([[0]]), False),
                 SemigroupError, "sandwich matrix must be 1x2", id="rees-wrong-shape"),
    pytest.param(lambda: rees_matrix(cyclic_group(2), 1, 1, sandwich([[2]]), False),
                 IndexOutOfRange, "sandwich entry 2 out of range", id="rees-entry-too-large"),
    pytest.param(lambda: rees_quotient(brandt_b2(), {4}, full_generator_map(cyclic_group(2))),
                 SemigroupError, "the generator map is not onto S",
                 id="quotient-map-onto-another-semigroup"),
    pytest.param(lambda: _c2_rees().encode(0, 2, 0), IndexOutOfRange,
                 "bad triple (0,2,0)", id="encode-out-of-range"),
    pytest.param(lambda: _c2_rees().decode(2), IndexOutOfRange,
                 "bad element index 2", id="decode-out-of-range"),
    pytest.param(lambda: green_classes(cyclic_group(2)).class_of("r", 2), IndexOutOfRange,
                 "element 2 not found", id="class-of-unknown"),
    pytest.param(lambda: parse_semigroup_text(" \n"), ParseError,
                 "Parse error at line 1: empty table file", id="parse-empty"),
    pytest.param(lambda: parse_semigroup_text("two\n"), ParseError,
                 "Parse error at line 1: expected element count, got 'two'", id="parse-count-nan"),
    pytest.param(lambda: parse_semigroup_text("0\n"), ParseError,
                 "Parse error at line 1: element count must be positive", id="parse-count-zero"),
    pytest.param(lambda: parse_semigroup_text("2\na\na a\na a\n"), ParseError,
                 "Parse error at line 2: expected 2 labels, got 1", id="parse-label-count"),
    pytest.param(lambda: parse_semigroup_text("2\na a\na a\na a\n"), ParseError,
                 "Parse error at line 2: duplicate labels", id="parse-repeated-labels"),
    pytest.param(lambda: parse_semigroup_text("1\ne\ne\ne\n"), ParseError,
                 "Parse error at line 4: unexpected line 'e'", id="parse-stray-line"),
    pytest.param(lambda: parse_semigroup_text("1\ne\ne\nidentity f\n"), ParseError,
                 "Parse error at line 4: unknown label 'f'", id="parse-unknown-mark"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS)
def test_input_check_raises_its_type_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc and str(err.value) == message


def test_a_subsemigroup_can_fail_to_be_pseudo_right_unitary():
    """In B2, T = {(1,e,2), 0}: a = (1,e,1) keeps both elements of T inside
    T, and no b in T acts on them as a does."""
    b2 = brandt_b2()
    t = frozenset({1, b2.zero})
    assert is_subsemigroup(b2, t)
    assert not is_pseudo_right_unitary(b2, t)
    assert not is_weakly_pru(b2, t) and not is_right_unitary(b2, t)

def reference_is_morphism(src, dst, phi):
    for a in range(src.order):
        for b in range(src.order):
            if dst.mul(phi[a], phi[b]) != phi[src.mul(a, b)]:
                return False
    return True


def break_morphism_check(monkeypatch, module):
    """Make module's _is_morphism judge, in place of the map it is handed
    (which must be a morphism), that map with one image changed: the first
    change the brute-force reference rejects.  Returns the maps handed in."""
    real = semigroup._is_morphism
    handed = []

    def check(src, dst, phi):
        assert reference_is_morphism(src, dst, phi)
        handed.append(tuple(phi))
        for a, v in itertools.product(range(src.order), range(dst.order)):
            bad = list(phi)
            bad[a] = v
            if not reference_is_morphism(src, dst, bad):
                return real(src, dst, bad)
        raise AssertionError("no single change breaks the map")

    monkeypatch.setattr(module, "_is_morphism", check)
    return handed


class TestGates:
    def test_is_morphism_is_the_brute_force_check_on_every_self_map(self):
        checked = 0
        for n in (1, 2, 3):
            for s in enumerate_semigroups(n):
                for phi in itertools.product(range(n), repeat=n):
                    assert (semigroup._is_morphism(s, s, phi)
                            == reference_is_morphism(s, s, phi))
                    checked += 1
        assert checked == 1 + 8 * 4 + 113 * 27

    def test_isomorphism_is_the_brute_force_search_up_to_order_three(self):
        pairs = found = 0
        for n in (1, 2, 3):
            tables = list(enumerate_semigroups(n))
            perms = list(itertools.permutations(range(n)))
            for s1, s2 in itertools.product(tables, repeat=2):
                iso = isomorphism(s1, s2)
                assert (iso is not None) == any(reference_is_morphism(s1, s2, p)
                                                for p in perms)
                if iso is not None:
                    assert sorted(iso) == list(range(n))
                    assert reference_is_morphism(s1, s2, iso)
                    found += 1
                pairs += 1
        assert (pairs, found) == (1 + 8 * 8 + 113 * 113, 620)

    def test_isomorphism_finds_a_random_relabelling_of_each_order_four_table(self):
        rng = random.Random(4)
        for s in enumerate_semigroups(4):
            perm = rng.sample(range(4), 4)
            table = [[0] * 4 for _ in range(4)]
            for a, b in itertools.product(range(4), repeat=2):
                table[perm[a]][perm[b]] = perm[s.mul(a, b)]
            t = make_semigroup(None, table)
            iso = isomorphism(s, t)
            assert iso is not None and sorted(iso) == [0, 1, 2, 3]
            assert reference_is_morphism(s, t, iso)
            assert iso == reference_isomorphism(s, t)

    def test_isomorphism_is_the_backtracking_search_up_to_order_three(self):
        # every ordered pair of tables of orders 1 to 3, mixed orders included
        tables = [s for n in (1, 2, 3) for s in enumerate_semigroups(n)]
        pairs = found = 0
        for s1, s2 in itertools.product(tables, repeat=2):
            iso = isomorphism(s1, s2)
            assert iso == reference_isomorphism(s1, s2)
            found += iso is not None
            pairs += 1
        assert (pairs, found) == (122 * 122, 620)

    @pytest.mark.parametrize("gate", [subsemigroup, is_right_unitary,
                                      is_pseudo_right_unitary, is_weakly_pru])
    def test_every_subset_taker_raises_the_three_subset_errors(self, gate):
        b2 = brandt_b2()
        nilpotent = next(x for x in range(b2.order)
                         if x != b2.zero and b2.mul(x, x) == b2.zero)
        with pytest.raises(EmptySubset, match=r"^subset is empty$"):
            gate(b2, set())
        with pytest.raises(IndexOutOfRange, match=r"^subset element 5 out of range$"):
            gate(b2, {b2.zero, b2.order})
        with pytest.raises(NotASubsemigroup, match=r"^\[\d\] is not a subsemigroup$"):
            gate(b2, {nilpotent})
