import itertools

import pytest

from reesloop.semigroup import (
    BadIdentity,
    BadZero,
    EmptySubset,
    NonAssociative,
    NotASubsemigroup,
    NotGenerating,
    NotIdempotent,
    NoIdentity,
    NoZero,
    OrderTooLarge,
    ParseError,
    ZERO,
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
        from reesloop.semigroup import ZeroEntryWithoutZero
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
        for s in (brandt_b2(), adjoin_zero(cyclic_group(2)), null_semigroup(3)):
            assert sorted(map(sorted, all_ideals(s))) == \
                sorted(map(sorted, self.brute_force_ideals(s)))

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
        verdicts = [is_weakly_pru(s, t) == reference_weakly_pru(s, t)
                    for n in range(1, 5) for s in enumerate_semigroups(n)
                    for t in all_subsemigroups(s)]
        assert len(verdicts) == 34019 and all(verdicts)

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
