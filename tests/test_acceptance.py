"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is exact (no tolerances anywhere, every comparison is
set equality or automaton equivalence).
"""

import itertools
import random

from reesloop.cli import iter_instances, run_job
from reesloop.language import (
    HatAlphabet,
    Nfa,
    concat,
    determinize,
    enumerate_words,
    equivalent,
    factor_closure,
    intersect,
    involution_image,
    left_quotient,
    member,
    minimize,
    plus,
    prefix_closure,
    right_quotient,
    shortest_separator,
    star,
    suffix_closure,
    union,
)
from reesloop.loops import loop_automaton, loop_problem
from reesloop.semigroup import (
    cyclic_group,
    enumerate_semigroups,
    full_generator_map,
    generator_map,
    is_completely_zero_simple,
)


def record(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def run_tag(tag, **kw):
    failures = []
    for iid, job in iter_instances(tag, **kw):
        _iid, holds, _line = run_job((iid, job))
        if not holds:
            failures.append(iid)
    return failures


def test_criterion_1_enumeration_oracle():
    counts = {}
    for n in (1, 2, 3):
        brute = 0
        for flat in itertools.product(range(n), repeat=n * n):
            table = [flat[i * n:(i + 1) * n] for i in range(n)]
            brute += all(table[table[a][b]][c] == table[a][table[b][c]]
                         for a in range(n) for b in range(n) for c in range(n))
        counts[n] = (sum(1 for _ in enumerate_semigroups(n)), brute)
    ok = counts == {1: (1, 1), 2: (8, 8), 3: (113, 113)}
    record(1, "semigroup enumeration 1/8/113", ok)


def test_criterion_2_rees_quotient_suite():
    failures = run_tag("rees-quotient", max_order=3)
    record(2, "Rees quotient formula with path-language oracles",
           failures == [])


def test_criterion_3_remove_zero_suite():
    failures = run_tag("remove-zero", max_order=3)
    record(3, "subsemigroup intersection for S inside S^0", failures == [])


def test_criterion_4_adjoin_zero_suite():
    failures = run_tag("adjoin-zero", max_order=3)
    record(4, "adjoin-zero formula", failures == [])


def test_criterion_5_semitorees_suite():
    failures = run_tag("semitorees", bases=("trivial", "c2", "c3"),
                       imax=2, jmax=2, seed=0)
    record(5, "Rees transducer image and Kleene closure (with K=image and "
              "randomized-representative reruns)", failures == [])


def test_criterion_6_semitoreeszero_suite():
    failures = run_tag("semitoreeszero", bases=("trivial", "c2"),
                       imax=2, jmax=2)
    record(6, "Rees-with-zero pipeline incl. quotient isomorphism",
           failures == [])


def test_criterion_7_unit_sandwich_suite():
    failures = run_tag("unit-sandwich", bases=("c2", "c3"), imax=2, jmax=2)
    record(7, "unit sandwich intersection", failures == [])


def test_criterion_8_czeros_suite():
    c2 = cyclic_group(2)
    from reesloop.semigroup import rees_matrix, sandwich, ZERO
    regular_ok = True
    for ents in itertools.product([ZERO, 0, 1], repeat=4):
        p = sandwich([ents[:2], ents[2:]])
        if not p.regular:
            continue
        m0, _ = rees_matrix(c2, 2, 2, p, True)
        regular_ok = regular_ok and is_completely_zero_simple(m0)
    failures = run_tag("czeros")
    roundtrips = run_tag("decompose-roundtrip")
    record(8, "completely zero-simple decomposition and loop correspondence",
           regular_ok and failures == [] and roundtrips == [])


# -- criterion 9: the language engine against set-theoretic oracles ------------

def oracle_simulate(nfa, word):
    """Independent acceptance check: plain set-based closure simulation."""
    eps = {}
    step = {}
    for p, a, q in nfa.transitions:
        (eps if a is None else step).setdefault((p,) if a is None else (p, a),
                                                set()).add(q)

    def closure(states):
        out = set(states)
        todo = list(states)
        while todo:
            p = todo.pop()
            for q in eps.get((p,), ()):
                if q not in out:
                    out.add(q)
                    todo.append(q)
        return out

    cur = closure(nfa.initial)
    for a in word:
        cur = closure({q for p in cur for q in step.get((p, a), ())})
        if not cur:
            return False
    return bool(cur & nfa.final)


def bounded_words(nfa, max_len, budget):
    """Word enumeration with a node budget; None when the budget trips."""
    eps = {}
    step = {}
    for p, a, q in nfa.transitions:
        if a is None:
            eps.setdefault(p, set()).add(q)
        else:
            step.setdefault((p, a), set()).add(q)

    def closure(states):
        out = set(states)
        todo = list(states)
        while todo:
            p = todo.pop()
            for q in eps.get(p, ()):
                if q not in out:
                    out.add(q)
                    todo.append(q)
        return out

    final = set(nfa.final)
    out = []
    level = [((), frozenset(closure(nfa.initial)))]
    nodes = 0
    for length in range(max_len + 1):
        nxt = []
        for w, states in level:
            nodes += 1
            if nodes > budget:
                return None
            if states & final:
                out.append(w)
            if length < max_len:
                for a in range(nfa.alphabet.size):
                    t = closure({q for p in states for q in step.get((p, a), ())})
                    if t:
                        nxt.append((w + (a,), frozenset(t)))
        level = nxt
    return out


def random_nfa(rng, alphabet):
    n = rng.randint(1, 5)
    letters = list(range(alphabet.size))
    trans = set()
    for _ in range(rng.randint(0, 2 * n)):
        a = None if rng.random() < 0.1 else rng.choice(letters)
        trans.add((rng.randrange(n), a, rng.randrange(n)))
    initial = frozenset(rng.sample(range(n), rng.randint(1, n)))
    final = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(alphabet, n, frozenset(trans), initial, final)


def close_under_concat(words6, max_len, with_empty):
    """Concatenations of accepted words, nonempty count unless with_empty."""
    out = set()
    seen = {()}
    current = {()}
    while current:
        nxt = set()
        for w in current:
            for u in words6:
                if u and len(w) + len(u) <= max_len:
                    c = w + u
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
        out.update(nxt)
        current = nxt
    if with_empty or () in words6:
        out.add(())
    return out


def quotient_oracles(a, b, wb12):
    """({w : wr in L(a), r in wb12}, {w : rw in L(a), r in wb12}), |w| <= 6."""
    step = {}
    rstep = {}
    eps = {}
    reps = {}
    for p, x, q in a.transitions:
        if x is None:
            eps.setdefault(p, set()).add(q)
            reps.setdefault(q, set()).add(p)
        else:
            step.setdefault((p, x), set()).add(q)
            rstep.setdefault((q, x), set()).add(p)

    def closure(states, edges):
        out = set(states)
        todo = list(states)
        while todo:
            p = todo.pop()
            for q in edges.get(p, ()):
                if q not in out:
                    out.add(q)
                    todo.append(q)
        return out

    # right quotient: U = states from which some r in wb12 is accepted
    u_states = set()
    for r in wb12:
        cur = closure(set(a.final), reps)
        for x in reversed(r):
            cur = closure({p for q in cur for p in rstep.get((q, x), ())}, reps)
            if not cur:
                break
        else:
            u_states |= cur
    right = set()
    level = [((), frozenset(closure(a.initial, eps)))]
    while level:
        nxt = []
        for w, states in level:
            if states & u_states:
                right.add(w)
            if len(w) < 6:
                for x in range(a.alphabet.size):
                    t = closure({q for p in states for q in step.get((p, x), ())}, eps)
                    if t:
                        nxt.append((w + (x,), frozenset(t)))
        level = nxt
    # left quotient: F = states reached from the initial set by some r
    f_states = set()
    for r in wb12:
        cur = closure(set(a.initial), eps)
        for x in r:
            cur = closure({q for p in cur for q in step.get((p, x), ())}, eps)
            if not cur:
                break
        else:
            f_states |= cur
    left = set()
    level = [((), frozenset(f_states))] if f_states else []
    while level:
        nxt = []
        for w, states in level:
            if states & set(a.final):
                left.add(w)
            if len(w) < 6:
                for x in range(a.alphabet.size):
                    t = closure({q for p in states for q in step.get((p, x), ())}, eps)
                    if t:
                        nxt.append((w + (x,), frozenset(t)))
        level = nxt
    return right, left


def test_criterion_9_language_engine_oracle():
    rng = random.Random(20240817)
    alphabets = [HatAlphabet(("x",)), HatAlphabet(("x", "y"))]
    budget = 60000
    pairs_done = 0
    disagreements = []
    while pairs_done < 500:
        alpha = alphabets[pairs_done % 2]
        a = random_nfa(rng, alpha)
        b = random_nfa(rng, alpha)
        wa10 = bounded_words(a, 10, budget)
        wa14 = bounded_words(a, 14, budget)
        wb12 = bounded_words(b, 12, budget)
        if wa10 is None or wa14 is None or wb12 is None:
            continue  # too dense for the padded oracles; draw another pair
        pairs_done += 1
        wa6 = set(w for w in wa10 if len(w) <= 6)
        wb6 = set(w for w in wb12 if len(w) <= 6)

        def got(x):
            return set(enumerate_words(x, 6))

        checks = {
            "union": (got(union(a, b)), wa6 | wb6),
            "intersect": (got(intersect(a, b)), wa6 & wb6),
            "concat": (got(concat(a, b)),
                       {u + v for u in wa6 for v in wb6 if len(u) + len(v) <= 6}),
            "star": (got(star(a)), close_under_concat(wa6, 6, with_empty=True)),
            "plus": (got(plus(a)), close_under_concat(wa6, 6, with_empty=False)),
            "involution": (got(involution_image(a)),
                           {alpha.bar_word(w) for w in wa6}),
            "prefix": (got(prefix_closure(a)),
                       {w[:k] for w in wa10 for k in range(len(w) + 1) if k <= 6}),
            "suffix": (got(suffix_closure(a)),
                       {w[k:] for w in wa10 for k in range(len(w) + 1)
                        if len(w) - k <= 6}),
            "factor": (got(factor_closure(a)),
                       {w[i:j] for w in wa14 for i in range(len(w) + 1)
                        for j in range(i, min(i + 6, len(w)) + 1)}),
        }
        rq, lq = quotient_oracles(a, b, wb12)
        checks["right_quotient"] = (got(right_quotient(a, b)), rq)
        checks["left_quotient"] = (got(left_quotient(b, a)), lq)
        d = determinize(a)
        m = minimize(d)
        checks["determinize"] = (got(d), wa6)
        checks["minimize"] = (got(m), wa6)
        if minimize(m) != m:
            disagreements.append((pairs_done, "minimize-idempotence"))
        for w in [tuple(rng.randrange(alpha.size) for _ in range(rng.randint(0, 6)))
                  for _ in range(10)]:
            if member(a, w) != oracle_simulate(a, w):
                disagreements.append((pairs_done, "member"))
        eq = equivalent(a, b)
        if eq != (shortest_separator(a, b) is None):
            disagreements.append((pairs_done, "equivalent"))
        if eq and wa6 != wb6:
            disagreements.append((pairs_done, "equivalent-vs-words"))
        if not eq:
            sep = shortest_separator(a, b)
            if oracle_simulate(a, sep) == oracle_simulate(b, sep):
                disagreements.append((pairs_done, "separator"))
        for name, (lhs, rhs) in checks.items():
            if lhs != rhs:
                disagreements.append((pairs_done, name))
    record(9, "language engine vs set-theoretic oracles on 500 NFA pairs",
           disagreements == [])


def test_criterion_10_loop_automaton_sanity():
    ok = True
    for n in (1, 2, 3):
        for s in enumerate_semigroups(n):
            gm = full_generator_map(s)
            lp = loop_automaton(gm)
            ok = ok and equivalent(involution_image(lp), lp)
            # p->q / q->p symmetry for all words up to length 5
            alpha = lp.alphabet
            nstates = lp.n_states
            step = [[0] * nstates for _ in range(alpha.size)]
            for p, a, q in lp.transitions:
                step[a][p] |= 1 << q
            rels = {(): tuple(1 << p for p in range(nstates))}
            frontier = [()]
            for _ in range(5):
                nxt = []
                for w in frontier:
                    rw = rels[w]
                    for a in range(alpha.size):
                        masks = []
                        for p in range(nstates):
                            acc, m = 0, rw[p]
                            while m:
                                low = m & -m
                                acc |= step[a][low.bit_length() - 1]
                                m ^= low
                            masks.append(acc)
                        nw = w + (a,)
                        rels[nw] = tuple(masks)
                        nxt.append(nw)
                frontier = nxt
            for w, masks in rels.items():
                back = rels[alpha.bar_word(w)]
                for p in range(nstates):
                    for q in range(nstates):
                        if bool(masks[p] >> q & 1) != bool(back[q] >> p & 1):
                            ok = False
    c2 = cyclic_group(2)
    lp = loop_problem(generator_map(c2, ["g"]))
    x = lp.alphabet.letter("g")
    xb = lp.alphabet.bar(x)
    ok = ok and member(lp, (x, x, x, xb)) and not member(lp, (xb,))
    record(10, "loop automaton involution closure and path symmetry", ok)
