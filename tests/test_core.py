"""Dominance relations, plan nodes and the archive."""

import math
import random

import pytest

from moqo.core import MAX_TABLES, Archive, OutputFormat, Plan, strictly_dominates
from reference import approx_dominates, insert, plan_nodes, weakly_dominates


def make_leaf(table=0, cost=(1.0, 1.0), fmt=OutputFormat.PIPELINED, card=10.0):
    return Plan(
        rel=1 << table,
        cost=cost,
        out_card=card,
        fmt=fmt,
        table=table,
        scan_op=0,
    )


class TestDominance:
    def test_weak_examples(self):
        assert weakly_dominates((1.0, 2.0), (1.0, 2.0))
        assert weakly_dominates((1.0, 2.0), (1.0, 3.0))
        assert not weakly_dominates((1.0, 4.0), (2.0, 3.0))

    def test_strict_examples(self):
        assert not strictly_dominates((1.0, 2.0), (1.0, 2.0))
        assert strictly_dominates((1.0, 2.0), (1.0, 3.0))
        assert strictly_dominates((0.5, 2.0), (1.0, 3.0))
        assert not strictly_dominates((1.0, 4.0), (2.0, 3.0))

    def test_approx_examples(self):
        assert approx_dominates((2.0, 2.0), (1.0, 1.0), 2.0)
        assert not approx_dominates((2.1, 2.0), (1.0, 1.0), 2.0)
        assert approx_dominates((1.0, 1.0), (1.0, 1.0), 1.0)

    def test_approx_alpha_one_is_weak(self):
        rng = random.Random(3)
        for _ in range(2000):
            c1 = tuple(rng.uniform(0.5, 4.0) for _ in range(3))
            c2 = tuple(rng.uniform(0.5, 4.0) for _ in range(3))
            assert approx_dominates(c1, c2, 1.0) == weakly_dominates(c1, c2)

    def test_approx_monotone_in_alpha(self):
        rng = random.Random(4)
        for _ in range(2000):
            c1 = tuple(rng.uniform(0.5, 4.0) for _ in range(2))
            c2 = tuple(rng.uniform(0.5, 4.0) for _ in range(2))
            a1 = 1.0 + rng.random() * 2
            a2 = a1 + rng.random() * 2
            if approx_dominates(c1, c2, a1):
                assert approx_dominates(c1, c2, a2)

    def test_strict_implies_weak_not_reverse(self):
        rng = random.Random(5)
        for _ in range(2000):
            c1 = tuple(rng.choice([1.0, 2.0, 3.0]) for _ in range(3))
            c2 = tuple(rng.choice([1.0, 2.0, 3.0]) for _ in range(3))
            if strictly_dominates(c1, c2):
                assert weakly_dominates(c1, c2)
                assert c1 != c2
            if weakly_dominates(c1, c2) and c1 != c2:
                assert strictly_dominates(c1, c2)

    def test_antisymmetry(self):
        rng = random.Random(6)
        for _ in range(2000):
            c1 = tuple(rng.choice([1.0, 2.0]) for _ in range(2))
            c2 = tuple(rng.choice([1.0, 2.0]) for _ in range(2))
            assert not (strictly_dominates(c1, c2) and strictly_dominates(c2, c1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weakly_dominates((1.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            strictly_dominates((1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            approx_dominates((1.0,), (1.0, 2.0), 1.5)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            approx_dominates((1.0,), (1.0,), 0.99)

    def test_alpha_nan_rejected(self):
        with pytest.raises(ValueError):
            approx_dominates((1.0,), (1.0,), math.nan)
        assert approx_dominates((5.0,), (1.0,), math.inf)

    def test_weak_dominance_frequency_matches_half_power(self):
        # independent uniform components: P(all l components <=) = 2^-l
        for l in (1, 2, 3):
            rng = random.Random(100 + l)
            hits = 0
            trials = 100_000
            for _ in range(trials):
                c1 = tuple(rng.random() for _ in range(l))
                c2 = tuple(rng.random() for _ in range(l))
                if weakly_dominates(c1, c2):
                    hits += 1
            assert abs(hits / trials - 0.5**l) < 0.02


class TestPlan:
    def test_leaf_fields(self):
        leaf = make_leaf(table=3)
        assert not leaf.is_join
        assert leaf.table == 3
        assert leaf.rel == 0b1000
        assert list(plan_nodes(leaf)) == [leaf]

    def test_join_fields_and_nodes(self):
        a = make_leaf(0)
        b = make_leaf(1)
        j = Plan(
            rel=0b11,
            cost=(3.0, 3.0),
            out_card=5.0,
            fmt=OutputFormat.PIPELINED,
            outer=a,
            inner=b,
            join_op=1,
        )
        assert j.is_join
        assert j.outer is a and j.inner is b
        seen = list(plan_nodes(j))
        assert seen[0] is j
        assert set(map(id, seen)) == {id(j), id(a), id(b)}

    def test_join_must_be_disjoint(self):
        a = make_leaf(0)
        with pytest.raises(ValueError):
            Plan(
                rel=0b1,
                cost=(1.0,),
                out_card=1.0,
                fmt=OutputFormat.PIPELINED,
                outer=a,
                inner=a,
                join_op=0,
            )

    def test_join_rel_must_be_union(self):
        a = make_leaf(0)
        b = make_leaf(1)
        with pytest.raises(ValueError):
            Plan(
                rel=0b111,
                cost=(1.0,),
                out_card=1.0,
                fmt=OutputFormat.PIPELINED,
                outer=a,
                inner=b,
                join_op=0,
            )

    def test_leaf_rel_must_match_table(self):
        with pytest.raises(ValueError):
            Plan(
                rel=0b11,
                cost=(1.0,),
                out_card=1.0,
                fmt=OutputFormat.PIPELINED,
                table=0,
                scan_op=0,
            )
        with pytest.raises(ValueError):
            Plan(
                rel=0b100,
                cost=(1.0,),
                out_card=1.0,
                fmt=OutputFormat.PIPELINED,
                table=1,
                scan_op=0,
            )

    def test_identity_semantics(self):
        a = make_leaf(0)
        b = make_leaf(0)
        assert a != b
        assert a == a
        assert len({a, b}) == 2


class TestArchive:
    def test_insert_keeps_incomparable(self):
        arc = Archive()
        assert arc.insert(make_leaf(0, cost=(1.0, 4.0)))
        assert arc.insert(make_leaf(1, cost=(4.0, 1.0)))
        assert len(arc) == 2

    def test_insert_rejects_weakly_dominated(self):
        arc = Archive()
        arc.insert(make_leaf(0, cost=(1.0, 1.0)))
        assert not arc.insert(make_leaf(1, cost=(1.0, 2.0)))
        assert not arc.insert(make_leaf(1, cost=(1.0, 1.0)))
        assert len(arc) == 1

    def test_first_plan_wins_exact_ties(self):
        arc = Archive()
        first = make_leaf(0, cost=(2.0, 2.0))
        arc.insert(first)
        assert not arc.insert(make_leaf(1, cost=(2.0, 2.0)))
        assert arc.entries == [first]

    def test_insert_evicts_dominated(self):
        arc = Archive()
        arc.insert(make_leaf(0, cost=(2.0, 4.0)))
        arc.insert(make_leaf(1, cost=(4.0, 2.0)))
        assert arc.insert(make_leaf(2, cost=(2.0, 2.0)))
        assert arc.costs() == [(2.0, 2.0)]

    def test_formats_do_not_interact(self):
        arc = Archive()
        arc.insert(make_leaf(0, cost=(1.0, 1.0), fmt=OutputFormat.PIPELINED))
        assert arc.insert(make_leaf(1, cost=(5.0, 5.0), fmt=OutputFormat.MATERIALIZED))
        assert len(arc) == 2

    def test_random_archive_invariants(self):
        # emulate the archive with a quadratic reference filter
        rng = random.Random(11)
        for trial in range(50):
            arc = Archive()
            inserted = []
            for i in range(60):
                fmt = rng.choice([OutputFormat.PIPELINED, OutputFormat.MATERIALIZED])
                cost = tuple(float(rng.randint(1, 6)) for _ in range(2))
                plan = make_leaf(i % MAX_TABLES, cost=cost, fmt=fmt)
                arc.insert(plan)
                inserted.append(plan)
            expected = []
            for p in inserted:
                if any(
                    q.fmt is p.fmt and weakly_dominates(q.cost, p.cost)
                    for q in expected
                ):
                    continue
                expected = [
                    q
                    for q in expected
                    if not (q.fmt is p.fmt and weakly_dominates(p.cost, q.cost))
                ]
                expected.append(p)
            assert [id(p) for p in arc] == [id(p) for p in expected]
            for p in arc:
                for q in arc:
                    if p is not q and p.fmt is q.fmt:
                        assert not weakly_dominates(p.cost, q.cost)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_insert_matches_naive(self, width):
        # few distinct values force exact ties; inf and nan pin the float
        # semantics of the comparison
        rng = random.Random(width)
        pool = [1.0, 2.0, 3.0, 4.0] * 3 + [math.inf, math.nan]
        for _ in range(100):
            arc = Archive()
            want = []
            for i in range(40):
                fmt = rng.choice([OutputFormat.PIPELINED, OutputFormat.MATERIALIZED])
                cost = tuple(rng.choice(pool) for _ in range(width))
                plan = make_leaf(i % MAX_TABLES, cost=cost, fmt=fmt)
                assert arc.insert(plan) == insert(want, plan)
                assert [id(p) for p in arc] == [id(p) for p in want]

    @pytest.mark.parametrize("alpha", [1.0, 1.5, math.inf])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_admit_matches_reference(self, width, alpha):
        # admit against the reference dominance tests; few distinct values
        # force exact ties, and inf and nan pin the float semantics
        rng = random.Random(f"admit-{width}-{alpha}")
        pool = [1.0, 2.0, 3.0, 4.0] * 3 + [math.inf, math.nan]
        formats = [OutputFormat.PIPELINED, OutputFormat.MATERIALIZED]
        rejected = 0
        for _ in range(100):
            arc = Archive()
            entries = arc.entries
            want = []
            for i in range(40):
                fmt = rng.choice(formats)
                cost = tuple(rng.choice(pool) for _ in range(width))
                before = list(entries)
                admitted = arc.admit(fmt, cost, alpha)
                assert entries is arc.entries
                if any(
                    old.fmt is fmt and approx_dominates(old.cost, cost, alpha)
                    for old in want
                ):
                    assert not admitted
                    rejected += 1
                    assert len(entries) == len(before)
                    assert all(a is b for a, b in zip(entries, before))
                    continue
                assert admitted
                want = [
                    old
                    for old in want
                    if not (old.fmt is fmt and weakly_dominates(cost, old.cost))
                ]
                assert [id(p) for p in entries] == [id(p) for p in want]
                plan = make_leaf(i % MAX_TABLES, cost=cost, fmt=fmt)
                entries.append(plan)
                want.append(plan)
        assert rejected > 0

    def test_admit_alpha_below_one_rejected(self):
        arc = Archive()
        arc.insert(make_leaf(0, cost=(1.0, 2.0)))
        for alpha in (0.5, math.nan):
            with pytest.raises(ValueError):
                arc.admit(OutputFormat.PIPELINED, (2.0, 3.0), alpha)
        assert arc.costs() == [(1.0, 2.0)]

    def test_length_mismatch_rejected(self):
        for other in ((1.0,), (1.0, 2.0, 3.0)):
            arc = Archive()
            arc.insert(make_leaf(0, cost=(1.0, 2.0)))
            with pytest.raises(ValueError):
                arc.insert(make_leaf(1, cost=other))
            # other formats are never compared
            assert arc.insert(make_leaf(1, cost=other, fmt=OutputFormat.MATERIALIZED))
