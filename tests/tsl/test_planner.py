"""Tests for the condition-ordering heuristic."""

import time

from repro.oem import identical
from repro.tsl import (condition_score, evaluate, order_conditions,
                       parse_query, plan_report)
from repro.tsl.evaluator import body_assignments
from repro.tsl.planner import live_variables
from repro.workloads import generate_bibliography


class TestOrdering:
    def test_selective_condition_first(self):
        q = parse_query(
            "<f(P) x T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<Y year 1997>}>@db")
        planned = order_conditions(q)
        assert "1997" in str(planned.body[0])

    def test_ground_oid_wins(self):
        q = parse_query(
            "<f(X) x V> :- <P pub {<X a V>}>@db AND "
            "<p1 pub {<Y b W>}>@db")
        planned = order_conditions(q)
        assert "p1" in str(planned.body[0])

    def test_connectivity_preferred(self):
        # After the selective year condition binds P, the connected
        # title condition should come before the unconnected one.
        q = parse_query(
            "<f(P) x T> :- <Q other {<Z zz V9>}>@db AND "
            "<P pub {<X title T>}>@db AND "
            "<P pub {<Y year 1997>}>@db")
        planned = order_conditions(q)
        rendered = [str(c) for c in planned.body]
        assert "1997" in rendered[0]
        assert "title" in rendered[1]

    def test_single_condition_untouched(self):
        q = parse_query("<f(P) x V> :- <P a V>@db")
        assert order_conditions(q) is q

    def test_scores_positive(self):
        q = parse_query("<f(P) x V> :- <P pub {<Y year 1997>}>@db")
        assert condition_score(q.body[0]) > 0

    def test_plan_report_shape(self):
        q = parse_query(
            "<f(P) x T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<Y year 1997>}>@db")
        report = plan_report(q)
        assert len(report) == 2
        assert all(isinstance(score, float) for _, score in report)


class TestLiveVariables:
    def test_head_and_later_conditions_stay_live(self):
        q = parse_query(
            "<f(P) x T> :- <P pub {<Y year 1997>}>@db AND "
            "<Q other {<Z zz V>}>@db AND <P pub {<X title T>}>@db")
        live = [sorted(v.name for v in after)
                for after in live_variables(q)]
        # Y is dead at once; Q, Z and V die with the second condition.
        assert live == [["P", "Q", "T", "V", "X", "Z"], ["P", "T", "X"],
                        ["P", "T"]]

    def test_join_variable_live_until_its_last_use(self):
        q = parse_query(
            "<f(P) x W> :- <P pub {<X author A>}>@db AND "
            "<R person {<N name A>}>@db AND <R person {<M age W>}>@db")
        live = [sorted(v.name for v in after)
                for after in live_variables(q)]
        # X dies at once, A and N after the join, R and M at the end.
        assert live == [["A", "M", "N", "P", "R", "W"],
                        ["M", "P", "R", "W"], ["P", "W"]]


class TestSemanticsAndSpeed:
    def test_reordering_preserves_answers(self):
        db = generate_bibliography(100, seed=3)
        q = parse_query(
            "<f(P) hit T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<B booktitle sigmod>}>@db AND "
            "<P pub {<Y year 1997>}>@db")
        with_planner = evaluate(q, db)
        no_planner_assignments = body_assignments(q, db, reorder=False)
        with_planner_assignments = body_assignments(q, db, reorder=True)
        assert set(no_planner_assignments) == set(with_planner_assignments)
        assert len(with_planner.roots) == len(
            {a for a in with_planner_assignments})

    def test_reordering_not_slower_on_selective_join(self):
        db = generate_bibliography(800, seed=4)
        q = parse_query(
            "<f(P) hit T> :- <P pub {<X title T>}>@db AND "
            "<P pub {<Y year 1997>}>@db AND "
            "<P pub {<B booktitle sigmod>}>@db")
        started = time.perf_counter()
        body_assignments(q, db, reorder=False)
        unplanned = time.perf_counter() - started
        started = time.perf_counter()
        body_assignments(q, db, reorder=True)
        planned = time.perf_counter() - started
        # Generous bound: the planner must never be pathological.
        assert planned < max(4 * unplanned, 0.5)
