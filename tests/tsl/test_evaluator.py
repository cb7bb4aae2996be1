"""Tests for TSL evaluation semantics (Section 2)."""

import pytest

from repro.errors import FusionConflictError, TslError
from repro.logic.terms import Constant, fn
from repro.oem import build_database, identical, obj, ref
from repro.tsl import (body_assignments, evaluate, evaluate_program,
                       parse_query)


@pytest.fixture
def people():
    return build_database("db", [
        obj("person", [obj("gender", "female", oid="g1"),
                       obj("name", "ann", oid="n1"),
                       obj("age", 31, oid="a1")], oid="p1"),
        obj("person", [obj("gender", "male", oid="g2"),
                       obj("name", "bob", oid="n2")], oid="p2"),
    ])


class TestQ1Semantics:
    """The worked example of Section 2."""

    def test_answer_shape(self, people):
        q = parse_query(
            "<f(P) female {<f2(X) Y Z>}> :- "
            "<P person {<G gender female> <X Y Z>}>@db")
        answer = evaluate(q, people)
        # One female person; her three subobjects are fused into f(p1).
        assert len(answer.roots) == 1
        root = answer.root_objects()[0]
        assert root.oid == fn("f", Constant("p1"))
        assert root.label == "female"
        assert sorted((c.label, c.value) for c in root.value) == [
            ("age", 31), ("gender", "female"), ("name", "ann")]

    def test_oids_are_terms_over_bindings(self, people):
        q = parse_query(
            "<f(P) female {<f2(X) Y Z>}> :- "
            "<P person {<G gender female> <X Y Z>}>@db")
        answer = evaluate(q, people)
        child_oids = {c.oid for c in answer.root_objects()[0].value}
        assert fn("f2", Constant("n1")) in child_oids


class TestMatching:
    def test_top_level_matches_roots_only(self):
        db = build_database("db", [obj("a", [obj("b", "v", oid="inner")])])
        q = parse_query("<f(X) found V> :- <X b V>@db")
        # "b" objects exist but are not roots: no match.
        assert len(evaluate(q, db).roots) == 0

    def test_label_variable(self, people):
        q = parse_query("<f(X) lab L> :- <P person {<X L V>}>@db")
        answer = evaluate(q, people)
        labels = {r.value for r in answer.root_objects()}
        assert labels == {"gender", "name", "age"}

    def test_constant_value_filter(self, people):
        q = parse_query("<f(P) hit 1> :- <P person {<G gender male>}>@db")
        answer = evaluate(q, people)
        assert [r.oid for r in answer.root_objects()] == \
            [fn("f", Constant("p2"))]

    def test_two_patterns_may_match_same_child(self, people):
        q = parse_query(
            "<f(P) x 1> :- <P person {<A gender V> <B gender W>}>@db")
        assignments = body_assignments(parse_query(
            "<f(P) x 1> :- <P person {<A gender V> <B gender W>}>@db"),
            people)
        # A and B can bind to the same gender object.
        assert len(assignments) == 2  # one per person
        assert len(evaluate(q, people).roots) == 2

    def test_join_across_conditions(self, people):
        q = parse_query(
            "<f(P) x 1> :- <P person {<G gender female>}>@db AND "
            "<P person {<A age 31>}>@db")
        assert len(evaluate(q, people).roots) == 1

    def test_join_on_value_variable(self):
        db = build_database("db", [
            obj("a", [obj("k", "shared")], oid="x1"),
            obj("b", [obj("k", "shared")], oid="x2"),
            obj("b", [obj("k", "other")], oid="x3"),
        ])
        q = parse_query("<f(A,B) pair V> :- "
                        "<A a {<K1 k V>}>@db AND <B b {<K2 k V>}>@db")
        answer = evaluate(q, db)
        assert [str(r.oid) for r in answer.root_objects()] == ["f(x1,x2)"]

    def test_empty_set_pattern_matches_any_set(self):
        db = build_database("db", [
            obj("a", [], oid="empty"),
            obj("a", [obj("x", 1)], oid="full"),
            obj("a", "atomic-one", oid="atom"),
        ])
        q = parse_query("<f(P) isset 1> :- <P a {}>@db")
        oids = {str(r.oid) for r in evaluate(q, db).root_objects()}
        assert oids == {"f(empty)", "f(full)"}

    def test_bound_oid_fast_path(self, people):
        q = parse_query("<f(P) x A> :- "
                        "<P person {<G gender female>}>@db AND "
                        "<P person {<X age A>}>@db")
        answer = evaluate(q, people)
        assert [r.value for r in answer.root_objects()] == [31]

    def test_ground_oid_condition(self, people):
        q = parse_query("<f(X) x V> :- <p1 person {<X name V>}>@db")
        assert len(evaluate(q, people).roots) == 1

    def test_unknown_source(self, people):
        q = parse_query("<f(P) x V> :- <P person V>@nowhere")
        with pytest.raises(TslError, match="nowhere"):
            evaluate(q, {"db": people})


class TestSetValues:
    def test_value_variable_binds_set_value(self, people):
        q = parse_query("<f(P) copy V> :- <P person V>@db")
        answer = evaluate(q, people)
        # The subgraphs hang off the constructed nodes with source oids.
        root = next(r for r in answer.root_objects()
                    if r.oid == fn("f", Constant("p1")))
        assert sorted(c.label for c in root.value) == \
            ["age", "gender", "name"]
        assert Constant("n1") in {c.oid for c in root.value}

    def test_set_values_equal_by_members(self):
        # Two distinct set objects with identical member sets are equal
        # values: a shared variable joins them.
        db = build_database("db", [
            obj("a", [ref("s1")], oid="x1"),
            obj("b", [ref("s1")], oid="x2"),
        ], extra=[obj("inner", "v", oid="s1")])
        q = parse_query("<f(A,B) same 1> :- <A a V>@db AND <B b V>@db")
        assert len(evaluate(q, db).roots) == 1

    def test_copy_of_cyclic_subgraph(self):
        db = build_database("db", [
            obj("top", [obj("loop", [ref("t")], oid="l1")], oid="t"),
        ])
        q = parse_query("<f(P) copy V> :- <P top V>@db")
        answer = evaluate(q, db)
        assert len(answer.roots) == 1
        # The cyclic source subgraph hangs off the answer.
        assert Constant("l1") in set(answer.oids())
        assert Constant("t") in set(answer.oids())


class TestFusion:
    def test_fusion_of_set_values(self, people):
        q = parse_query(
            "<f(G) by-gender {<i(P) person 1>}> :- "
            "<P person {<X gender G>}>@db")
        answer = evaluate(q, people)
        # Two persons, two genders here: each group has one member.
        assert len(answer.roots) == 2

    def test_fusion_groups_multiple_members(self):
        db = build_database("db", [
            obj("person", [obj("dept", "db")], oid="e1"),
            obj("person", [obj("dept", "db")], oid="e2"),
            obj("person", [obj("dept", "os")], oid="e3"),
        ])
        q = parse_query(
            "<f(D) group {<i(P) member 1>}> :- "
            "<P person {<X dept D>}>@db")
        answer = evaluate(q, db)
        by_size = sorted(len(r.value) for r in answer.root_objects())
        assert by_size == [1, 2]

    def test_conflicting_atomic_fusion_raises(self):
        db = build_database("db", [
            obj("person", [obj("x", 1)], oid="e1"),
        ])
        rules = [
            parse_query("<f(P) v 1> :- <P person {<X x 1>}>@db"),
            parse_query("<f(P) v 2> :- <P person {<X x 1>}>@db"),
        ]
        with pytest.raises(FusionConflictError):
            evaluate_program(rules, db)

    def test_conflicting_label_fusion_raises(self):
        db = build_database("db", [obj("person", [obj("x", 1)], oid="e1")])
        rules = [
            parse_query("<f(P) a 1> :- <P person {<X x 1>}>@db"),
            parse_query("<f(P) b 1> :- <P person {<X x 1>}>@db"),
        ]
        with pytest.raises(FusionConflictError):
            evaluate_program(rules, db)

    def test_atomic_set_conflict_raises(self):
        db = build_database("db", [obj("person", [obj("x", 1)], oid="e1")])
        rules = [
            parse_query("<f(P) v 1> :- <P person {<X x 1>}>@db"),
            parse_query("<f(P) v {<g(P) y 2>}> :- <P person {<X x 1>}>@db"),
        ]
        with pytest.raises(FusionConflictError):
            evaluate_program(rules, db)


class TestPrograms:
    def test_union_fuses_across_rules(self, people):
        rules = [
            parse_query("<f(P) rec {<g1(P) gender G>}> :- "
                        "<P person {<X gender G>}>@db"),
            parse_query("<f(P) rec {<g2(P) name N>}> :- "
                        "<P person {<X name N>}>@db"),
        ]
        answer = evaluate_program(rules, people)
        assert len(answer.roots) == 2
        for root in answer.root_objects():
            assert sorted(c.label for c in root.value) == \
                ["gender", "name"]

    def test_program_equals_single_when_disjoint(self, people):
        q = parse_query("<f(P) x G> :- <P person {<A gender G>}>@db")
        assert identical(evaluate(q, people),
                         evaluate_program([q], people))

    def test_multi_source(self, people):
        other = build_database("db2", [obj("dept", [obj("name", "cs")])])
        q = parse_query("<f(P,D) pair 1> :- "
                        "<P person {<G gender female>}>@db AND "
                        "<D dept {<N name cs>}>@db2")
        answer = evaluate(q, {"db": people, "db2": other})
        assert len(answer.roots) == 1

    def test_empty_result(self, people):
        q = parse_query("<f(P) x 1> :- <P person {<G gender robot>}>@db")
        answer = evaluate(q, people)
        assert len(answer.roots) == 0
        assert len(answer) == 0


class TestBudget:
    """The matcher honours a Budget (checked every 256 candidates)."""

    @staticmethod
    def product(k: int) -> str:
        xs = ",".join(f"X{i}" for i in range(k))
        body = " AND ".join(f"<X{i} n V{i}>@db" for i in range(k))
        return f"<f({xs}) row V0> :- {body}"

    @pytest.fixture
    def wide(self):
        return build_database("db", [obj("n", i, oid=f"o{i}")
                                     for i in range(30)])

    def test_step_budget_stops_a_cross_product(self, wide):
        from repro.errors import BudgetExceededError
        from repro.obs import Budget
        budget = Budget(max_steps=5_000)
        with pytest.raises(BudgetExceededError) as caught:
            evaluate(parse_query(self.product(4)), wide, budget=budget)
        assert caught.value.reason == "steps"
        assert budget.steps <= 5_000 + 256

    def test_roomy_budget_changes_nothing(self, wide):
        from repro.obs import Budget
        query = parse_query(self.product(2))
        budgeted = evaluate(query, wide, budget=Budget(max_steps=10**6))
        assert identical(budgeted, evaluate(query, wide))
        assert len(budgeted.roots) == 30 * 30
