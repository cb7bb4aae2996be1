"""E13: the Datalog translation agrees with the direct TSL evaluator.

"TSL can be translated to Datalog with function symbols and limited
recursion over a fixed schema" (Section 2).  We evaluate the same queries
through both paths and require identical answers, on hand-written cases
and on randomized (database, query) pairs.

The direct evaluator projects partial assignments onto the variables a
later step still reads (:func:`repro.tsl.planner.live_variables`); the
Datalog path keeps whole body tuples, so the cases with dead variables
and the composed programs below check the projection independently.
"""

import pytest

from repro.logic.translate import (copy_rules, encode_database,
                                   evaluate_via_datalog, translate_rule)
from repro.oem import build_database, identical, obj
from repro.tsl import evaluate, evaluate_program, parse_query
from repro.tsl.planner import live_variables, order_conditions
from repro.workloads import (RandomOemConfig, RandomQueryConfig,
                             generate_random_database, sample_query)


@pytest.fixture
def nested_db():
    return build_database("db", [
        obj("person", [obj("gender", "female"), obj("name", "ann"),
                       obj("age", 31)], oid="p1"),
        obj("person", [obj("gender", "male"), obj("name", "bob")],
            oid="p2"),
        obj("person", [obj("gender", "female"),
                       obj("pubs", [obj("pub", [obj("title", "views")])])],
            oid="p3"),
    ])


CASES = [
    "<f(P) female {<f2(X) Y Z>}> :- "
    "<P person {<G gender female> <X Y Z>}>@db",
    "<f(P) copy V> :- <P person V>@db",
    "<f(P) rec {<g(P) has {<h(X) item W>}>}> :- "
    "<P person {<X name W>}>@db",
    "<f(P) flag yes> :- <P person {<X pubs {<U pub {<T title views>}>}>}>@db",
    "<f(X) const 1> :- <P person {<X age 31>}>@db",
]


@pytest.mark.parametrize("text", CASES)
def test_translation_matches_evaluator(nested_db, text):
    q = parse_query(text)
    direct = evaluate(q, nested_db)
    via = evaluate_via_datalog(q, nested_db)
    assert identical(direct, via)


def test_union_program_conflict_agrees(nested_db):
    from repro.errors import FusionConflictError
    from repro.tsl import evaluate_program
    rules = [
        parse_query("<f(P) person 1> :- <P person {<G gender female>}>@db"),
        parse_query("<f(P) person 2> :- <P person {<A age 31>}>@db"),
    ]
    # p1 satisfies both rules; fusing two different atomic values on the
    # same oid must raise in both evaluation paths.
    with pytest.raises(FusionConflictError):
        evaluate_program(rules, nested_db)
    with pytest.raises(FusionConflictError):
        evaluate_via_datalog(rules, nested_db)


def test_union_program_fusion_agrees(nested_db):
    from repro.tsl import evaluate_program
    rules = [
        parse_query("<f(P) rec {<g1(P) gender G>}> :- "
                    "<P person {<X gender G>}>@db"),
        parse_query("<f(P) rec {<g2(P) name N>}> :- "
                    "<P person {<X name N>}>@db"),
    ]
    direct = evaluate_program(rules, nested_db)
    via = evaluate_via_datalog(rules, nested_db)
    assert identical(direct, via)


def test_copy_rules_are_well_formed():
    assert len(copy_rules()) == 7


def test_encode_database_covers_reachable(nested_db):
    facts = encode_database(nested_db)
    predicates = {f.predicate for f in facts}
    assert {"root", "label", "atomic", "isset", "member",
            "value_of", "setvalue", "atomvalue"} <= predicates


def test_translate_rule_produces_body_predicate():
    q = parse_query("<f(P) r V> :- <P person V>@db")
    translation = translate_rule(q, index=3)
    assert translation.body_predicate == "q3_body"
    heads = {r.head.predicate for r in translation.rules}
    assert "ans_root" in heads and "ans_label" in heads


@pytest.mark.parametrize("db_seed", range(4))
@pytest.mark.parametrize("q_seed", range(3))
def test_random_agreement(db_seed, q_seed):
    db = generate_random_database(
        RandomOemConfig(roots=3, max_depth=3, max_fanout=3), seed=db_seed)
    q = sample_query(db, RandomQueryConfig(conditions=2, max_depth=3),
                     seed=q_seed)
    direct = evaluate(q, db)
    via = evaluate_via_datalog(q, db)
    assert identical(direct, via)


def projects_away_a_variable(rule) -> bool:
    """Whether the evaluator drops some bound variable mid-body."""
    planned = order_conditions(rule)
    bound = set()
    for condition, live in zip(planned.body, live_variables(planned)):
        bound.update(condition.variables())
        if bound - live:
            return True
    return False


PROJECTED_CASES = [
    # The second condition only filters: nothing it binds is read later.
    "<f(P) named {<g(P) n N>}> :- <P person {<X name N>}>@db AND "
    "<Q person {<Y gender female>}>@db",
    # Two unconnected conditions, both read by the head.
    "<f(P,Q) pair {<g(P) a N> <h(Q) b M>}> :- "
    "<P person {<X name N>}>@db AND <Q person {<Y name M>}>@db",
    # A shared label joins two children; only the person survives.
    "<f(P) twice yes> :- <P person {<X L V> <Y L W>}>@db AND "
    "<R person {<Z L U>}>@db",
    # Copy semantics through a projected set value.
    "<f(P) copy V> :- <P person {<X pubs V>}>@db AND "
    "<Q person {<Y gender G>}>@db",
]


@pytest.mark.parametrize("text", PROJECTED_CASES)
def test_projected_path_matches_translation(nested_db, text):
    q = parse_query(text)
    assert projects_away_a_variable(q)
    assert identical(evaluate(q, nested_db),
                     evaluate_via_datalog(q, nested_db))


@pytest.mark.parametrize("profile", ["conjunctive", "copy", "dag", "dtd"])
@pytest.mark.parametrize("seed", range(3))
def test_projected_compositions_match_translation(profile, seed):
    """Composed programs (a rewriting unfolded over its views, Section
    3.1) evaluated directly and through Datalog."""
    from repro.oracle.gen import PROFILES, generate_case
    from repro.rewriting import rewrite
    case = generate_case(seed, PROFILES[profile])
    outcome = rewrite(case.query, case.views, case.constraints)
    assert outcome.rewritings
    program = outcome.rewritings[0].composition
    assert identical(evaluate_program(program, case.db),
                     evaluate_via_datalog(program, case.db))


@pytest.mark.parametrize("db_seed", range(3))
def test_random_three_condition_agreement(db_seed):
    db = generate_random_database(
        RandomOemConfig(roots=3, max_depth=3, max_fanout=3), seed=db_seed)
    q = sample_query(db, RandomQueryConfig(conditions=3, max_depth=3),
                     seed=db_seed)
    assert identical(evaluate(q, db), evaluate_via_datalog(q, db))
