"""Property-based check: composition commutes with evaluation.

For random databases and sampled queries, build a view and a candidate
that navigates the view's head structure; the composed rules evaluated
over the base data must produce exactly what the candidate produces over
the materialized view.  This is the semantic contract Step 2 relies on
-- if composition over- or under-approximated, the rewriter would accept
wrong rewritings or reject correct ones.
"""

from hypothesis import given, settings, strategies as st

from repro.oem import identical
from repro.rewriting import compose
from repro.tsl import evaluate, evaluate_program
from repro.tsl.ast import Condition, ObjectPattern, Query
from repro.logic.terms import Constant, FunctionTerm, Variable
from repro.workloads import (RandomOemConfig, RandomQueryConfig,
                             exposing_view, generate_random_database,
                             sample_query, view_head_probe, view_v1,
                             generate_people)

_SETTINGS = dict(max_examples=20, deadline=None)


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_composition_commutes_on_exposing_views(seed):
    db = generate_random_database(
        RandomOemConfig(roots=3, max_depth=3, max_fanout=2), seed=seed)
    query = sample_query(db, RandomQueryConfig(conditions=2, max_depth=3),
                         seed=seed + 7)
    view = exposing_view(query, name="V")
    candidate = view_head_probe(view)
    composed = compose(candidate, {"V": view})
    materialized = evaluate(view, db, answer_name="V")
    direct = evaluate(candidate, {"db": db, "V": materialized})
    via = evaluate_program(composed, {"db": db})
    assert identical(direct, via)


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_composition_commutes_on_v1(seed):
    db = generate_people(12, seed=seed)
    view = view_v1()
    candidate = view_head_probe(view)
    composed = compose(candidate, {"V1": view})
    materialized = evaluate(view, db, answer_name="V1")
    direct = evaluate(candidate, {"db": db, "V1": materialized})
    via = evaluate_program(composed, {"db": db})
    assert identical(direct, via)


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5_000),
       prefix_depth=st.integers(min_value=1, max_value=2))
def test_composition_commutes_on_partial_navigation(seed, prefix_depth):
    """Candidates navigating only part of the view head still commute."""
    from repro.tsl.normalize import head_paths, path_pattern
    db = generate_people(10, seed=seed)
    view = view_v1()
    paths = list(head_paths(view))
    path = paths[seed % len(paths)]
    depth = min(prefix_depth, len(path.steps))
    if depth == len(path.steps):
        pattern = path_pattern(path.steps, path.leaf)
    else:
        from repro.tsl.ast import SetPattern
        pattern = path_pattern(path.steps[:depth], SetPattern(()))
    candidate = Query(
        ObjectPattern(FunctionTerm("probe", (view.head.oid,)),
                      Constant("probe"), Constant("ok")),
        (Condition(pattern, "V1"),))
    composed = compose(candidate, {"V1": view})
    materialized = evaluate(view, db, answer_name="V1")
    direct = evaluate(candidate, {"db": db, "V1": materialized})
    via = evaluate_program(composed, {"db": db})
    assert identical(direct, via)
