"""Heuristic condition ordering for evaluation (a small optimizer).

TSL conjunction is order-independent semantically (tested as a property),
but evaluation cost is not: starting with the most selective condition
and then following bound object-id variables turns a cross product into
an index-driven join (the evaluator short-circuits when a condition's
top-level oid is already bound).

The heuristic mirrors Figure 2's optimizer box in miniature:

1. score each condition by its constants (leaf constants select hardest,
   label constants next) and its depth;
2. greedily pick the highest-scoring condition among those *connected*
   to already-bound variables (sharing any variable), falling back to
   the best unconnected one when none connects.

:func:`live_variables` then gives, per condition of the chosen order,
the variables a later step still reads; the evaluator projects its
partial assignments onto them.
"""

from __future__ import annotations

from ..logic.terms import Constant, Term, Variable
from .ast import Condition, Query
from .normalize import condition_paths


def condition_score(condition: Condition) -> float:
    """Higher = more selective (evaluate earlier)."""
    score = 0.0
    for path in condition_paths(condition):
        if isinstance(path.leaf, Term) and isinstance(path.leaf, Constant):
            score += 4.0
        for _, label in path.steps:
            if isinstance(label, Constant):
                score += 1.0
        if path.steps and path.steps[0][0].is_ground():
            score += 8.0  # ground root oid: a direct lookup
        score += 0.25 * len(path.steps)
    return score


def _condition_variables(condition: Condition) -> set[Variable]:
    return set(condition.variables())


def order_conditions(query: Query) -> Query:
    """Reorder the body greedily: selective first, then stay connected."""
    remaining = list(query.body)
    if len(remaining) <= 1:
        return query
    ordered: list[Condition] = []
    bound: set[Variable] = set()
    while remaining:
        connected = [c for c in remaining
                     if _condition_variables(c) & bound]
        pool = connected or remaining
        best = max(pool, key=condition_score)
        remaining.remove(best)
        ordered.append(best)
        bound |= _condition_variables(best)
    return Query(query.head, tuple(ordered), name=query.name)


def live_variables(query: Query) -> tuple[frozenset[Variable], ...]:
    """Per body condition, in body order: the variables live after it.

    A variable is live after condition *i* when the head or a later
    condition mentions it.  How a partial assignment of conditions
    ``0..i`` extends through the rest of the body depends only on its
    values for these variables, so the evaluator projects onto them and
    deduplicates after every condition (see :mod:`repro.tsl.evaluator`).
    """
    live = set(query.head.variables())
    after: list[frozenset[Variable]] = []
    for condition in reversed(query.body):
        after.append(frozenset(live))
        live.update(condition.variables())
    after.reverse()
    return tuple(after)


def plan_report(query: Query) -> list[tuple[str, float]]:
    """The chosen order with per-condition scores (for explain output)."""
    planned = order_conditions(query)
    return [(str(condition), condition_score(condition))
            for condition in planned.body]
