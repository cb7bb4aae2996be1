"""Parametric query/view families for the complexity benchmarks (E5-E9).

Section 5.1 shows each phase of the rewriting algorithm is worst-case
exponential; these generators produce the inputs that exhibit (or avoid)
the blowups:

* ``chain(n)``    -- one condition, n nested levels, distinct labels:
  mapping discovery stays polynomial.
* ``star(b)``     -- b branches with *identical* shape: self-similarity
  makes the number of containment mappings grow like b! / exponentially.
* ``k_conditions(k)`` -- k flat conditions: the candidate space of
  Step 1B is the powerset, ~2^k.
* ``fanout_view(f)`` / ``fanout_query(f)`` -- fused view heads that give
  composition f-way resolution choices per goal.
"""

from __future__ import annotations

from ..logic.terms import Constant, FunctionTerm, Variable
from ..tsl.ast import Condition, ObjectPattern, Query, SetPattern
from ..oem.builder import DatabaseBuilder
from ..oem.model import OemDatabase


def _var(name: str) -> Variable:
    return Variable(name)


def chain_query(depth: int, source: str = "db") -> Query:
    """One root-to-leaf chain of *depth* distinct labels ``l1..l<depth>``."""
    assert depth >= 1
    leaf: object = _var("V")
    pattern = ObjectPattern(_var(f"X{depth}"), Constant(f"l{depth}"), leaf)
    for level in range(depth - 1, 0, -1):
        pattern = ObjectPattern(_var(f"X{level}"), Constant(f"l{level}"),
                                SetPattern((pattern,)))
    head = ObjectPattern(FunctionTerm("f", (_var("X1"),)),
                         Constant("result"), _var("V"))
    return Query(head, (Condition(pattern, source),))


def chain_view(depth: int, source: str = "db", name: str = "V") -> Query:
    """A view exposing the same chain, copying the leaf."""
    query = chain_query(depth, source)
    head = ObjectPattern(FunctionTerm("v", (_var("X1"),)),
                         Constant("row"), _var("V"))
    return Query(head, query.body, name=name)


def star_query(branches: int, source: str = "db",
               distinct_labels: bool = False) -> Query:
    """*branches* conditions of identical shape on the same root.

    With identical labels every view branch maps onto every query branch:
    the number of containment mappings explodes combinatorially -- the
    Section 5.1 worst case.  ``distinct_labels=True`` gives the benign
    variant for comparison.
    """
    assert branches >= 1
    conditions = []
    for index in range(1, branches + 1):
        label = f"b{index}" if distinct_labels else "b"
        pattern = ObjectPattern(
            _var("R"), Constant("root"),
            SetPattern((ObjectPattern(_var(f"X{index}"), Constant(label),
                                      _var(f"V{index}")),)))
        conditions.append(Condition(pattern, source))
    children = tuple(
        ObjectPattern(FunctionTerm(f"o{index}", (_var(f"X{index}"),)),
                      Constant("item"), _var(f"V{index}"))
        for index in range(1, branches + 1))
    head = ObjectPattern(FunctionTerm("f", (_var("R"),)),
                         Constant("result"), SetPattern(children))
    return Query(head, tuple(conditions))


def star_view(branches: int, source: str = "db", name: str = "V",
              distinct_labels: bool = False) -> Query:
    """A view with the same star body, exposing each branch."""
    query = star_query(branches, source, distinct_labels)
    children = tuple(
        ObjectPattern(FunctionTerm(f"w{index}", (_var(f"X{index}"),)),
                      Constant("col"), _var(f"V{index}"))
        for index in range(1, branches + 1))
    head = ObjectPattern(FunctionTerm("v", (_var("R"),)),
                         Constant("row"), SetPattern(children))
    return Query(head, query.body, name=name)


def k_conditions_query(k: int, source: str = "db") -> Query:
    """k independent flat conditions ``<Pi ci Vi>`` (Step 1B's k)."""
    assert k >= 1
    conditions = tuple(
        Condition(ObjectPattern(_var(f"P{index}"), Constant(f"c{index}"),
                                _var(f"V{index}")), source)
        for index in range(1, k + 1))
    children = tuple(
        ObjectPattern(FunctionTerm(f"h{index}", (_var(f"P{index}"),)),
                      Constant("item"), _var(f"V{index}"))
        for index in range(1, k + 1))
    head = ObjectPattern(FunctionTerm("f", (_var("P1"),)),
                         Constant("result"), SetPattern(children))
    return Query(head, conditions)


def condition_view(index: int, source: str = "db") -> Query:
    """A view exporting exactly condition ``<P c<index> V>``."""
    body = (Condition(ObjectPattern(_var("P"), Constant(f"c{index}"),
                                    _var("V")), source),)
    head = ObjectPattern(FunctionTerm(f"view{index}", (_var("P"),)),
                         Constant("row"), _var("V"))
    return Query(head, body, name=f"V{index}")


def fanout_view(fanout: int, source: str = "db", name: str = "V") -> Query:
    """A view whose head fuses *fanout* sibling components per object.

    Every component shares the parent oid term, so a condition chain over
    the view resolves against ``fanout`` member rules at each level --
    composition explores the product (E7).
    """
    assert fanout >= 1
    children = tuple(
        ObjectPattern(FunctionTerm("m", (_var(f"C{index}"),)),
                      Constant("part"), _var(f"W{index}"))
        for index in range(1, fanout + 1))
    head = ObjectPattern(FunctionTerm("v", (_var("R"),)),
                         Constant("row"), SetPattern(children))
    conditions = tuple(
        Condition(ObjectPattern(
            _var("R"), Constant("root"),
            SetPattern((ObjectPattern(_var(f"C{index}"), Constant("part"),
                                      _var(f"W{index}")),))), source)
        for index in range(1, fanout + 1))
    return Query(head, conditions, name=name)


def fanout_probe_query(source: str = "V") -> Query:
    """A probe navigating one fused component of :func:`fanout_view`."""
    pattern = ObjectPattern(
        FunctionTerm("v", (_var("R"),)), Constant("row"),
        SetPattern((ObjectPattern(FunctionTerm("m", (_var("C"),)),
                                  Constant("part"), _var("W")),)))
    head = ObjectPattern(FunctionTerm("f", (_var("C"),)),
                         Constant("result"), _var("W"))
    return Query(head, (Condition(pattern, source),))


def view_head_probe(view: Query) -> Query:
    """A query whose one condition is *view*'s own head shape, over the
    view (Section 3.1): composed with the view it gives a program over
    the base data that must agree with evaluating it over the
    materialized view."""
    head = ObjectPattern(FunctionTerm("probe", (view.head.oid,)),
                         Constant("probe"), Constant("ok"))
    return Query(head, (Condition(view.head, view.name),))


def chain_database(depth: int, width: int, seed_values: int = 3,
                   name: str = "db") -> OemDatabase:
    """A database of *width* chains matching :func:`chain_query`."""
    builder = DatabaseBuilder(name)
    for column in range(width):
        previous = None
        for level in range(1, depth + 1):
            if level == depth:
                node = builder.atomic(f"l{level}",
                                      f"val{column % seed_values}")
            else:
                node = builder.set(f"l{level}")
            if previous is None:
                builder.root(node)
            else:
                builder.edge(previous, node)
            previous = node
    return builder.finish()


def star_database(branches: int, width: int, name: str = "db",
                  distinct_labels: bool = False) -> OemDatabase:
    """A database of *width* roots each with *branches* children."""
    builder = DatabaseBuilder(name)
    for column in range(width):
        root = builder.set("root")
        builder.root(root)
        for index in range(1, branches + 1):
            label = f"b{index}" if distinct_labels else "b"
            builder.edge(root, builder.atomic(label, f"val{index}"))
    return builder.finish()


def k_conditions_database(k: int, width: int,
                          name: str = "db") -> OemDatabase:
    """Roots labeled ``c1..ck`` matching :func:`k_conditions_query`."""
    builder = DatabaseBuilder(name)
    for index in range(1, k + 1):
        for column in range(width):
            builder.root(builder.atomic(f"c{index}", f"val{column}"))
    return builder.finish()
