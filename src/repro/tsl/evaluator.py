"""TSL evaluation with minimal-model semantics (Section 2).

The meaning of a query body is the set of assignments from variables to
object ids, labels, atomic values, and set values (subgraphs) that satisfy
every condition; a condition's top-level pattern matches the *root* objects
of its source.  The head then constructs the answer graph: one object per
(head object pattern, assignment) pair, keyed by the ground head oid term.
Assignments producing the same oid term "fuse" their set values; when a
head value variable is bound to a set value, the source subgraph hangs off
the constructed node (copy semantics -- the answer can be a graph).

Programs (unions of rules) evaluate into a single fused answer, which is
what Section 4's equivalence notion compares.

Evaluation is set-at-a-time.  The planner (:mod:`repro.tsl.planner`)
orders the body and computes, per condition, the variables still live
after it.  Each condition extends every partial assignment -- a row of
values -- by matching its pattern one way against the source: every
value the data supplies is ground, so bindings go into a flat slot array
and are undone from a trail on backtrack (nothing is copied per binding),
and constant labels and atomic values are compared against the stored
atoms before anything is bound.  The extended rows are projected onto
the live variables and deduplicated, first occurrence first, before the
next condition.  A prefix's extensions depend only on its live
projection, so this drops exactly the duplicate work of variables no
later step reads, and the answer's object, edge and root insertion order
is the one full assignments give.  :func:`body_assignments` keeps full
assignments (EXPLAIN needs them).  A :class:`~repro.obs.Budget` is
checked every :data:`BUDGET_CHECK_EVERY` candidate objects.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from ..errors import FusionConflictError, OemError, TslError, UnknownOidError
from ..logic.subst import Substitution
from ..logic.terms import Constant, FunctionTerm, SetValue, Term, Variable
from ..obs import NULL_TRACER
from ..oem.model import OemDatabase, Oid
from .ast import ObjectPattern, Query, SetPattern
from .planner import live_variables, order_conditions

Sources = Mapping[str, OemDatabase]

ANSWER_NAME = "answer"

#: Candidate objects the matcher tries between two budget checks.
BUDGET_CHECK_EVERY = 256


def _as_sources(sources: Union[OemDatabase, Sources]) -> Sources:
    if isinstance(sources, OemDatabase):
        return {sources.name: sources}
    return sources


# --------------------------------------------------------------------------
# Compiled body patterns
# --------------------------------------------------------------------------
#
# A pattern term compiles to a *code*: a variable to its slot number (an
# int), a function term with variables to ``(functor, arg codes)``, and
# anything ground to itself.

def _compile_term(term: Term, slot_of):
    """Compile *term*; ``slot_of(variable)`` gives a variable's slot."""
    if isinstance(term, Variable):
        return slot_of(term)
    if isinstance(term, FunctionTerm) and not term.is_ground():
        return (term.functor,
                tuple(_compile_term(arg, slot_of) for arg in term.args))
    return term


def _ground(code, values) -> Term | None:
    """The ground term *code* denotes under *values* (a slot array or a
    row), or None while a variable in it is unbound."""
    if code.__class__ is int:
        return values[code]
    if code.__class__ is tuple:
        args = []
        for arg in code[1]:
            ground = _ground(arg, values)
            if ground is None:
                return None
            args.append(ground)
        return FunctionTerm(code[0], tuple(args))
    return code


class _Pattern:
    """One body object pattern, compiled against the rule's slots."""

    __slots__ = ("oid", "label", "label_atom", "value", "children")

    def __init__(self, pattern: ObjectPattern, slot_of) -> None:
        # Compile in binding order (oid, label, value), so slot numbers
        # follow the order in which matching first binds each variable.
        self.oid = _compile_term(pattern.oid, slot_of)
        self.label = _compile_term(pattern.label, slot_of)
        #: The constant label, compared with the stored label before
        #: anything is matched (``_NO_ATOM`` when the label is not one).
        self.label_atom = (pattern.label.value
                           if isinstance(pattern.label, Constant)
                           else _NO_ATOM)
        value = pattern.value
        if isinstance(value, SetPattern):
            self.value = None
            self.children = tuple(_Pattern(child, slot_of)
                                  for child in value.patterns)
        else:
            self.value = _compile_term(value, slot_of)
            self.children = None


_NO_ATOM = object()


# --------------------------------------------------------------------------
# Body matching
# --------------------------------------------------------------------------

class _Matcher:
    """Matches compiled patterns one way into a slot array with a trail."""

    __slots__ = ("vals", "trail", "budget", "ticks", "name", "labels",
                 "atoms", "kids", "roots", "root_set")

    def __init__(self, width: int, budget) -> None:
        self.vals: list = [None] * width
        self.trail: list[int] = []
        self.budget = budget
        # Counting down from -1 never reaches 0: no budget, no checks.
        self.ticks = BUDGET_CHECK_EVERY if budget is not None else -1

    def use(self, db: OemDatabase) -> None:
        self.name = db.name
        (self.labels, self.atoms, self.kids, self.roots,
         self.root_set) = db.tables()

    def _check_budget(self) -> None:
        self.ticks = BUDGET_CHECK_EVERY
        self.budget.tick(BUDGET_CHECK_EVERY)
        self.budget.check()

    def _undo(self, mark: int) -> None:
        vals, trail = self.vals, self.trail
        while len(trail) > mark:
            vals[trail.pop()] = None

    def _unify(self, code, ground: Term) -> bool:
        """Match *code* against the ground term, binding on the trail."""
        if code.__class__ is int:
            bound = self.vals[code]
            if bound is None:
                self.vals[code] = ground
                self.trail.append(code)
                return True
            return bound == ground
        if code.__class__ is tuple:
            functor, args = code
            if ground.__class__ is not FunctionTerm \
                    or ground.functor != functor \
                    or len(ground.args) != len(args):
                return False
            for arg, sub in zip(args, ground.args):
                if not self._unify(arg, sub):
                    return False
            return True
        return code == ground

    def _unify_atom(self, code, atom) -> bool:
        """Match *code* against the stored atom, wrapping it in a
        :class:`Constant` only when it has to be bound or unified."""
        if code.__class__ is Constant:
            return code.value == atom
        if code.__class__ is int:
            bound = self.vals[code]
            if bound is not None:
                return bound.__class__ is Constant and bound.value == atom
        return self._unify(code, Constant(atom))

    def _match_among(self, pattern: _Pattern,
                     candidates) -> Iterator[None]:
        """Yield once per way *pattern* matches one of *candidates*, with
        its variables bound; the bindings are undone before resuming."""
        labels, atoms, trail = self.labels, self.atoms, self.trail
        want = pattern.label_atom
        for oid in candidates:
            self.ticks -= 1
            if not self.ticks:
                self._check_budget()
            label = labels.get(oid, _NO_ATOM)
            if want is not _NO_ATOM and label != want \
                    and label is not _NO_ATOM:
                continue
            mark = len(trail)
            if self._unify(pattern.oid, oid):
                if label is _NO_ATOM:
                    raise UnknownOidError(f"unknown oid {oid}")
                if self._unify_atom(pattern.label, label):
                    atom = atoms.get(oid, _NO_ATOM)
                    if pattern.children is None:
                        if atom is _NO_ATOM:
                            matched = self._unify(pattern.value, SetValue(
                                frozenset(self.kids[oid]), self.name))
                        else:
                            matched = self._unify_atom(pattern.value, atom)
                        if matched:
                            yield
                    elif atom is _NO_ATOM:
                        if pattern.children:
                            yield from self._match_set(
                                pattern.children, 0, self.kids[oid])
                        else:
                            yield
            self._undo(mark)

    def _match_set(self, patterns: tuple[_Pattern, ...], index: int,
                   children: list[Oid]) -> Iterator[None]:
        """Match each nested pattern to *some* child (set containment).

        Distinct nested patterns may match the same child; all
        combinations are enumerated (backtracking join).
        """
        pattern = patterns[index]
        bound = _ground(pattern.oid, self.vals)
        if bound is not None:
            children_of = (bound,) if bound in children else ()
        else:
            children_of = children
        last = index + 1 == len(patterns)
        for _ in self._match_among(pattern, children_of):
            if last:
                yield
            else:
                yield from self._match_set(patterns, index + 1, children)

    def match_root(self, pattern: _Pattern) -> Iterator[None]:
        """Match a condition's top-level pattern against the roots."""
        bound = _ground(pattern.oid, self.vals)
        if bound is None:
            return self._match_among(pattern, self.roots)
        is_root = bound in self.labels and bound in self.root_set
        return self._match_among(pattern, (bound,) if is_root else ())


def _slot_getter(slots: list[int]):
    """A function from the slot array to the tuple of *slots*' values."""
    if not slots:
        return lambda vals: ()
    if len(slots) == 1:
        (slot,) = slots
        return lambda vals: (vals[slot],)
    return itemgetter(*slots)


def _solve(query: Query, sources: Sources, *, reorder: bool,
           project: bool, budget=None) -> tuple[list[Variable], list[tuple]]:
    """The body's assignments as ``(variables, rows)``.

    With *project* each row holds the values of the head variables
    (those the body binds); otherwise of every body variable, in the
    order matching first binds them.  Rows are distinct and come in
    first-occurrence order of the nested-loop join over the planned
    condition order.
    """
    if reorder and len(query.body) > 1:
        query = order_conditions(query)
    slots: dict[Variable, int] = {}

    def slot_of(variable: Variable) -> int:
        return slots.setdefault(variable, len(slots))

    # Slots are numbered in first-binding order, so the variables bound
    # after condition i are exactly slots 0 .. widths[i] - 1.
    patterns, widths = [], []
    for condition in query.body:
        patterns.append(_Pattern(condition.pattern, slot_of))
        widths.append(len(slots))
    variables = list(slots)
    live = live_variables(query) if project else None
    matcher = _Matcher(len(slots), budget)
    vals = matcher.vals
    rows: list[tuple] = [()]
    row_slots: list[int] = []
    for position, condition in enumerate(query.body):
        try:
            db = sources[condition.source]
        except KeyError:
            known = ", ".join(sorted(sources)) or "(none)"
            raise TslError(f"unknown source {condition.source!r}; "
                           f"available: {known}") from None
        matcher.use(db)
        keep = [slot for slot in range(widths[position])
                if live is None or variables[slot] in live[position]]
        project_row = _slot_getter(keep)
        extended: list[tuple] = []
        seen: set[tuple] = set()
        for row in rows:
            for slot, value in zip(row_slots, row):
                vals[slot] = value
            for _ in matcher.match_root(patterns[position]):
                out = project_row(vals)
                if out not in seen:
                    seen.add(out)
                    extended.append(out)
        for slot in row_slots:
            vals[slot] = None
        rows, row_slots = extended, keep
        if not rows:
            break
    return [variables[slot] for slot in row_slots], rows


def body_assignments(query: Query,
                     sources: Union[OemDatabase, Sources],
                     reorder: bool = True) -> list[Substitution]:
    """Return the satisfying assignments of the query body, deduplicated.

    Each assignment binds every body variable (no projection), in the
    order the nested-loop join first produces it.  With *reorder* (the
    default) conditions are evaluated selective-first and
    connected-next (:mod:`repro.tsl.planner`); conjunction order is
    semantically irrelevant, so this only affects cost and order.
    """
    variables, rows = _solve(query, _as_sources(sources), reorder=reorder,
                             project=False)
    return [Substitution(dict(zip(variables, row))) for row in rows]


# --------------------------------------------------------------------------
# Head construction
# --------------------------------------------------------------------------

class _Head:
    """One head object pattern, compiled against the row layout."""

    __slots__ = ("pattern", "oid", "label", "value", "children")

    def __init__(self, pattern: ObjectPattern,
                 positions: dict[Variable, int]) -> None:
        # A variable the body leaves unbound compiles to None, which
        # _ground reports as open: instantiation then fails as
        # "not grounded".
        self.pattern = pattern
        self.oid = _compile_term(pattern.oid, positions.get)
        self.label = _compile_term(pattern.label, positions.get)
        value = pattern.value
        if isinstance(value, SetPattern):
            self.value = None
            self.children = tuple(_Head(child, positions)
                                  for child in value.patterns)
        else:
            self.value = _compile_term(value, positions.get)
            self.children = None

    def instantiate(self, answer: OemDatabase, row: tuple,
                    sources: Sources) -> Oid:
        """Add this pattern's objects for one row; return the oid."""
        pattern = self.pattern
        oid = _ground(self.oid, row)
        if oid is None:
            raise TslError(
                f"head oid {pattern.oid} not grounded by assignment")
        label = _ground(self.label, row)
        if label.__class__ is not Constant:
            raise TslError(f"head label {pattern.label} not grounded to a "
                           "constant by assignment")
        try:
            if self.children is not None:
                answer.add_set(oid, label.value)
                for child in self.children:
                    answer.add_child(oid, child.instantiate(answer, row,
                                                            sources))
            else:
                ground = _ground(self.value, row)
                if ground.__class__ is Constant:
                    answer.add_atomic(oid, label.value, ground.value)
                elif ground.__class__ is SetValue:
                    answer.add_set(oid, label.value)
                    source_db = sources[ground.source]
                    for member in sorted(ground.members, key=str):
                        source_db.copy_subgraph_into(answer, member)
                        answer.add_child(oid, member)
                else:
                    raise TslError(f"head value {pattern.value} not "
                                   "grounded by assignment")
        except OemError as exc:
            raise FusionConflictError(
                f"fusing head object {oid}: {exc}") from exc
        return oid


def evaluate(query: Query,
             sources: Union[OemDatabase, Sources],
             answer_name: str = ANSWER_NAME, *,
             tracer=None, budget=None) -> OemDatabase:
    """Evaluate one TSL rule and return the answer database."""
    return evaluate_program([query], sources, answer_name, tracer=tracer,
                            budget=budget)


def evaluate_program(rules: Iterable[Query],
                     sources: Union[OemDatabase, Sources],
                     answer_name: str = ANSWER_NAME, *,
                     tracer=None, budget=None) -> OemDatabase:
    """Evaluate a union of rules into one fused answer database.

    Per Section 2, when two assignments (possibly from different rules)
    produce the same oid, "the same object is returned, and the values of
    the two objects are fused".

    *tracer* records one ``evaluate.rule`` span per rule with the number
    of distinct head-variable assignments, under an ``evaluate`` root
    span.  *budget* (a :class:`~repro.obs.Budget`) bounds the body
    matching: :class:`~repro.errors.BudgetExceededError` propagates
    when it runs out.
    """
    tracer = tracer or NULL_TRACER
    sources = _as_sources(sources)
    answer = OemDatabase(answer_name)
    rules = list(rules)
    with tracer.span("evaluate", rules=len(rules)) as span:
        for rule in rules:
            with tracer.span("evaluate.rule",
                             rule=rule.name or "?") as rule_span:
                variables, rows = _solve(rule, sources, reorder=True,
                                         project=True, budget=budget)
                head = _Head(rule.head, {variable: position for
                                         position, variable in
                                         enumerate(variables)})
                for row in rows:
                    answer.add_root(head.instantiate(answer, row, sources))
                rule_span.set("assignments", len(rows))
        answer.check_integrity()
        span.set("objects", answer.stats()["objects"])
    return answer
