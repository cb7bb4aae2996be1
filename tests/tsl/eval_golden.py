"""Golden corpus of TSL evaluation outputs (answers and assignments).

Each case is a program (one or more rules) over named sources.  The
corpus records, per case, a SHA-256 of the answer's
``database_to_json`` encoding (insertion order, so object, edge and
root order are pinned) and, per rule, a SHA-256 of the full
``body_assignments`` list; a case whose evaluation raises records the
error type and message instead.  ``tests/tsl/test_eval_golden.py``
checks the evaluator against it.

Regenerate (only when an evaluation output is *meant* to change)::

    PYTHONPATH=src python -m tests.tsl.eval_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Iterator

from repro.logic.terms import Constant, FunctionTerm, SetValue, Variable
from repro.oem import build_database, obj
from repro.oem.serialize import database_to_json
from repro.tsl import evaluate, evaluate_program, parse_query
from repro.tsl.ast import Query

CORPUS = Path(__file__).parent / "data" / "eval_golden.json"

#: The repo-rw benchmark store: same size and seed.
BIBLIO_PUBS = 1000
BIBLIO_SEED = 20261017


def encode_term(term) -> object:
    """A type-exact JSON encoding of a ground term."""
    if isinstance(term, Constant):
        return [type(term.value).__name__, term.value]
    if isinstance(term, FunctionTerm):
        return {"f": term.functor,
                "args": [encode_term(arg) for arg in term.args]}
    if isinstance(term, SetValue):
        members = sorted((encode_term(m) for m in term.members),
                         key=lambda m: json.dumps(m, sort_keys=True))
        return {"set": members, "source": term.source}
    if isinstance(term, Variable):
        return {"var": term.name}
    raise TypeError(f"cannot encode {term!r}")


def encode_assignments(assignments) -> bytes:
    rows = [[[v.name, encode_term(t)]
             for v, t in sorted(a.items(), key=lambda item: item[0].name)]
            for a in assignments]
    return json.dumps(rows).encode()


def answer_bytes(answer) -> bytes:
    return json.dumps(database_to_json(answer)).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nested_db():
    """The hand-written database of the E13 translation tests."""
    return build_database("db", [
        obj("person", [obj("gender", "female"), obj("name", "ann"),
                       obj("age", 31)], oid="p1"),
        obj("person", [obj("gender", "male"), obj("name", "bob")],
            oid="p2"),
        obj("person", [obj("gender", "female"),
                       obj("pubs", [obj("pub", [obj("title", "views")])])],
            oid="p3"),
    ])


def _materialize(views: dict[str, Query], db) -> dict:
    return {name: evaluate(view, db, answer_name=name)
            for name, view in views.items()}


def _rewriting_cases(prefix, query, views, db, constraints=None,
                     limit=2) -> Iterator[tuple]:
    """The query's rewritings over the materialized views, and their
    compositions over the base data."""
    from repro.rewriting import rewrite
    outcome = rewrite(query, views, constraints)
    sources = {db.name: db, **_materialize(views, db)}
    for index, rewriting in enumerate(outcome.rewritings[:limit]):
        yield f"{prefix}/rewriting{index}", [rewriting.query], sources
        yield (f"{prefix}/composition{index}", list(rewriting.composition),
               {db.name: db})


def cases() -> Iterator[tuple[str, list[Query], dict, str]]:
    """Every ``(id, rules, sources, answer_name)`` of the corpus."""
    from repro.oracle.gen import PROFILES, generate_case
    from repro.workloads import (chain_database, chain_query,
                                 conference_query, conference_view,
                                 figure3_database, generate_bibliography,
                                 generate_people, k_conditions_database,
                                 k_conditions_query, query_q3, query_q5,
                                 query_q7, sigmod_97_query, star_database,
                                 star_query, view_head_probe, view_v1,
                                 year_view)
    from repro.workloads.people import people_dtd

    answer = "answer"
    for profile, config in sorted(PROFILES.items()):
        for seed in range(6):
            case = generate_case(seed, config)
            prefix = f"gen/{profile}/{seed}"
            sources = {case.db.name: case.db}
            yield f"{prefix}/query", [case.query], sources, answer
            for name, view in sorted(case.views.items()):
                yield f"{prefix}/view-{name}", [view], sources, name
            for case_id, rules, srcs in _rewriting_cases(
                    prefix, case.query, case.views, case.db,
                    case.constraints):
                yield case_id, rules, srcs, answer

    biblio = generate_bibliography(BIBLIO_PUBS, seed=BIBLIO_SEED)
    store = {"db": biblio}
    for conference, year in (("sigmod", 1997), ("vldb", 1993),
                             ("icde", 1999), ("kdd", None)):
        yield (f"biblio/query-{conference}-{year}",
               [conference_query(conference, year)], store, answer)
    views = {f"v_{c}": conference_view(c, f"v_{c}")
             for c in ("sigmod", "vldb", "pods")}
    for name, view in views.items():
        yield f"biblio/{name}", [view], store, name
    yield "biblio/year-1995", [year_view(1995, "y95")], store, "y95"
    for conference, year in (("sigmod", 1997), ("pods", 1995)):
        for case_id, rules, srcs in _rewriting_cases(
                f"biblio/rw-{conference}-{year}",
                conference_query(conference, year), views, biblio,
                limit=1):
            yield case_id, rules, srcs, answer
    small = generate_bibliography(200, seed=200)
    yield "biblio/sigmod97-200", [sigmod_97_query()], {"db": small}, answer
    yield ("biblio/sigmod97-figure3", [sigmod_97_query()],
           {"db": figure3_database()}, answer)

    v1 = view_v1()
    for seed in range(3):
        people = generate_people(12, seed=seed)
        sources = {"db": people}
        prefix = f"people/{seed}"
        yield f"{prefix}/V1", [v1], sources, "V1"
        for label, query in (("Q3", query_q3()), ("Q5", query_q5()),
                             ("Q7", query_q7())):
            yield f"{prefix}/{label}", [query], sources, answer
        for label, query, dtd in (("Q3", query_q3(), None),
                                  ("Q5", query_q5(), None),
                                  ("Q7", query_q7(), people_dtd())):
            for case_id, rules, srcs in _rewriting_cases(
                    f"{prefix}/rw-{label}", query, {"V1": v1}, people,
                    dtd, limit=1):
                yield case_id, rules, srcs, answer
    from repro.rewriting import compose
    probe = view_head_probe(v1)
    for seed, size in ((0, 3), (1, 4)):
        people = generate_people(size, seed=seed)
        yield (f"people/v1-composed-{size}-{seed}",
               list(compose(probe, {"V1": v1})), {"db": people}, answer)
        yield (f"people/v1-two-step-{size}-{seed}", [probe],
               {"db": people, "V1": evaluate(v1, people, answer_name="V1")},
               answer)

    yield ("querygen/star-3", [star_query(3)],
           {"db": star_database(3, 3)}, answer)
    yield ("querygen/chain-3", [chain_query(3)],
           {"db": chain_database(3, 3)}, answer)
    yield ("querygen/k-conditions-3", [k_conditions_query(3)],
           {"db": k_conditions_database(3, 4)}, answer)

    nested = {"db": nested_db()}
    for index, text in enumerate((
            "<f(P) female {<f2(X) Y Z>}> :- "
            "<P person {<G gender female> <X Y Z>}>@db",
            "<f(P) copy V> :- <P person V>@db",
            "<f(P) rec {<g(P) has {<h(X) item W>}>}> :- "
            "<P person {<X name W>}>@db",
            "<f(P) flag yes> :- "
            "<P person {<X pubs {<U pub {<T title views>}>}>}>@db",
            "<f(X) const 1> :- <P person {<X age 31>}>@db",
            "<f(P,Q) pair {<g(P) a N> <g(Q) b M>}> :- "
            "<P person {<X name N>}>@db AND <Q person {<Y name M>}>@db",
            "<f(P,Q) pair {<g(P) a N> <h(Q) b M>}> :- "
            "<P person {<X name N>}>@db AND <Q person {<Y name M>}>@db",
            "<f(P) same yes> :- <P person {<X L V> <Y L V>}>@db",
            "<f(P) self V> :- <P person V>@db AND <p1 person V>@db")):
        yield f"nested/{index}", [parse_query(text)], nested, answer
    yield ("nested/fusion", [
        parse_query("<f(P) rec {<g1(P) gender G>}> :- "
                    "<P person {<X gender G>}>@db"),
        parse_query("<f(P) rec {<g2(P) name N>}> :- "
                    "<P person {<X name N>}>@db")], nested, answer)
    yield ("nested/fusion-conflict", [
        parse_query("<f(P) person 1> :- <P person {<G gender female>}>@db"),
        parse_query("<f(P) person 2> :- <P person {<A age 31>}>@db")],
        nested, answer)


def record(case_id, rules, sources, answer_name) -> dict:
    """The corpus entry for one case under the current evaluator."""
    from repro.errors import ReproError
    from repro.tsl.evaluator import body_assignments
    entry: dict = {"id": case_id}
    try:
        answer = evaluate_program(rules, sources, answer_name)
    except ReproError as exc:
        entry["error"] = type(exc).__name__
        entry["message"] = str(exc)
    else:
        data = answer_bytes(answer)
        entry["answer_sha256"] = digest(data)
        entry["answer_bytes"] = len(data)
        entry["roots"] = len(answer.roots)
    entry["assignments"] = []
    for rule in rules:
        assignments = body_assignments(rule, sources)
        entry["assignments"].append(
            {"count": len(assignments),
             "sha256": digest(encode_assignments(assignments))})
    return entry


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the corpus to {CORPUS.name}")
    parser.add_argument("--out", type=Path, default=CORPUS)
    args = parser.parse_args(argv)
    entries = [record(*case) for case in cases()]
    text = json.dumps({"cases": entries}, indent=1) + "\n"
    if args.write:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    print(f"{len(entries)} case(s)")


if __name__ == "__main__":
    main()
