"""The evaluator reproduces the frozen golden corpus byte for byte.

``tests/tsl/data/eval_golden.json`` was captured from the nested-loop,
copy-on-bind evaluator that the set-at-a-time one replaced (see
``tests/tsl/eval_golden.py``).  Both evaluation modes must reproduce
it: projected (``evaluate_program``: head-variable rows, deduplicated
after every condition) and full (``body_assignments``: every body
variable bound), and an answer built from the full assignments must
equal the projected one byte for byte.
"""

import json

import pytest

from repro.errors import ReproError
from repro.oem import OemDatabase
from repro.tsl.evaluator import _as_sources, _Head, body_assignments

from .eval_golden import CORPUS, answer_bytes, cases, digest, record

EXPECTED = {entry["id"]: entry
            for entry in json.loads(CORPUS.read_text())["cases"]}
CASES = list(cases())


def test_corpus_covers_every_case():
    assert [case[0] for case in CASES] == list(EXPECTED)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_projected_and_full_modes_match_corpus(case):
    case_id, rules, sources, answer_name = case
    assert record(*case) == EXPECTED[case_id]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_answer_from_full_assignments_matches_corpus(case):
    case_id, rules, sources, answer_name = case
    expected = EXPECTED[case_id]
    sources = _as_sources(sources)
    answer = OemDatabase(answer_name)
    try:
        for rule in rules:
            for assignment in body_assignments(rule, sources):
                variables = list(assignment)
                head = _Head(rule.head, {variable: position for
                                         position, variable in
                                         enumerate(variables)})
                row = tuple(assignment[v] for v in variables)
                answer.add_root(head.instantiate(answer, row, sources))
    except ReproError as exc:
        assert (type(exc).__name__, str(exc)) == (expected["error"],
                                                 expected["message"])
        return
    assert "error" not in expected
    assert digest(answer_bytes(answer)) == expected["answer_sha256"]
