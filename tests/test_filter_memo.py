"""Property: both readings of a FILTER's verdict memo equal the row loop.

:class:`~repro.bgp.filters.CompiledFilter` judges each distinct key of
variable ids once and reads the verdicts either per row
(``row_predicate``) or in compare-and-compact batches (``compact``).
The reference below is a frozen copy of the per-row loop the memo
replaced: decode each present slot of a variable the expression reads,
skip ``UNBOUND``, call ``filter_passes``.  Both forms must keep exactly
the rows the reference keeps — for REGEX, arithmetic, unary minus,
BOUND of a variable no schema has, ``||`` rescuing an unbound
reference, rows holding ``UNBOUND``, and one filter object reused over
two schemas with different column orders — and decode each distinct
id exactly once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.filters import CompiledFilter
from repro.core.metrics import EXEC_COUNTERS
from repro.rdf import IRI, Literal, Triple
from repro.sparql import parse_group
from repro.sparql.bags import UNBOUND
from repro.sparql.expressions import expression_variables, filter_passes
from repro.storage import TripleStore

EX = "http://memo.test/"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

TERMS = [Literal(str(n), datatype=XSD_INTEGER) for n in range(-1, 5)] + [
    Literal("a1"),
    Literal("b2"),
    Literal("x"),
    Literal("11"),
    IRI(EX + "e1"),
]

#: 0 to 3 variables; ?z is in no schema.
EXPRESSIONS = [
    "1 + 1 = 2",
    '"a" = "b"',
    'regex(?a, "1")',
    "-?a < -1",
    "?a * 2 >= 4",
    "!BOUND(?z) && ?a != 3",
    "?a < ?b",
    "?a = 1 || ?b > 2",
    "!BOUND(?a) || ?a + ?b = 3",
    "?a + ?b > ?c",
    'regex(?c, "x") || ?a < ?b',
    "BOUND(?c) && !BOUND(?b) && ?a != ?c",
    "-?c = ?a - ?b",
]

SCHEMA_A = ("a", "x", "b", "c")
SCHEMA_B = ("c", "b", "x", "a")


def _store() -> TripleStore:
    return TripleStore.from_triples(
        Triple(IRI(EX + f"s{i}"), IRI(EX + "p"), term) for i, term in enumerate(TERMS)
    )


STORE = _store()
IDS = [STORE.lookup(term) for term in TERMS]


def _expression(text: str):
    return parse_group(f"{{ FILTER ({text}) }}").elements[0].expression


def _reference_keep(expression, schema, rows):
    """The per-row loop the verdict memo replaced, frozen."""
    variables = expression_variables(expression)
    slots = [(name, i) for i, name in enumerate(schema) if name in variables]
    kept = []
    for row in rows:
        binding = {}
        for name, i in slots:
            value = row[i]
            if value is UNBOUND:
                continue
            binding[name] = STORE.decode(value)
        if filter_passes(expression, binding):
            kept.append(row)
    return kept


def _reordered(row):
    """The same binding laid out in SCHEMA_B's column order."""
    return tuple(row[SCHEMA_A.index(name)] for name in SCHEMA_B)


_values = st.sampled_from(IDS + [UNBOUND])
_rows = st.lists(st.tuples(_values, _values, _values, _values), max_size=12)


def _batch(compiled, schema, rows):
    return compiled.compact(list(rows), schema)


def _per_row(compiled, schema, rows):
    keep = compiled.row_predicate(schema)
    return [row for row in rows if keep(row)]


@settings(max_examples=300, deadline=None)
@given(text=st.sampled_from(EXPRESSIONS), rows_a=_rows, extra_b=_rows)
def test_memo_forms_equal_the_row_loop(text, rows_a, extra_b):
    expression = _expression(text)
    rows_b = [_reordered(row) for row in rows_a] + extra_b
    for form in (_batch, _per_row):
        compiled = CompiledFilter(expression, STORE)
        EXEC_COUNTERS.reset()
        judged = set()
        for schema, rows in ((SCHEMA_A, rows_a), (SCHEMA_B, rows_b)):
            kept = form(compiled, schema, rows)
            assert kept == _reference_keep(expression, schema, rows), (text, schema)
            judged |= {
                row[i]
                for row in rows
                for i, name in enumerate(schema)
                if name in compiled.variables and row[i] is not UNBOUND
            }
        assert EXEC_COUNTERS.terms_decoded == len(judged), form.__name__


def test_one_filter_serves_both_forms():
    # The per-row and batch forms share one memo: the second reading
    # decodes nothing new.
    compiled = CompiledFilter(_expression("?a < ?b"), STORE)
    rows = [(IDS[0], IDS[1]), (IDS[2], IDS[1]), (IDS[1], UNBOUND)]
    EXEC_COUNTERS.reset()
    kept = compiled.compact(list(rows), ("a", "b"))
    decoded = EXEC_COUNTERS.terms_decoded
    keep = compiled.row_predicate(("b", "a"))
    assert [row for row in rows if keep(row[::-1])] == kept == [rows[0]]
    assert decoded == 3 and EXEC_COUNTERS.terms_decoded == decoded
