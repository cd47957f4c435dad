"""The fragment-memo serializers against a frozen row-at-a-time reference.

``repro.sparql.results`` renders each distinct term once and assembles
rows from cached fragments, one chunk of rows at a time.  The reference
below is the serializer it replaced — one binding dict and one
``json.dumps`` per row, one escaped cell per cell — kept verbatim as the
oracle: for every generated bag, ``to_*``, the concatenated
``write_*`` output and the reference must agree byte for byte.
"""

from __future__ import annotations

import io
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SparqlUOEngine
from repro.datasets import generate_lubm
from repro.datasets.queries import LUBM_QUERIES
from repro.rdf import BlankNode, IRI, Literal
from repro.rdf.terms import XSD_STRING
from repro.sparql import results
from repro.sparql.bags import UNBOUND, Bag
from repro.sparql.errors import QueryTimeoutError
from repro.sparql.results import CHUNK_ROWS, SERIALIZERS, WRITERS

FORMATS = ("json", "csv", "tsv")


# ----------------------------------------------------------------------
# the reference: the row-at-a-time serializers, frozen
# ----------------------------------------------------------------------
def _ref_bindings(variables, solutions):
    for mapping in solutions:
        yield [(i, var, mapping[var]) for i, var in enumerate(variables) if var in mapping]


def _ref_encode(term):
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    out = {"type": "literal", "value": term.lexical}
    if term.language:
        out["xml:lang"] = term.language
    elif term.datatype != XSD_STRING:
        out["datatype"] = term.datatype
    return out


def _ref_json(out, variables, solutions):
    head = json.dumps({"head": {"vars": list(variables)}}, ensure_ascii=False)
    out.write(head[:-1])
    out.write(', "results": {"bindings": [')
    first = True
    for triples in _ref_bindings(variables, solutions):
        if not first:
            out.write(", ")
        first = False
        binding = {var: _ref_encode(term) for _, var, term in triples}
        out.write(json.dumps(binding, ensure_ascii=False))
    out.write("]}}")


def _ref_csv_cell(term):
    if isinstance(term, IRI):
        cell = term.value
    elif isinstance(term, BlankNode):
        cell = f"_:{term.label}"
    else:
        cell = term.lexical
    if any(ch in cell for ch in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _ref_delimited(out, variables, solutions, header, sep, newline, cell):
    out.write(sep.join(header) + newline)
    for triples in _ref_bindings(variables, solutions):
        cells = [""] * len(variables)
        for position, _, term in triples:
            cells[position] = cell(term)
        out.write(sep.join(cells) + newline)


def _ref_csv(out, variables, solutions):
    _ref_delimited(out, variables, solutions, variables, ",", "\r\n", _ref_csv_cell)


def _ref_tsv(out, variables, solutions):
    header = [f"?{var}" for var in variables]
    _ref_delimited(out, variables, solutions, header, "\t", "\n", lambda term: term.n3())


REFERENCE = {"json": _ref_json, "csv": _ref_csv, "tsv": _ref_tsv}


def reference(fmt, variables, bag) -> str:
    buffer = io.StringIO()
    REFERENCE[fmt](buffer, variables, iter(bag))  # the per-row dict feed
    return buffer.getvalue()


def written(fmt, variables, solutions) -> str:
    chunks = []

    class Sink:
        write = chunks.append

    WRITERS[fmt](Sink(), variables, solutions)
    return "".join(chunks)


def _same(what: str, got: str, expected: str) -> None:
    # Reports the first difference instead of letting pytest diff two
    # payloads of thousands of rows, which takes minutes per shrink step.
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        window = slice(max(0, at - 30), at + 30)
        raise AssertionError(
            f"{what} differs at char {at}: {got[window]!r} != {expected[window]!r}"
        )


def assert_identical(variables, bag) -> None:
    for fmt in FORMATS:
        expected = reference(fmt, variables, bag)
        _same(f"to_{fmt}", SERIALIZERS[fmt](variables, bag), expected)
        _same(f"write_{fmt}", written(fmt, variables, bag), expected)
        # Mapping input is wrapped into a bag once, with the same output.
        _same(f"to_{fmt}(mappings)", SERIALIZERS[fmt](variables, list(bag)), expected)


# ----------------------------------------------------------------------
# generated bags
# ----------------------------------------------------------------------
_AWKWARD = '"\',\r\n\t\\ aé世\u2028\u00a0{}:'
_text = st.text(st.sampled_from(_AWKWARD), max_size=8) | st.text(max_size=6)
_nonempty = st.text(st.sampled_from(_AWKWARD), min_size=1, max_size=8) | st.text(
    min_size=1, max_size=6
)
_DATATYPES = (
    "http://www.w3.org/2001/XMLSchema#integer",
    "http://www.w3.org/2001/XMLSchema#date",
    'http://example.org/odd"type',
)

terms = st.one_of(
    st.builds(IRI, _nonempty),
    st.builds(BlankNode, _nonempty),
    st.builds(Literal, _text),
    st.builds(Literal, _text, language=st.sampled_from(["en", "en-US", "fr", "zh-Hant"])),
    st.builds(Literal, _text, datatype=st.sampled_from(_DATATYPES)),
)


def _twin(term):
    """A value-equal term that is a distinct object."""
    if isinstance(term, IRI):
        return IRI(term.value)
    if isinstance(term, BlankNode):
        return BlankNode(term.label)
    return Literal(term.lexical, language=term.language, datatype=term.datatype)


@st.composite
def bags_and_variables(draw):
    pool = draw(st.lists(terms, min_size=1, max_size=6))
    pool += [_twin(term) for term in pool if draw(st.booleans())]
    cells = st.sampled_from(pool + [UNBOUND])
    schema = draw(st.lists(st.sampled_from(["x", "name", "v1", "é"]), unique=True))
    rows = draw(st.lists(st.tuples(*[cells for _ in schema]), max_size=12))
    if rows and draw(st.booleans()):
        # Past one real chunk: the row stream restarts mid-bag.
        rows = (rows * math.ceil((CHUNK_ROWS + 3) / len(rows)))[: CHUNK_ROWS + len(rows)]
    # The request may name a variable the bag never bound.
    variables = draw(st.lists(st.sampled_from(schema + ["absent"]), unique=True))
    return Bag.from_rows(schema, rows), variables


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# A 2-row chunk puts chunk boundaries inside small bags too, so a
# boundary defect shrinks to a few rows instead of thousands.
@given(case=bags_and_variables(), chunk_rows=st.sampled_from([2, CHUNK_ROWS]))
def test_fragments_match_row_at_a_time_reference(case, chunk_rows):
    bag, variables = case
    with mock.patch.object(results, "CHUNK_ROWS", chunk_rows):
        assert_identical(variables, bag)


def test_shared_term_across_rows_and_columns():
    shared = Literal('a "shared", term\n', language="en")
    twin = _twin(shared)
    bag = Bag.from_rows(["a", "b"], [(shared, shared), (twin, UNBOUND), (UNBOUND, shared)])
    assert_identical(["b", "a"], bag)
    assert_identical(["a", "b", "a"], bag)  # a repeated variable


def test_empty_bag_and_zero_variables():
    assert_identical(["x"], Bag.empty())
    assert_identical([], Bag.empty())
    assert_identical([], Bag.from_rows(["x"], [(IRI("http://x/a"),)] * 3))


# ----------------------------------------------------------------------
# real results: the three bulk_rows query shapes on LUBM u1
# ----------------------------------------------------------------------
BULK_SHAPES = {
    "names_email": "SELECT * WHERE { ?s ub:name ?n OPTIONAL { ?s ub:emailAddress ?e } }",
    "course_union": (
        "SELECT * WHERE { { ?x ub:takesCourse ?c } UNION { ?x ub:teacherOf ?c } "
        "OPTIONAL { ?c ub:name ?n } }"
    ),
    "lubm_q1.1": LUBM_QUERIES["q1.1"],
}


@pytest.fixture(scope="module")
def lubm_engine():
    return SparqlUOEngine.for_dataset(generate_lubm(universities=1, seed=42))


@pytest.mark.parametrize("shape", sorted(BULK_SHAPES))
def test_lubm_bulk_shapes_match_reference(lubm_engine, shape):
    result = lubm_engine.execute(BULK_SHAPES[shape])
    assert len(result) > 0
    assert_identical(result.variables, result.solutions)


# ----------------------------------------------------------------------
# the deadline reaches serialization
# ----------------------------------------------------------------------
def _big_bag(rows: int = 10_000) -> Bag:
    pool = [IRI(f"http://x/{i}") for i in range(50)]
    names = [Literal(f"name {i}", language="en") for i in range(7)]
    return Bag.from_rows(
        ["s", "n"], [(pool[i % 50], names[i % 7] if i % 3 else UNBOUND) for i in range(rows)]
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_checkpoint_fires_once_per_chunk(fmt):
    bag = _big_bag()
    calls = []
    SERIALIZERS[fmt](["s", "n"], bag, checkpoint=lambda: calls.append(1))
    assert len(calls) >= math.ceil(len(bag) / CHUNK_ROWS)


@pytest.mark.parametrize("fmt", FORMATS)
def test_checkpoint_timeout_aborts_serialization(fmt):
    calls = []

    def checkpoint():
        calls.append(1)
        if len(calls) == 2:
            raise QueryTimeoutError(0.5)

    with pytest.raises(QueryTimeoutError):
        SERIALIZERS[fmt](["s", "n"], _big_bag(), checkpoint=checkpoint)
    assert len(calls) == 2
