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
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.bgp.interface import decode_page
from repro.core import SparqlUOEngine
from repro.core.evaluator import EvaluationTrace
from repro.core.metrics import EXEC_COUNTERS
from repro.datasets import generate_lubm
from repro.datasets.queries import LUBM_QUERIES
from repro.rdf import BlankNode, IRI, Literal
from repro.rdf.terms import XSD_STRING
from repro.sparql import results
from repro.sparql.algebra import pattern_variables
from repro.sparql.bags import UNBOUND, Bag, EncodedPage
from repro.sparql.errors import QueryTimeoutError
from repro.sparql.results import CHUNK_ROWS, SERIALIZERS, WRITERS, to_tsv
from repro.sparql.expressions import order_key_for_binding
from repro.sparql.semantics import distinct_bag

from . import oracle

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


# ----------------------------------------------------------------------
# id-level pages: rendered from the ids, never from term rows
# ----------------------------------------------------------------------
def check_page(case, chunk_rows) -> None:
    page, variables, expected_bag = case
    with mock.patch.object(results, "CHUNK_ROWS", chunk_rows):
        for fmt in FORMATS:
            expected = reference(fmt, variables, expected_bag)
            _same(f"to_{fmt}(page)", SERIALIZERS[fmt](variables, page), expected)
            _same(f"write_{fmt}(page)", written(fmt, variables, page), expected)
    assert page._term_rows is None  # rendering never built the term rows


@st.composite
def pages_and_variables(draw):
    pool = draw(st.lists(terms, min_size=1, max_size=6))
    pool += [_twin(term) for term in pool if draw(st.booleans())]
    id_of = draw(st.permutations(range(1000, 1000 + len(pool))))
    terms_by_id = dict(zip(id_of, pool))
    terms_by_id[UNBOUND] = UNBOUND
    cells = st.sampled_from(sorted(id_of) + [UNBOUND])
    # The id rows are wider than the page: SELECT keeps some columns.
    id_schema = draw(
        st.lists(st.sampled_from(["x", "name", "v1", "é", "extra", "more"]), unique=True)
    )
    rows = draw(st.lists(st.tuples(*[cells for _ in id_schema]), max_size=12))
    if rows and draw(st.booleans()):
        rows = (rows * math.ceil((CHUNK_ROWS + 3) / len(rows)))[: CHUNK_ROWS + len(rows)]
    schema = draw(st.lists(st.sampled_from(id_schema), unique=True)) if id_schema else []
    id_slots = {name: id_schema.index(name) for name in schema}
    # SELECT may repeat a variable, name one the rows never bound, or
    # name a column the page does not keep.
    variables = draw(st.lists(st.sampled_from(id_schema + ["absent"]), max_size=6))
    expected = Bag.from_rows(
        schema, [tuple(terms_by_id[row[id_slots[name]]] for name in schema) for row in rows]
    )
    return EncodedPage(schema, rows, id_slots, terms_by_id), variables, expected


_PAGE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_PAGE_SETTINGS
@given(case=pages_and_variables(), chunk_rows=st.sampled_from([2, CHUNK_ROWS]))
def test_pages_match_row_at_a_time_reference(case, chunk_rows):
    check_page(case, chunk_rows)


def _shared_json_memo():
    """Mutant: every column of a result shares one memo (wrong for JSON,
    whose fragments carry their column's key)."""
    memos = {}

    def memo(self):
        return memos.setdefault(id(self), {UNBOUND: ""})

    return mock.patch.object(results._Cells, "memo", memo)


def _positional_memo():
    """Mutant: fragments keyed by the row's position in its chunk."""

    def column(self, rows, slot, memo, render):
        cells = [row[slot] for row in rows]
        keys = [UNBOUND if cell is UNBOUND else ("at", i) for i, cell in enumerate(cells)]
        for key, cell in zip(keys, cells):
            if key not in memo:
                memo[key] = render(self.terms[cell])
        return [memo[key] for key in keys]

    return mock.patch.object(results._Cells, "column", column)


@pytest.mark.parametrize("mutant", [_shared_json_memo, _positional_memo])
def test_the_page_property_catches_a_wrong_memo(mutant):
    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        derandomize=True,
        phases=[Phase.generate],
        report_multiple_bugs=False,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=pages_and_variables(), chunk_rows=st.sampled_from([2, CHUNK_ROWS]))
    def prop(case, chunk_rows):
        check_page(case, chunk_rows)

    with mutant(), pytest.raises(AssertionError, match="differs at char"):
        prop()


# ----------------------------------------------------------------------
# real results: id-level pages against the decode-every-cell path
# ----------------------------------------------------------------------
def legacy_execute(engine, text):
    """The unordered path before id-level rendering, frozen: project,
    DISTINCT, slice, then decode every cell.  Returns the term bag and
    the exec counters it accumulated."""
    prepared = engine.prepare(text)
    parsed = prepared.query
    assert not parsed.order_by and not parsed.groups
    before = EXEC_COUNTERS.snapshot()
    limit_hint = None
    if parsed.limit is not None and not parsed.deduplicates:
        limit_hint = parsed.offset + parsed.limit
    solutions = engine.evaluator.evaluate(
        prepared.tree, EvaluationTrace(), limit_hint=limit_hint
    )
    names = parsed.projection_names()
    if names is None:
        names = sorted(pattern_variables(parsed.where))
    page = solutions.project(names)
    if parsed.deduplicates:
        page = distinct_bag(page)
    end = None if parsed.limit is None else parsed.offset + parsed.limit
    page = Bag.from_rows(page.schema, page.rows[parsed.offset : end])
    decoded = Bag.from_rows(page.schema, decode_page(engine.store, page, page.schema).rows)
    return decoded, EXEC_COUNTERS.delta_since(before)


_LUBM_NS = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
_NEW = "http://new.example/"


def _new_terms_update() -> str:
    """Pending inserts that bring fresh terms into every bulk shape."""
    course = "<http://www.Department0.University0.edu/Course0>"
    lines = []
    for i in range(5):
        s = f"<{_NEW}student{i}>"
        lines.append(f'{s} <{_LUBM_NS}name> "new student {i}" .')
        if i % 2:
            lines.append(f'{s} <{_LUBM_NS}emailAddress> "new{i}@example.org" .')
        lines.append(f"{s} <{_LUBM_NS}takesCourse> {course} .")
        lines.append(f"{s} <{_LUBM_NS}takesCourse> <{_NEW}course{i}> .")
        lines.append(f'<{_NEW}course{i}> <{_LUBM_NS}name> "new course {i}"@en .')
    return "INSERT DATA { " + " ".join(lines) + " }"


@pytest.fixture(scope="module", params=["frozen", "overlay"])
def lubm_store(request, tmp_path_factory):
    from repro.storage import TripleStore

    path = str(tmp_path_factory.mktemp("lubm") / "u1.snap")
    TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(path)
    store = TripleStore.load(path)
    if request.param == "overlay":
        SparqlUOEngine(store).update(_new_terms_update())
        assert store.pending_delta != (0, 0)
    return store


PAGE_QUERIES = {**{f"lubm_{name}": text for name, text in LUBM_QUERIES.items()}, **BULK_SHAPES}


@pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
@pytest.mark.parametrize("shape", sorted(PAGE_QUERIES))
def test_pages_match_the_decoded_path(lubm_store, bgp_engine, shape):
    engine = SparqlUOEngine(lubm_store, bgp_engine=bgp_engine)
    result = engine.execute(PAGE_QUERIES[shape])
    assert isinstance(result.solutions, EncodedPage)
    decoded, legacy_counters = legacy_execute(engine, PAGE_QUERIES[shape])
    assert result.exec_counters["decoded_cells"] == 0
    assert result.exec_counters["terms_decoded"] == legacy_counters["terms_decoded"]
    for fmt in FORMATS:
        _same(
            f"{shape} as {fmt}",
            SERIALIZERS[fmt](result.variables, result.solutions),
            reference(fmt, result.variables, decoded),
        )
    assert result.solutions._term_rows is None


def test_overlay_pages_show_the_new_terms(lubm_store):
    result = SparqlUOEngine(lubm_store).execute(BULK_SHAPES["names_email"])
    payload = to_tsv(result.variables, result.solutions)
    assert ('"new student 3"' in payload) == (lubm_store.pending_delta != (0, 0))


# ----------------------------------------------------------------------
# the lazy term view
# ----------------------------------------------------------------------
VIEW_QUERIES = {
    "select_all": BULK_SHAPES["names_email"],
    "subset": "SELECT ?n ?x WHERE { ?x ub:takesCourse ?c OPTIONAL { ?c ub:name ?n } }",
    "distinct": "SELECT DISTINCT ?c WHERE { ?x ub:takesCourse ?c }",
    "limit_offset": "SELECT * WHERE { ?s ub:name ?n OPTIONAL { ?s ub:emailAddress ?e } } "
    "LIMIT 25 OFFSET 40",
}


@pytest.mark.parametrize("shape", sorted(VIEW_QUERIES))
def test_the_term_view_equals_the_decoded_bag(lubm_engine, shape):
    text = VIEW_QUERIES[shape]
    result = lubm_engine.execute(text)
    decoded, legacy_counters = legacy_execute(lubm_engine, text)
    assert result.exec_counters["terms_decoded"] == legacy_counters["terms_decoded"]
    page = result.solutions
    before = EXEC_COUNTERS.snapshot()
    # Neither the shape nor an id-level slice builds term rows.
    assert page.schema == decoded.schema
    assert len(page) == len(decoded) > 0
    assert bool(page)
    assert page.head(3).schema == page.schema
    assert EXEC_COUNTERS.delta_since(before)["decoded_cells"] == 0
    assert page.rows == decoded.rows
    assert EXEC_COUNTERS.delta_since(before)["decoded_cells"] == len(page) * len(page.schema)
    assert page == decoded and decoded == page
    assert page.head(3).rows == decoded.rows[:3]
    assert page.project(["n"]) == decoded.project(["n"])
    # Iteration, like ``rows``, builds them (once per page).
    fresh = lubm_engine.execute(text).solutions
    before = EXEC_COUNTERS.snapshot()
    assert list(fresh) == list(decoded)
    assert EXEC_COUNTERS.delta_since(before)["decoded_cells"] == len(page) * len(page.schema)


# ----------------------------------------------------------------------
# one result form: ordered and grouped answers are id-level pages too
# ----------------------------------------------------------------------
_UB = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
FORM_QUERIES = {
    "plain": _UB + "SELECT ?x ?n WHERE { ?x ub:name ?n OPTIONAL { ?x ub:emailAddress ?e } }",
    "distinct": _UB + "SELECT DISTINCT ?c WHERE { ?x ub:takesCourse ?c }",
    "limit_offset": _UB + "SELECT * WHERE { ?s ub:name ?n OPTIONAL { ?s ub:emailAddress ?e } } "
    "LIMIT 25 OFFSET 40",
    # ?n orders but is not projected; ties on it fall back to ?c.
    "order_multi_key": _UB + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . ?x ub:name ?n } "
    "ORDER BY DESC(?n) ASC(?c) LIMIT 60 OFFSET 7",
    "group_order_by_alias": _UB + "SELECT ?c (COUNT(?x) AS ?k) (MIN(?n) AS ?m) WHERE { "
    "?x ub:takesCourse ?c . ?x ub:name ?n } GROUP BY ?c ORDER BY DESC(?k) ?c",
    "aggregate_no_group": _UB + "SELECT (COUNT(*) AS ?k) (MAX(?n) AS ?m) WHERE { ?x ub:name ?n }",
}


def frozen_execute(engine, text):
    """The term-level modifier pipeline, frozen: decode every cell of
    the evaluator's bag here (one dictionary batch, then a lookup per
    cell), then group, order, project, dedupe and slice the term
    mappings with the oracle's semantics.  Returns (variables, rows)."""
    prepared = engine.prepare(text)
    parsed = prepared.query
    limit_hint = None
    if parsed.limit is not None and not (
        parsed.order_by or parsed.deduplicates or parsed.groups
    ):
        limit_hint = parsed.offset + parsed.limit
    bag = engine.evaluator.evaluate(prepared.tree, EvaluationTrace(), limit_hint=limit_hint)
    ids = {cell for row in bag.rows for cell in row if cell is not UNBOUND}
    terms = engine.store.decode_many(ids)
    solutions = [
        {name: terms[cell] for name, cell in zip(bag.schema, row) if cell is not UNBOUND}
        for row in bag.rows
    ]
    if parsed.groups:
        solutions = oracle.grouped_solutions(parsed, solutions)
    names = parsed.projection_names()
    if names is None:
        names = sorted(pattern_variables(parsed.where))
    for condition in reversed(parsed.order_by):
        solutions.sort(
            key=lambda mu, e=condition.expression: order_key_for_binding(e, mu),
            reverse=not condition.ascending,
        )
    rows = [{name: mu[name] for name in names if name in mu} for mu in solutions]
    if parsed.deduplicates:
        rows = list({oracle.solution_key(mu): mu for mu in rows}.values())
    rows = rows[parsed.offset :]
    if parsed.limit is not None:
        rows = rows[: parsed.limit]
    return list(names), rows


@pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
@pytest.mark.parametrize("shape", sorted(FORM_QUERIES))
def test_every_select_is_an_id_level_page(lubm_store, bgp_engine, shape):
    engine = SparqlUOEngine(lubm_store, bgp_engine=bgp_engine)
    result = engine.execute(FORM_QUERIES[shape])
    assert isinstance(result.solutions, EncodedPage)
    assert result.exec_counters["decoded_cells"] == 0
    variables, rows = frozen_execute(engine, FORM_QUERIES[shape])
    assert result.variables == variables and len(rows) > 0
    for fmt in FORMATS:
        _same(
            f"{shape} as {fmt}",
            SERIALIZERS[fmt](result.variables, result.solutions),
            reference(fmt, variables, rows),
        )
    assert result.solutions._term_rows is None


def test_order_by_decodes_only_its_keys_and_the_page(lubm_store):
    text = _UB + "SELECT ?x ?n WHERE { ?x ub:name ?n } ORDER BY ?n LIMIT 10"
    engine = SparqlUOEngine(lubm_store)
    result = engine.execute(text)
    bag = engine.evaluator.evaluate(engine.prepare(text).tree, EvaluationTrace())
    keys = bag.distinct_values("n")
    page = result.solutions
    shown = {row[slot] for row in page.id_rows for slot in page.id_slots.values()}
    assert result.exec_counters["terms_decoded"] == len(keys | shown)
    every = {cell for row in bag.rows for cell in row}
    assert len(keys | shown) < len(every)  # the whole bag is never decoded


def test_order_by_stays_abortable(lubm_u1_store):
    """The ORDER BY key loop re-enters the checkpoint once per 4096
    rows, as decoding the whole bag once did."""
    where = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
    engine = SparqlUOEngine(lubm_u1_store)
    calls = {"plain": 0, "ordered": 0}
    for label, text in (("plain", where), ("ordered", where + " ORDER BY ?o")):

        def checkpoint(label=label):
            calls[label] += 1

        rows = len(engine.execute(text, checkpoint=checkpoint))
    assert rows == 12_902
    assert calls["ordered"] - calls["plain"] >= rows // 4096
