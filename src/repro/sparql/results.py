"""SELECT-result serialization: SPARQL 1.1 JSON, CSV and TSV formats.

Downstream consumers of a SPARQL engine almost always want results in
the W3C interchange formats rather than Python objects; this module
renders a solution bag — the id-level
:class:`~repro.sparql.bags.EncodedPage` that
:meth:`repro.core.engine.SparqlUOEngine.execute` returns for every
SELECT, or any term-level :class:`~repro.sparql.bags.Bag` — in:

- the *SPARQL 1.1 Query Results JSON Format* (``application/sparql-results+json``),
- the *SPARQL 1.1 Query Results CSV Format* (``text/csv``),
- the *SPARQL 1.1 Query Results TSV Format* (``text/tab-separated-values``).

All follow the specs' term-rendering rules: IRIs as ``uri`` bindings,
literals with ``xml:lang`` / ``datatype`` where present, blank nodes as
``bnode``; unbound variables are simply absent (JSON) or empty (CSV /
TSV).  CSV renders bare lexical values (lossy by design); TSV renders
full N-Triples term syntax, so terms survive a round trip.

**One fragment per distinct term.**  A result repeats a few hundred
terms across its cells.  Each format therefore has one chunk generator
that walks the rows by slot and renders each distinct cell once into a
memo — one memo per column for JSON (the fragment includes its
``"var": `` prefix), one shared memo for CSV/TSV — then assembles rows
by joining cached fragments.  There is one result form (:class:`_Cells`):
an id-level page, whose cells key the memo and reach their terms
through the page's id → term map (decoded in one batch by ``execute``;
a GROUP BY aggregate result keys itself), so no term row is ever
built.  A term-level bag from a library caller becomes a page whose
map sends each cell to itself.  JSON fragments are escaped
with :func:`json.encoder.encode_basestring`, the escaper behind
``json.dumps(ensure_ascii=False)``, so the output is byte-identical to
dumping one binding object per row.

**Chunks and deadlines.**  The generators yield one string per
:data:`CHUNK_ROWS` rows, the document's head glued to the first and its
tail to the last, and call the optional ``checkpoint`` before each, the
amortisation of ``ticked_rows``' default mask: the protocol server's
workers pass the query's deadline hook, so serializing a huge result
stays abortable.  The workers reach the generators through
:data:`CHUNKS` and encode each chunk to UTF-8 once, as one pipe frame,
so a large result is never joined whole (:mod:`repro.server.pool`).
``write_json`` / ``write_csv`` / ``write_tsv`` write the chunks into
any ``.write()``-able object (the CLI streams to its output); ``to_*``
joins them into one string, reached via :data:`SERIALIZERS`.  Input
that is not a :class:`~repro.sparql.bags.Bag` is wrapped once with
``Bag(solutions)``.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..rdf.terms import BlankNode, GroundTerm, IRI, Literal, XSD_STRING
from .bags import Bag, EncodedPage, Mapping, Row, UNBOUND

__all__ = [
    "CHUNK_ROWS",
    "CHUNKS",
    "to_json",
    "to_json_dict",
    "to_csv",
    "to_tsv",
    "write_json",
    "write_csv",
    "write_tsv",
    "SERIALIZERS",
    "WRITERS",
]

#: Rows per yielded chunk (and per ``checkpoint`` call).
CHUNK_ROWS = 4096

Checkpoint = Optional[Callable[[], None]]


class _Itself(dict):
    """The id → term map of a term-level bag: each cell is its own term."""

    def __missing__(self, cell):
        return cell


class _Cells:
    """How the chunk generators reach a result's cells: the id rows,
    each variable's slot in them and the page's id → term map (see the
    module docstring)."""

    __slots__ = ("rows", "slot", "terms")

    def __init__(self, solutions: Iterable[Mapping]):
        if isinstance(solutions, EncodedPage):
            page = solutions
        else:
            # A term-level bag is a page whose map sends each cell to itself.
            bag = solutions if isinstance(solutions, Bag) else Bag(solutions)
            slots = {name: bag.slot(name) for name in bag.schema}
            page = EncodedPage(bag.schema, bag.rows, slots, _Itself())
        self.rows: List[Row] = page.id_rows
        self.slot: Callable[[str], Optional[int]] = page.id_slots.get
        self.terms: Dict[object, GroundTerm] = page.terms

    def memo(self) -> Dict[object, str]:
        """A fresh fragment memo, with the unbound cell rendered as ``""``."""
        return {UNBOUND: ""}

    def chunks(self, checkpoint: Checkpoint) -> Iterator[List[Row]]:
        """The rows, :data:`CHUNK_ROWS` at a time, ``checkpoint`` before each."""
        rows = self.rows
        for start in range(0, len(rows), CHUNK_ROWS):
            if checkpoint is not None:
                checkpoint()
            yield rows[start : start + CHUNK_ROWS]

    def column(
        self,
        rows: List[Row],
        slot: int,
        memo: Dict[object, str],
        render: Callable[[GroundTerm], str],
    ) -> List[str]:
        """The fragments of column ``slot`` over ``rows``, each distinct
        cell rendered once into ``memo``."""
        try:
            return list(map(memo.__getitem__, map(itemgetter(slot), rows)))
        except KeyError:
            terms = self.terms
            for cell in map(itemgetter(slot), rows):
                if cell not in memo:
                    memo[cell] = render(terms[cell])
            return self.column(rows, slot, memo, render)


def _json_term(term: GroundTerm) -> str:
    """One binding value, as ``json.dumps(..., ensure_ascii=False)`` renders it."""
    if isinstance(term, IRI):
        return '{"type": "uri", "value": ' + encode_basestring(term.value) + "}"
    if isinstance(term, BlankNode):
        return '{"type": "bnode", "value": ' + encode_basestring(term.label) + "}"
    if isinstance(term, Literal):
        out = '{"type": "literal", "value": ' + encode_basestring(term.lexical)
        if term.language:
            return out + ', "xml:lang": ' + encode_basestring(term.language) + "}"
        if term.datatype != XSD_STRING:
            return out + ', "datatype": ' + encode_basestring(term.datatype) + "}"
        return out + "}"
    raise TypeError(f"cannot serialize {term!r} as a result binding")


def _json_member(prefix: str, term: GroundTerm) -> str:
    return prefix + _json_term(term)


def to_json_dict(variables: Sequence[str], solutions: Iterable[Mapping]) -> dict:
    """The results document as a plain dict (for programmatic use)."""
    return json.loads(to_json(variables, solutions))


def _framed(head: str, bodies: Iterator[str], tail: str) -> Iterator[str]:
    """One string per chunk of rows: ``head`` glued to the first body and
    ``tail`` to the last (``head + tail`` alone when there are no rows)."""
    pending = None
    for body in bodies:
        if pending is not None:
            yield pending
            pending = body
        else:
            pending = head + body
    yield (head if pending is None else pending) + tail


def _json_chunks(
    variables: Sequence[str], solutions: Iterable[Mapping], checkpoint: Checkpoint = None
) -> Iterator[str]:
    cells = _Cells(solutions)
    # The head document, reopened: its closing brace is stripped.
    head = json.dumps({"head": {"vars": list(variables)}}, ensure_ascii=False)
    # Every fragment carries its leading ", " so an unbound cell is ""
    # and a row's first separator is sliced off after the join.  A
    # binding object names each variable once, at its first position.
    columns = []
    for var in dict.fromkeys(variables):
        slot = cells.slot(var)
        if slot is not None:
            render = partial(_json_member, f", {encode_basestring(var)}: ")
            columns.append((slot, cells.memo(), render))

    def bodies() -> Iterator[str]:
        separator = ""
        for rows in cells.chunks(checkpoint):
            if columns:
                fragments = zip(
                    *[cells.column(rows, slot, memo, render) for slot, memo, render in columns]
                )
                objects = ["".join(row)[2:] for row in fragments]
            else:
                objects = [""] * len(rows)
            yield separator + "{" + "}, {".join(objects) + "}"
            separator = ", "

    return _framed(head[:-1] + ', "results": {"bindings": [', bodies(), "]}}")


def write_json(
    out,
    variables: Sequence[str],
    solutions: Iterable[Mapping],
    indent: Optional[int] = None,
) -> None:
    """Stream SPARQL 1.1 Query Results JSON into ``out``.

    With ``indent=None`` (the streaming default) the head is written
    first and the bindings follow one chunk of rows at a time, so the
    whole document never has to exist at once.  Indented output
    delegates to :func:`to_json_dict` for exact ``json.dumps``
    formatting.
    """
    if indent is not None:
        out.write(to_json(variables, solutions, indent=indent))
        return
    for chunk in _json_chunks(variables, solutions):
        out.write(chunk)


def to_json(
    variables: Sequence[str],
    solutions: Iterable[Mapping],
    indent: Optional[int] = None,
    checkpoint: Checkpoint = None,
) -> str:
    """SPARQL 1.1 Query Results JSON text."""
    if indent is not None:
        return json.dumps(to_json_dict(variables, solutions), indent=indent, ensure_ascii=False)
    return "".join(_json_chunks(variables, solutions, checkpoint))


def _delimited_chunks(
    header: str,
    separator: str,
    newline: str,
    render: Callable[[GroundTerm], str],
    variables: Sequence[str],
    solutions: Iterable[Mapping],
    checkpoint: Checkpoint,
) -> Iterator[str]:
    cells = _Cells(solutions)
    memo = cells.memo()
    slots = [cells.slot(var) for var in variables]

    def bodies() -> Iterator[str]:
        for rows in cells.chunks(checkpoint):
            blank = [""] * len(rows)
            columns = [
                blank if slot is None else cells.column(rows, slot, memo, render)
                for slot in slots
            ]
            lines = map(separator.join, zip(*columns)) if columns else blank
            yield newline.join(lines) + newline

    return _framed(header + newline, bodies(), "")


def _csv_cell(term: GroundTerm) -> str:
    # The CSV results format renders the plain value: IRIs bare,
    # literals as their lexical form, blank nodes prefixed "_:".
    if isinstance(term, IRI):
        cell = term.value
    elif isinstance(term, BlankNode):
        cell = f"_:{term.label}"
    elif isinstance(term, Literal):
        cell = term.lexical
    else:
        raise TypeError(f"cannot serialize {term!r} as a CSV cell")
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_chunks(
    variables: Sequence[str], solutions: Iterable[Mapping], checkpoint: Checkpoint = None
) -> Iterator[str]:
    return _delimited_chunks(
        ",".join(variables), ",", "\r\n", _csv_cell, variables, solutions, checkpoint
    )


def write_csv(out, variables: Sequence[str], solutions: Iterable[Mapping]) -> None:
    """Stream SPARQL 1.1 Query Results CSV into ``out`` (CRLF per spec)."""
    for chunk in _csv_chunks(variables, solutions):
        out.write(chunk)


def to_csv(
    variables: Sequence[str], solutions: Iterable[Mapping], checkpoint: Checkpoint = None
) -> str:
    """SPARQL 1.1 Query Results CSV text (CRLF line endings per spec)."""
    return "".join(_csv_chunks(variables, solutions, checkpoint))


def _tsv_cell(term: GroundTerm) -> str:
    if isinstance(term, (IRI, BlankNode, Literal)):
        return term.n3()
    raise TypeError(f"cannot serialize {term!r} as a TSV cell")


def _tsv_chunks(
    variables: Sequence[str], solutions: Iterable[Mapping], checkpoint: Checkpoint = None
) -> Iterator[str]:
    header = "\t".join(f"?{var}" for var in variables)
    return _delimited_chunks(header, "\t", "\n", _tsv_cell, variables, solutions, checkpoint)


def write_tsv(out, variables: Sequence[str], solutions: Iterable[Mapping]) -> None:
    """Stream SPARQL 1.1 Query Results TSV into ``out``.

    Unlike CSV's bare values, the TSV format renders each term in full
    N-Triples syntax — ``<iri>``, ``"literal"@lang``,
    ``"5"^^<…#integer>``, ``_:bnode`` — and the header carries the
    ``?``-prefixed variable names.  N-Triples escaping (``\\t``,
    ``\\n``, …) is what keeps embedded delimiters unambiguous, so no
    additional quoting layer exists; terms round-trip losslessly.
    """
    for chunk in _tsv_chunks(variables, solutions):
        out.write(chunk)


def to_tsv(
    variables: Sequence[str], solutions: Iterable[Mapping], checkpoint: Checkpoint = None
) -> str:
    """SPARQL 1.1 Query Results TSV text."""
    return "".join(_tsv_chunks(variables, solutions, checkpoint))


#: Format key → chunk generator ``(variables, solutions, checkpoint)``
#: (the protocol server's workers encode each chunk as one pipe frame),
#: format key → string serializer and format key → incremental writer
#: (the CLI streams straight to its output); media types live in
#: ``repro.server.protocol.FORMAT_MEDIA_TYPES``.
CHUNKS = {"json": _json_chunks, "csv": _csv_chunks, "tsv": _tsv_chunks}
SERIALIZERS = {"json": to_json, "csv": to_csv, "tsv": to_tsv}
WRITERS = {"json": write_json, "csv": write_csv, "tsv": write_tsv}
