"""SPARQL 1.1 Protocol request parsing and content negotiation.

Implements the query operation of the W3C *SPARQL 1.1 Protocol* over
plain WSGI-free primitives (method, path query string, headers, body),
so it is testable without a socket and reusable from any HTTP front
end:

- ``GET /sparql?query=…`` — query via URL parameter;
- ``POST /sparql`` with ``application/x-www-form-urlencoded`` — query
  via ``query=`` form parameter;
- ``POST /sparql`` with ``application/sparql-query`` — query direct in
  the body.

Result formats are negotiated from the ``Accept`` header (with q-value
ranking) across the three serializers of :mod:`repro.sparql.results`;
a non-standard-but-ubiquitous ``format=json|csv|tsv`` parameter
overrides negotiation for curl-friendliness.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs

__all__ = [
    "FORMAT_MEDIA_TYPES",
    "MEDIA_TYPE_FORMATS",
    "ProtocolError",
    "SparqlRequest",
    "negotiate_format",
    "parse_sparql_request",
    "parse_update_request",
]

#: format key → response Content-Type.
FORMAT_MEDIA_TYPES: Dict[str, str] = {
    "json": "application/sparql-results+json",
    "csv": "text/csv; charset=utf-8",
    "tsv": "text/tab-separated-values; charset=utf-8",
}

#: Accept-header media type → format key (aliases included).
MEDIA_TYPE_FORMATS: Dict[str, str] = {
    "application/sparql-results+json": "json",
    "application/json": "json",
    "text/csv": "csv",
    "text/tab-separated-values": "tsv",
}

_FORM_URLENCODED = "application/x-www-form-urlencoded"
_SPARQL_QUERY = "application/sparql-query"
_SPARQL_UPDATE = "application/sparql-update"


class ProtocolError(Exception):
    """A malformed or unsatisfiable protocol request.

    Carries the HTTP status the front end should answer with (400 for
    malformed requests, 406 when no acceptable format exists, 415 for
    unsupported POST bodies).
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class SparqlRequest:
    """A validated protocol request: the query text and result format."""

    __slots__ = ("query", "format")

    def __init__(self, query: str, format: str):
        self.query = query
        self.format = format

    def __repr__(self) -> str:
        return f"SparqlRequest(format={self.format!r}, query={self.query[:60]!r})"


def _accept_ranges(accept: str) -> List[Tuple[float, int, str]]:
    """Parse an Accept header into (q, order, media-type) descending."""
    ranges: List[Tuple[float, int, str]] = []
    for order, part in enumerate(accept.split(",")):
        fields = part.strip().split(";")
        media = fields[0].strip().lower()
        if not media:
            continue
        q = 1.0
        for parameter in fields[1:]:
            name, _, value = parameter.strip().partition("=")
            if name.strip() == "q":
                try:
                    q = float(value.strip())
                except ValueError:
                    q = 0.0
                if not 0.0 <= q <= 1.0:  # NaN, inf and out-of-range: unparsable
                    q = 0.0
        ranges.append((q, order, media))
    # Highest q first; header order breaks ties.
    ranges.sort(key=lambda item: (-item[0], item[1]))
    return ranges


def negotiate_format(
    accept: Optional[str],
    explicit: Optional[str] = None,
    offered: Optional[List[str]] = None,
) -> str:
    """The response format for a request: ``json``, ``csv`` or ``tsv``.

    ``explicit`` (the ``format=`` parameter) wins outright; otherwise
    the ``Accept`` header is matched with q-value ranking; an absent or
    fully wildcard header falls back to the first offered format.
    Raises :class:`ProtocolError` (400 / 406) when nothing fits.
    """
    offered = offered or list(FORMAT_MEDIA_TYPES)
    if explicit is not None:
        key = explicit.strip().lower()
        if key not in FORMAT_MEDIA_TYPES or key not in offered:
            raise ProtocolError(
                400, f"unknown format {explicit!r}; choose from {', '.join(offered)}"
            )
        return key
    if not accept or not accept.strip():
        return offered[0]
    for q, _, media in _accept_ranges(accept):
        if q <= 0:
            continue
        if media in ("*/*",):
            return offered[0]
        key = MEDIA_TYPE_FORMATS.get(media)
        if key is not None and key in offered:
            return key
        if media.endswith("/*"):
            prefix = media[:-1]  # e.g. "text/"
            for candidate in offered:
                if FORMAT_MEDIA_TYPES[candidate].startswith(prefix):
                    return candidate
    raise ProtocolError(
        406,
        "no acceptable result format; the endpoint offers "
        + ", ".join(FORMAT_MEDIA_TYPES[k].split(";")[0] for k in offered),
    )


def _parameters(encoded: str, where: str) -> Dict[str, List[str]]:
    """Parse URL or form parameters; an escape that decodes to invalid
    UTF-8 is a 400, never a silent U+FFFD in the query text."""
    try:
        return parse_qs(encoded, keep_blank_values=True, errors="strict")
    except UnicodeDecodeError:
        raise ProtocolError(400, f"{where} is not valid UTF-8") from None


def _utf8(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(400, "request body is not valid UTF-8") from None


def _single_parameter(values: Dict[str, List[str]], name: str) -> Optional[str]:
    got = values.get(name)
    if not got:
        return None
    if len(got) > 1:
        raise ProtocolError(400, f"parameter {name!r} given more than once")
    return got[0]


def parse_sparql_request(
    method: str,
    query_string: str,
    headers: Mapping[str, str],
    body: bytes,
    offered: Optional[List[str]] = None,
) -> SparqlRequest:
    """Validate one protocol request into a :class:`SparqlRequest`.

    ``headers`` lookups are case-insensitive on the caller's side
    (the server's request-head reader provides that); only
    ``Content-Type`` and ``Accept`` are consulted.
    """
    url_parameters = _parameters(query_string, "query string")
    query: Optional[str] = None
    if method == "GET":
        query = _single_parameter(url_parameters, "query")
        if query is None:
            raise ProtocolError(400, "missing required parameter 'query'")
    elif method == "POST":
        content_type = (headers.get("Content-Type") or "").split(";")[0].strip().lower()
        if content_type == _FORM_URLENCODED:
            form = _parameters(_utf8(body), "request body")
            query = _single_parameter(form, "query")
            if query is None:
                raise ProtocolError(400, "missing required form parameter 'query'")
            # format may ride in the form as well as in the URL.
            for key, values in form.items():
                if key == "format":
                    url_parameters.setdefault(key, []).extend(values)
        elif content_type == _SPARQL_QUERY:
            query = _utf8(body)
        elif not content_type:
            raise ProtocolError(400, "POST requires a Content-Type header")
        else:
            raise ProtocolError(
                415,
                f"unsupported Content-Type {content_type!r}; use "
                f"{_FORM_URLENCODED} or {_SPARQL_QUERY}",
            )
    else:
        raise ProtocolError(405, f"method {method} not allowed; use GET or POST")
    if not query.strip():
        raise ProtocolError(400, "empty query")
    explicit = _single_parameter(url_parameters, "format")
    chosen = negotiate_format(headers.get("Accept"), explicit, offered)
    return SparqlRequest(query=query, format=chosen)


def parse_update_request(method: str, headers: Mapping[str, str], body: bytes) -> str:
    """Validate one SPARQL 1.1 Protocol update operation into its text.

    The protocol's update operation is POST-only (updates are not safe
    or idempotent, so no GET form exists):

    - ``POST /update`` with ``application/x-www-form-urlencoded`` —
      update via ``update=`` form parameter;
    - ``POST /update`` with ``application/sparql-update`` — update
      direct in the body.
    """
    if method != "POST":
        raise ProtocolError(405, f"method {method} not allowed; updates require POST")
    content_type = (headers.get("Content-Type") or "").split(";")[0].strip().lower()
    if content_type == _FORM_URLENCODED:
        update = _single_parameter(_parameters(_utf8(body), "request body"), "update")
        if update is None:
            raise ProtocolError(400, "missing required form parameter 'update'")
    elif content_type == _SPARQL_UPDATE:
        update = _utf8(body)
    elif not content_type:
        raise ProtocolError(400, "POST requires a Content-Type header")
    else:
        raise ProtocolError(
            415,
            f"unsupported Content-Type {content_type!r}; use "
            f"{_FORM_URLENCODED} or {_SPARQL_UPDATE}",
        )
    if not update.strip():
        raise ProtocolError(400, "empty update")
    return update
