"""Fuzz tests: malformed input must fail with *our* exceptions.

A production front end's contract is that arbitrary text produces
either a parse or a :class:`SparqlError` — never an AttributeError,
RecursionError or IndexError leaking from the internals.  Same for the
N-Triples reader.
"""

from hypothesis import example, given, settings, strategies as st

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples_string
from repro.sparql import SparqlError, parse_query
from repro.sparql.tokenizer import tokenize


# Alphabet biased toward SPARQL-significant characters so the fuzzer
# spends its budget near the grammar instead of deep inside literals.
_sparql_soup = st.text(
    alphabet=st.sampled_from(
        list("{}?<>.\"' \nSELECTWHEREUNIONOPTIONALabcxyz:/#@^123*$_-\\u\u00b2")
    ),
    max_size=120,
)

# Lexical errors that must surface as SparqlError, not ValueError:
# malformed \u escapes and a non-ASCII digit.
_BAD_ESCAPE = 'SELECT * WHERE { ?s ?p "x\\uZZZZ" }'
_SHORT_ESCAPE = 'INSERT DATA { <http://a> <http://b> "x\\u12" }'
_SUPERSCRIPT_LIMIT = "SELECT * WHERE { ?s ?p ?o } LIMIT \u00b2"


class TestParserRobustness:
    @settings(max_examples=300, deadline=None)
    @given(_sparql_soup)
    @example(_BAD_ESCAPE)
    @example(_SUPERSCRIPT_LIMIT)
    @example(_SHORT_ESCAPE)
    def test_parse_query_raises_only_sparql_errors(self, text):
        try:
            parse_query(text)
        except SparqlError:
            pass  # the documented failure mode

    @settings(max_examples=200, deadline=None)
    @given(_sparql_soup)
    @example(_BAD_ESCAPE)
    @example(_SUPERSCRIPT_LIMIT)
    @example(_SHORT_ESCAPE)
    def test_tokenizer_raises_only_sparql_errors(self, text):
        try:
            tokenize(text)
        except SparqlError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=200))
    def test_parser_survives_arbitrary_unicode(self, text):
        try:
            parse_query(text)
        except SparqlError:
            pass


class TestNTriplesRobustness:
    @settings(max_examples=200, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(list('<>"_:. \\naéb#^@0')),
            max_size=100,
        )
    )
    def test_ntriples_raises_only_parse_errors(self, text):
        try:
            list(parse_ntriples_string(text))
        except NTriplesParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=150))
    def test_ntriples_survives_arbitrary_unicode(self, text):
        try:
            list(parse_ntriples_string(text))
        except NTriplesParseError:
            pass
