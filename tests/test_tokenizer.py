"""Unit tests for the SPARQL tokenizer."""

import time

import pytest

from repro.sparql import SparqlSyntaxError, parse_query, parse_update, tokenize
from repro.sparql.tokenizer import iter_tokens


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


class TestBasicTokens:
    def test_keywords_case_insensitive(self):
        assert kinds("select WHERE union")[:3] == ["KEYWORD"] * 3
        assert values("select")[0] == "SELECT"

    def test_iri(self):
        tokens = tokenize("<http://a/b#c>")
        assert tokens[0].kind == "IRI" and tokens[0].value == "http://a/b#c"

    def test_variable_both_sigils(self):
        assert values("?x $y")[:2] == ["x", "y"]

    def test_pname(self):
        token = tokenize("dbo:wikiPageWikiLink")[0]
        assert token.kind == "PNAME" and token.value == "dbo:wikiPageWikiLink"

    def test_pname_with_extra_colon(self):
        token = tokenize("dbr:Category:Cell_biology")[0]
        assert token.value == "dbr:Category:Cell_biology"

    def test_pname_trailing_dot_is_separator(self):
        tokens = tokenize("dbo:Person.")
        assert tokens[0].value == "dbo:Person"
        assert tokens[1].kind == "PUNCT" and tokens[1].value == "."

    def test_a_keyword(self):
        token = tokenize("a")[0]
        assert token.kind == "KEYWORD" and token.value == "A"

    def test_a_followed_by_dot(self):
        tokens = tokenize("?x a dbo:Person .")
        assert [t.kind for t in tokens[:4]] == ["VAR", "KEYWORD", "PNAME", "PUNCT"]

    def test_punctuation(self):
        assert values("{ } . *")[:4] == ["{", "}", ".", "*"]

    def test_eof_always_last(self):
        assert kinds("")[-1] == "EOF"
        assert kinds("?x")[-1] == "EOF"


class TestLiterals:
    def test_plain_string(self):
        token = tokenize('"hello world"')[0]
        assert token.kind == "STRING" and token.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\"b\nc"')[0].value == 'a"b\nc'

    def test_unicode_escape(self):
        assert tokenize(r'"é"')[0].value == "é"

    def test_langtag(self):
        tokens = tokenize('"hi"@en-GB')
        assert tokens[1].kind == "LANGTAG" and tokens[1].value == "en-GB"

    def test_datatype_marker(self):
        tokens = tokenize('"5"^^<http://t>')
        assert tokens[1].kind == "DTYPE"
        assert tokens[2].kind == "IRI"

    def test_integer_and_decimal(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].kind == "INTEGER" and tokens[0].value == "42"
        assert tokens[1].kind == "DECIMAL" and tokens[1].value == "3.14"

    def test_integer_then_dot_separator(self):
        tokens = tokenize("42 .")
        assert tokens[0].kind == "INTEGER"
        assert tokens[1].value == "."


class TestCommentsAndWhitespace:
    def test_comment_to_end_of_line(self):
        assert values("?x # comment here\n?y")[:2] == ["x", "y"]

    def test_whitespace_ignored(self):
        assert kinds("  \t\n ?x ")[:1] == ["VAR"]


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<http://unterminated",
            '"unterminated',
            "?",  # empty variable
            "@",  # empty language tag
            "%",  # stray character
            "bareword",  # not a keyword nor pname
        ],
    )
    def test_bad_input_raises(self, bad):
        with pytest.raises(SparqlSyntaxError):
            tokenize(bad)

    def test_error_has_position(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            tokenize("?x\n  %")
        assert excinfo.value.line == 2


class TestSparqlGrammarRules:
    @pytest.mark.parametrize("bad", ['"x\\uZZZZ"', '"x\\u12"', '"x\\u12', '"\\u 12 "', '"\\u+12a"'])
    def test_malformed_u_escape_is_a_syntax_error(self, bad):
        with pytest.raises(SparqlSyntaxError, match=r"invalid escape \\u") as excinfo:
            tokenize(bad)
        assert excinfo.value.column == bad.index("u") + 2

    @pytest.mark.parametrize("text", ["LIMIT \u00b2", "1\u00b2", "-\u0663"])
    def test_non_ascii_digits_are_not_numbers(self, text):
        with pytest.raises(SparqlSyntaxError, match="unexpected character"):
            tokenize(text)

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT * WHERE { ?s ?p ?o } LIMIT \u00b2",
            "SELECT * WHERE { ?s ?p ?o FILTER(?o > \u00b2) }",
        ],
    )
    def test_non_ascii_digits_fail_the_parse(self, query):
        with pytest.raises(SparqlSyntaxError):
            parse_query(query)

    def test_iri_content_excludes_less_than(self):
        assert kinds("<a:<b:c>")[:3] == ["OP", "PNAME", "IRI"]
        assert values("<a:<b:c>")[:3] == ["<", "a:", "b:c"]

    def test_lexing_is_linear_on_less_than_runs(self):
        # Each '<' probes for an IRI; a probe that could run on past the
        # next '<' would make this input quadratic (hours at this size).
        started = time.perf_counter()
        tokens = tokenize("<" * 200_000)
        assert time.perf_counter() - started < 5.0
        assert len(tokens) == 200_001 and tokens[-2] == ("OP", "<", 1, 200_000)


class TestLazyTokenStream:
    """The parser pulls tokens one at a time, so it rejects a text at
    its first grammar error without lexing the rest."""

    @pytest.mark.parametrize("char, count", [("{", 2**21), ("<", 2**20)], ids=["brace", "lt"])
    def test_update_rejects_its_first_token_at_once(self, char, count):
        text = char * count
        started = time.perf_counter()
        with pytest.raises(SparqlSyntaxError, match="expected an update operation"):
            parse_update(text)
        assert time.perf_counter() - started < 0.5

    def test_grammar_error_before_a_lexical_error_is_reported(self):
        with pytest.raises(SparqlSyntaxError, match="expected an update operation"):
            parse_update("SELECT @")
        with pytest.raises(SparqlSyntaxError, match="empty language tag"):
            tokenize("SELECT @")

    def test_positions_across_lines(self):
        text = "SELECT *\n  WHERE {\n\n ?s ?p ?o }\n"
        tokens = list(iter_tokens(text))
        assert tokens == tokenize(text)
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1),
            ("*", 1, 8),
            ("WHERE", 2, 3),
            ("{", 2, 9),
            ("s", 4, 2),
            ("p", 4, 5),
            ("o", 4, 8),
            ("}", 4, 11),
            ("", 5, 1),
        ]

    def test_lexical_error_position_after_many_lines(self):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            tokenize("SELECT\n" * 3 + "  ?")
        assert (excinfo.value.line, excinfo.value.column) == (4, 4)
