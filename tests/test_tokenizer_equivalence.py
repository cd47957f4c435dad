"""The master-pattern lexer against the character-loop lexer it replaced.

``reference_tokenizer`` is the earlier lexer, unchanged.  The two must
give the same tokens, error messages and error positions on every text,
except where the new lexer follows SPARQL's grammar instead.  Each such
deviation is a named branch of :func:`deviations`:

* ``BAD_U_ESCAPE`` — a ``\\u`` escape without four hex digits is a
  syntax error (the reference raised ``ValueError`` or decoded it);
* ``ASCII_DIGITS`` — numbers are ASCII (the reference lexed ``²`` as
  an INTEGER);
* ``IRI_WITHOUT_LT`` — an IRI's content may not contain ``<``.

Three corpora: every string constant in the repository's ``.py`` files,
the texts the end-to-end benchmark's workloads send, and Hypothesis
texts over the SPARQL alphabet.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.queries import DBPEDIA_QUERIES, LUBM_QUERIES
from repro.sparql import SparqlSyntaxError, tokenizer

from . import reference_tokenizer

ROOT = Path(__file__).resolve().parents[1]

BAD_U_ESCAPE = "bad-u-escape"
ASCII_DIGITS = "ascii-digits"
IRI_WITHOUT_LT = "iri-without-lt"


def _run(module, text):
    """Every token ``module.tokenize`` made on ``text``, then how it
    stopped: the EOF token, an ``("error", message, line, column)`` or a
    ``("crash", exception type)``.

    The tokens are recorded as they are built, so a lexer that raises
    still shows what it produced first: the reference builds each one
    with ``Token(*fields)``, the master-pattern lexer with
    ``_token(fields)``, and the recorder stands in for that builder.
    """
    made = []
    if module is reference_tokenizer:
        name, record = "Token", lambda *fields: made.append(fields)
    else:
        name, record = "_token", made.append
    saved = getattr(module, name)
    setattr(module, name, record)
    try:
        module.tokenize(text)
    except SparqlSyntaxError as error:
        made.append(("error", str(error), error.line, error.column))
    except ValueError as error:  # the reference on a malformed \u escape
        made.append(("crash", type(error).__name__))
    finally:
        setattr(module, name, saved)
    return made


def _offset(text, line, column):
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1


def _is_bad_u_escape(text, new):
    if new[0] != "error" or not new[1].startswith("invalid escape \\u:"):
        return False
    at = _offset(text, new[2], new[3])
    return text[at - 2 : at] == "\\u" and not re.fullmatch("[0-9A-Fa-f]{4}", text[at : at + 4])


def deviations(text, candidate=tokenizer):
    """The deviations that explain every difference between the
    reference lexer and ``candidate`` on ``text``, in order.

    Raises AssertionError on a difference no deviation explains.  The
    lexers agree up to the first differing token; an ``IRI_WITHOUT_LT``
    leaves both lexing the text after the ``<``, which is compared
    again, while the other two end the new lexer's run.
    """
    found = []
    while True:
        old, new = _run(reference_tokenizer, text), _run(candidate, text)
        index = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]), None)
        if index is None:
            assert len(old) == len(new), (text, old, new)
            return found
        was, now = old[index], new[index]
        if _is_bad_u_escape(text, now) and was[0] in ("STRING", "error", "crash"):
            return found + [BAD_U_ESCAPE]
        if was[0] in ("INTEGER", "DECIMAL") and not was[1].isascii():
            return found + [ASCII_DIGITS]
        if was[0] == "IRI" and "<" in was[1] and now == ("OP", "<") + was[2:]:
            found.append(IRI_WITHOUT_LT)
            text = text[_offset(text, was[2], was[3]) + 1 :]
            continue
        raise AssertionError(
            f"lexers differ on {text!r} at token {index}: reference {was!r}, new {now!r}"
        )


def _repository_strings():
    strings = set()
    for path in sorted(ROOT.rglob("*.py")):
        if any(part.startswith(".") for part in path.relative_to(ROOT).parts):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return sorted(strings)


def _benchmark_texts():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from benchmarks.e2e import workloads

    entity = "<http://www.Department0.University0.edu/UndergraduateStudent0>"
    paper = list(LUBM_QUERIES.values()) + list(DBPEDIA_QUERIES.values())
    assert len(paper) == 24
    texts = list(workloads.BULK_QUERIES.values()) + paper + workloads.canary_queries()
    texts += [workloads.entity_query(entity, offset).text for offset in workloads.PAGE_OFFSETS]
    for client, key in ((0, 0), (1, 17)):
        triples = workloads.own_triples(client, key)
        texts += [f"INSERT DATA {{ {triples} }}", f"DELETE DATA {{ {triples} }}"]
        texts.append(f"SELECT ?p ?o WHERE {{ {workloads.own_key(client, key)} ?p ?o }}")
    return texts


def test_repository_strings_lex_alike():
    strings = _repository_strings()
    assert len(strings) > 4000
    found = {name for text in strings for name in deviations(text)}
    # The hand-written cases below are in the corpus too, so every
    # deviation shows up here, and nothing else does.
    assert found == {BAD_U_ESCAPE, ASCII_DIGITS, IRI_WITHOUT_LT}


@pytest.mark.parametrize("text", _benchmark_texts())
def test_benchmark_texts_lex_identically(text):
    assert deviations(text) == []
    assert tokenizer.tokenize(text) == reference_tokenizer.tokenize(text)


# One text on each side of every boundary in the master pattern.
_BOUNDARIES = [
    "x:a..b", "x:a:.b", "x:a::b", "x:a:", "x:a.", "x:-a", "a..b", "a..", "a.-b",
    "a.:b", "_:b..", "_:.", "_:-", "_", "1.2.3", "1..2", "1.", "-1.5", "-.5",
    "--1", "<a:b\nc>", "<a:b\tc>", "<a:b\rc>", "<a:b\x0cc>", "<a:b c>", "<1a:b>",
    "<a+b-c.d:e>", "<a_b:c>", "<:b>", "<a:b", "<a:>", "<a>", "<=?x", "< =",
    "@en-GB-x", "@-", "@_", "?x-1", "$_", "?é", "?½", "#c", "#c\n?x", "#\r\n",
    '"a\\\'b"', '"\\"', '"a\\', '"line\nbreak"', '"\\\\u0041"', '"\\u00e9\\u00E9"',
    "!", "!=", ">=", "==", "&&&", "|||", "^^^", "ſelect", "SELECT.", "a.b:c",
    "½", "Ⅻ", "x:½", "é:x", "\u00a0", "\x0c",
]


@pytest.mark.parametrize("text", _BOUNDARIES)
def test_pattern_boundaries_lex_alike(text):
    assert deviations(text) == []


_FRAGMENTS = [
    "SELECT", "where", "UNION", "OPTIONAL", "FILTER", "LIMIT", "a", "bare",
    "?x", "$y", "?", "<http://a/b>", "<a:", "<", "<=", ">", ">=", "!=", "&&",
    "||", "&", "|", "dbo:Person", "dbr:Category:Cell_biology", ":loc", "_:b0",
    "_:", '"s"', '"a\\"b\\n"', '"\\u00e9"', '"\\u12"', '"\\uZZZZ"', '"open',
    "@en-GB", "@", "^^", "^", "42", "-7", "3.14", "1.2.3", "²", "½", "٣",
    "{", "}", ".", ",", ";", "*", "(", ")", "+", "-", "/", "=", "!", "#c\n",
    " ", "\n", "\t", "%",
]

_sparql_text = st.one_of(
    st.text(
        alphabet=st.sampled_from(
            list("{}?$<>.,;*()\"'\\ \n\tSELCTWHRabcuxyz:/#@^0123456789-_+=!&|²½é")
        ),
        max_size=80,
    ),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
)


@settings(max_examples=600, deadline=None)
@given(_sparql_text)
def test_hypothesis_texts_differ_only_by_named_deviations(text):
    deviations(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ('"x\\uZZZZ"', [BAD_U_ESCAPE]),  # reference: ValueError
        ('"x\\u12"', [BAD_U_ESCAPE]),  # fewer than four characters left
        ('"\\u 12 "', [BAD_U_ESCAPE]),  # reference: decoded as chr(0x12)
        ("LIMIT ²", [ASCII_DIGITS]),
        ("FILTER(?o > ²)", [ASCII_DIGITS]),
        ("1²", [ASCII_DIGITS]),
        ("?x <a:<b> ?y", [IRI_WITHOUT_LT]),
        ("<a:<b:<c>", [IRI_WITHOUT_LT, IRI_WITHOUT_LT]),
        ("?x<?y&&?y>2", []),
    ],
)
def test_each_deviation_is_pinned(text, expected):
    assert deviations(text) == expected


def test_an_unexplained_difference_fails():
    def one_column_off(text):
        for kind, value, line, column in tokenizer.tokenize(text):
            broken._token((kind, value, line, column + 1))

    broken = SimpleNamespace(_token=tokenizer._token, tokenize=one_column_off)
    with pytest.raises(AssertionError, match="lexers differ"):
        deviations("?x", broken)
