"""SPARQL tokenizer for the SELECT / BGP / UNION / OPTIONAL fragment,
extended with FILTER expressions, solution modifiers and UPDATE forms.

One compiled master pattern, ``_MASTER``, is scanned over the text with
``finditer``.  Each token kind (whitespace and comments included) is one
named alternative, the first alternative that matches at an offset wins,
and a last catch-all alternative marks where no token starts.  Python code
runs only to decode string escapes, to look words up in ``KEYWORDS``, to
check that a name starts with a letter, and to build error messages.
Line and column are carried from token to token by counting the
newlines between their offsets.

The scan is lazy: :func:`iter_tokens` yields one token at a time and the
parser pulls each when it needs it, so a text is lexed only as far as it
parses, and a grammar error ahead of a lexical error is the one
reported.  :func:`tokenize` lists every token.

A ``<`` opens an IRI only when its content starts with a scheme
(``ALPHA (ALPHA | DIGIT | + | - | .)* :``) and reaches the closing ``>``
without whitespace, ``<`` or ``>``; otherwise it is the less-than
operator.  Every IRI in a query is absolute (BASE is unsupported), so
the scheme rule tells ``<http://…>`` from an un-spaced ``?x<?y``.
Because a probe stops at the next ``<``, no character is probed twice
and the lexer runs in linear time.

``tests/reference_tokenizer.py`` keeps the earlier character-at-a-time
lexer; ``tests/test_tokenizer_equivalence.py`` shows this one gives the
same tokens, messages and positions except where it follows SPARQL's
grammar instead:

1. A ``\\u`` escape needs four hex digits; anything else, such as
   ``\\uZZZZ`` or ``\\u 12 ``, is a :class:`SparqlSyntaxError`.
2. Numbers are ASCII ``[0-9]``, as in SPARQL's INTEGER and DECIMAL, so
   a digit like ``²`` is not a number.
3. An IRI's content may not contain ``<`` (SPARQL's IRIREF excludes it).
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterator, List, NamedTuple, Tuple

from .errors import SparqlSyntaxError

__all__ = ["Token", "iter_tokens", "tokenize", "KEYWORDS"]

#: Keywords recognized case-insensitively (normalized to upper case).
KEYWORDS = frozenset(
    """
    SELECT WHERE UNION OPTIONAL PREFIX BASE DISTINCT REDUCED FILTER ASK
    CONSTRUCT DESCRIBE LIMIT OFFSET ORDER BY GROUP ASC DESC BOUND REGEX
    TRUE FALSE A
    """.split()
    # Aggregation (GROUP BY heads): functions plus the AS binder.
    + "COUNT SUM MIN MAX AVG AS".split()
    # SPARQL 1.1 UPDATE forms (INSERT DATA / DELETE DATA / DELETE/INSERT
    # ... WHERE); WITH/USING/GRAPH/LOAD/CLEAR are tokenized so the parser
    # can reject them with a targeted "unsupported" message instead of a
    # bare-word lex error.
    + "INSERT DELETE DATA WITH USING GRAPH LOAD CLEAR".split()
)


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of: KEYWORD, IRI, PNAME, VAR, STRING, LANGTAG,
    DTYPE (the ``^^`` marker), BLANK, INTEGER, DECIMAL, PUNCT, OP, EOF.
    ``value`` is the normalized payload (e.g. IRI string without angle
    brackets, variable name without the sigil).
    """

    kind: str
    value: str
    line: int
    column: int


# A string body: plain characters and the escapes \n \t \r \" \\ \' \uXXXX.
_STRING_BODY = r"""[^"\\]*(?:\\(?:[ntr"\\']|u[0-9A-Fa-f]{4})[^"\\]*)*"""
# A word starts with a letter and continues with ``\w`` or ``-``; a
# ``.`` belongs to it only when another name character follows (a
# trailing ``.`` is the triple separator).
_WORD = r"[^\W\d_](?:[\w-]|\.(?=[\w.-]))*"
# A prefixed name's local part may also carry ``:`` before a name
# character: DBpedia writes categories as ``dbr:Category:Cell_biology``.
_LOCAL = r"(?:[\w-]|[.:](?=[\w.-]))*"

_MASTER = re.compile(
    rf"""
      (?P<SKIP>(?:[ \t\r\n]+|\#[^\n]*)+)
    | <(?P<IRI>[^\W\d_](?:[^\W_]|[+.-])*:[^ \t\r\n<>]*)>
    | (?P<OP>[<>!]=|&&|\|\||[=!<>+/]|-(?![0-9]))  # '-' then a digit is a number
    | [?$](?P<VAR>\w+)
    | "(?P<STRING>{_STRING_BODY})"
    | @(?P<LANGTAG>(?:[^\W_]|-)+)
    | (?P<DTYPE>\^\^)
    | (?P<PUNCT>[{{}}.,;*()])
    | _:(?P<BLANK>[\w.-]+)
    | (?P<DECIMAL>-?[0-9]+(?:\.[0-9]+)+)
    | (?P<INTEGER>-?[0-9]+)
    | (?P<PNAME>(?:{_WORD})?:{_LOCAL})
    | (?P<WORD>{_WORD})
    | (?P<ERROR>(?s:.))
    """,
    re.VERBOSE,
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(u....|.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'"}
#: The kinds that need Python code after the match.
_CHECKED = frozenset({"ERROR", "STRING", "IRI", "PNAME", "WORD"})
#: Builds a Token from its four fields without NamedTuple's Python-level
#: ``__new__``, which would double the cost of a short token.
_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> List[Token]:
    """Tokenize query text, ending with an EOF token."""
    return list(iter_tokens(text))


def iter_tokens(text: str) -> Iterator[Token]:
    """The tokens of ``text`` one at a time, ending with an EOF token.

    A lexical error is raised when the scan reaches it, so a reader that
    stops early (the parser at its first grammar error) never lexes the
    rest of the text.
    """
    line = 1
    last_newline = -1  # offset of the last newline before ``seen``
    seen = 0
    for found in _MASTER.finditer(text):
        kind = found.lastgroup
        if kind == "SKIP":
            continue
        pos = found.start()
        value = found[kind]
        if kind in _CHECKED:
            if kind == "ERROR":
                raise _syntax_error(*_failure(text, pos), text)
            if kind == "STRING":
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
            elif not (value[0] == ":" or value[0].isalpha()):
                # [^\W\d_] also admits numerics such as '½' that are not
                # letters.  Such a scheme makes the '<' an operator, and
                # the name that then starts after it is an unexpected
                # character.
                if kind == "IRI":
                    yield _token(("OP", "<", *_position(text, pos)))
                    pos += 1
                raise _syntax_error(f"unexpected character {value[0]!r}", pos, text)
            elif kind == "WORD":
                kind, value = "KEYWORD", value.upper()
                if value not in KEYWORDS:
                    word = found.group()
                    raise _syntax_error(f"unexpected bare word {word!r}", found.end(), text)
        # _position, carried forward from the previous token for the hot
        # path: only the text between the two token starts is counted.
        breaks = text.count("\n", seen, pos)
        if breaks:
            line += breaks
            last_newline = text.rindex("\n", seen, pos)
        seen = pos
        yield _token((kind, value, line, pos - last_newline))
    yield _token(("EOF", "", *_position(text, len(text))))


def _position(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of ``offset``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(message: str, offset: int, text: str) -> SparqlSyntaxError:
    return SparqlSyntaxError(message, *_position(text, offset))


def _unescape(escape: re.Match) -> str:
    code = escape.group(1)
    return _ESCAPES[code] if len(code) == 1 else chr(int(code[1:], 16))


def _failure(text: str, pos: int) -> Tuple[str, int]:
    """Message and offset for text where no token starts at ``pos``."""
    ch = text[pos]
    if ch in "?$":
        return "empty variable name", pos + 1
    if ch == "@":
        return "empty language tag", pos + 1
    if ch in "&|":
        return f"expected {ch * 2!r}", pos
    if text.startswith("_:", pos):
        return "empty blank node label", pos + 2
    if ch != '"':
        return f"unexpected character {ch!r}", pos
    stop = _STRING_PREFIX.match(text, pos + 1).end()
    if stop == len(text):
        return "unterminated string literal", stop
    escape = text[stop + 1 : stop + 2]  # text[stop] is the backslash
    if escape == "u":
        return "invalid escape \\u: expected four hex digits", stop + 2
    return f"invalid escape \\{escape}", stop + 1 + len(escape)
