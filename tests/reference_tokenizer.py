"""The character-loop SPARQL tokenizer that preceded the master-pattern
lexer in ``repro.sparql.tokenizer``, kept unchanged as the reference
that ``test_tokenizer_equivalence.py`` compares the new lexer against.
Nothing under ``src/`` imports it.  Original docstring:

SPARQL tokenizer for the SELECT / BGP / UNION / OPTIONAL fragment,
extended with FILTER expressions and solution modifiers."""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from repro.sparql.errors import SparqlSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Keywords recognized case-insensitively (normalized to upper case).
KEYWORDS = frozenset(
    {
        "SELECT",
        "WHERE",
        "UNION",
        "OPTIONAL",
        "PREFIX",
        "BASE",
        "DISTINCT",
        "REDUCED",
        "FILTER",
        "ASK",
        "CONSTRUCT",
        "DESCRIBE",
        "LIMIT",
        "OFFSET",
        "ORDER",
        "BY",
        "GROUP",
        "ASC",
        "DESC",
        "BOUND",
        "REGEX",
        "TRUE",
        "FALSE",
        "A",
        # Aggregation (GROUP BY heads): functions plus the AS binder.
        "COUNT",
        "SUM",
        "MIN",
        "MAX",
        "AVG",
        "AS",
        # SPARQL 1.1 UPDATE forms (INSERT DATA / DELETE DATA /
        # DELETE/INSERT ... WHERE); WITH/USING/GRAPH/LOAD/CLEAR are
        # tokenized so the parser can reject them with a targeted
        # "unsupported" message instead of a bare-word lex error.
        "INSERT",
        "DELETE",
        "DATA",
        "WITH",
        "USING",
        "GRAPH",
        "LOAD",
        "CLEAR",
    }
)

_PUNCTUATION = {"{", "}", ".", ",", ";", "*", "(", ")"}

#: Expression operators, emitted as OP tokens.  ``*`` stays PUNCT (it
#: doubles as the select-all star); ``<`` needs IRI disambiguation and
#: ``-`` needs numeric-literal disambiguation, both handled inline.
_OPERATOR_STARTS = {"=", "!", "<", ">", "&", "|", "+", "-", "/"}


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of: KEYWORD, IRI, PNAME, VAR, STRING, LANGTAG,
    DTYPE (the ``^^`` marker), INTEGER, DECIMAL, PUNCT, OP, EOF.
    ``value`` is the normalized payload (e.g. IRI string without angle
    brackets, variable name without the sigil).
    """

    kind: str
    value: str
    line: int
    column: int


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.text):
            return ""
        return self.text[index]

    def advance(self, count: int = 1) -> str:
        consumed = self.text[self.pos : self.pos + count]
        for ch in consumed:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return consumed

    def error(self, message: str) -> SparqlSyntaxError:
        return SparqlSyntaxError(message, self.line, self.column)


def _is_pname_char(ch: str) -> bool:
    # Note: ch may be "" at end of input ('"" in "…"' is True, so the
    # length check is required).
    return len(ch) == 1 and (ch.isalnum() or ch in "_-.")


def _is_var_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> List[Token]:
    """Tokenize query text, ending with an EOF token."""
    cursor = _Cursor(text)
    tokens: List[Token] = []
    while not cursor.at_end():
        ch = cursor.peek()
        line, column = cursor.line, cursor.column

        if ch in " \t\r\n":
            cursor.advance()
            continue
        if ch == "#":
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
            continue
        if ch == "<":
            # '<' is ambiguous: IRI opener or less-than.  '<=' is always
            # the operator; otherwise it opens an IRI iff a '>' appears
            # before any whitespace (IRIs cannot contain whitespace, so
            # a whitespace-separated comparison never misreads).
            if cursor.peek(1) == "=":
                cursor.advance(2)
                tokens.append(Token("OP", "<=", line, column))
                continue
            if not _looks_like_iri(cursor):
                cursor.advance()
                tokens.append(Token("OP", "<", line, column))
                continue
            cursor.advance()
            start = cursor.pos
            while not cursor.at_end() and cursor.peek() != ">":
                if cursor.peek() in " \n\t":
                    raise cursor.error("whitespace inside IRI")
                cursor.advance()
            if cursor.at_end():
                raise cursor.error("unterminated IRI")
            value = cursor.text[start : cursor.pos]
            cursor.advance()  # '>'
            tokens.append(Token("IRI", value, line, column))
            continue
        if ch in "?$":
            cursor.advance()
            start = cursor.pos
            while not cursor.at_end() and _is_var_char(cursor.peek()):
                cursor.advance()
            name = cursor.text[start : cursor.pos]
            if not name:
                raise cursor.error("empty variable name")
            tokens.append(Token("VAR", name, line, column))
            continue
        if ch == '"':
            tokens.append(_read_string(cursor, line, column))
            continue
        if ch == "@":
            cursor.advance()
            start = cursor.pos
            while not cursor.at_end() and (cursor.peek().isalnum() or cursor.peek() == "-"):
                cursor.advance()
            tag = cursor.text[start : cursor.pos]
            if not tag:
                raise cursor.error("empty language tag")
            tokens.append(Token("LANGTAG", tag, line, column))
            continue
        if ch == "^" and cursor.peek(1) == "^":
            cursor.advance(2)
            tokens.append(Token("DTYPE", "^^", line, column))
            continue
        if ch in _PUNCTUATION:
            cursor.advance()
            tokens.append(Token("PUNCT", ch, line, column))
            continue
        if ch == "_" and cursor.peek(1) == ":":
            cursor.advance(2)
            start = cursor.pos
            while not cursor.at_end() and _is_pname_char(cursor.peek()):
                cursor.advance()
            label = cursor.text[start : cursor.pos]
            if not label:
                raise cursor.error("empty blank node label")
            tokens.append(Token("BLANK", label, line, column))
            continue
        if ch.isdigit() or (ch == "-" and cursor.peek(1).isdigit()):
            start = cursor.pos
            cursor.advance()
            kind = "INTEGER"
            while not cursor.at_end() and (cursor.peek().isdigit() or cursor.peek() == "."):
                if cursor.peek() == ".":
                    # A '.' followed by a non-digit terminates the number
                    # (it is the triple separator).
                    if not cursor.peek(1).isdigit():
                        break
                    kind = "DECIMAL"
                cursor.advance()
            tokens.append(Token(kind, cursor.text[start : cursor.pos], line, column))
            continue
        if ch in _OPERATOR_STARTS:
            if ch in "&|":
                if cursor.peek(1) != ch:
                    raise cursor.error(f"expected {ch * 2!r}")
                cursor.advance(2)
                tokens.append(Token("OP", ch * 2, line, column))
                continue
            if ch in "!>" and cursor.peek(1) == "=":
                cursor.advance(2)
                tokens.append(Token("OP", ch + "=", line, column))
                continue
            cursor.advance()
            tokens.append(Token("OP", ch, line, column))
            continue
        if ch.isalpha():
            start = cursor.pos
            while not cursor.at_end() and _is_pname_char(cursor.peek()):
                # A '.' not followed by another name character is the
                # triple separator, not part of the word.
                if cursor.peek() == "." and not _is_pname_char(cursor.peek(1)):
                    break
                cursor.advance()
            word = cursor.text[start : cursor.pos]
            # A word followed directly by ':' is the prefix half of a
            # prefixed name like 'dbo:Person'.
            if _peek_colon(cursor):
                colon_and_local = _consume_pname_rest(cursor)
                tokens.append(Token("PNAME", word + colon_and_local, line, column))
                continue
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, line, column))
                continue
            raise cursor.error(f"unexpected bare word {word!r}")
        if ch == ":":
            # pname with empty prefix, e.g. ':localName'
            colon_and_local = _consume_pname_rest(cursor)
            tokens.append(Token("PNAME", colon_and_local, line, column))
            continue
        raise cursor.error(f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", cursor.line, cursor.column))
    return tokens


def _looks_like_iri(cursor: _Cursor) -> bool:
    """From a '<', is this an IRI opener rather than a less-than?

    Requires a '>' before any whitespace AND a scheme prefix
    (``ALPHA (ALPHA|DIGIT|+|-|.)* ':'``) at the start of the content.
    BASE declarations are unsupported, so every IRI in a query is
    absolute and must carry a scheme — which cleanly disambiguates
    un-spaced comparisons like ``?x<?y&&?y>2`` (content starts with
    '?', no scheme) from ``<http://…>``.
    """
    offset = 1
    content = []
    while True:
        ch = cursor.peek(offset)
        if ch == "" or ch in " \t\r\n":
            return False
        if ch == ">":
            break
        content.append(ch)
        offset += 1
    scheme, colon, _ = "".join(content).partition(":")
    if not colon or not scheme or not scheme[0].isalpha():
        return False
    return all(ch.isalnum() or ch in "+.-" for ch in scheme)


def _peek_colon(cursor: _Cursor) -> str:
    """Return ':' if the cursor sits on a pname colon, else ''."""
    return ":" if cursor.peek() == ":" else ""


def _consume_pname_rest(cursor: _Cursor) -> str:
    """Consume ':' plus the local part of a prefixed name.

    Additional ':' characters followed by a name character are accepted
    inside the local part — DBpedia category names are conventionally
    written ``dbr:Category:Cell_biology`` (the paper's q1.6 uses one).
    """
    cursor.advance()  # ':'
    start = cursor.pos
    while not cursor.at_end():
        ch = cursor.peek()
        if ch == "." and not _is_pname_char(cursor.peek(1)):
            # A trailing '.' is the triple separator, not pname content.
            break
        if ch == ":" and _is_pname_char(cursor.peek(1)):
            cursor.advance()
            continue
        if not _is_pname_char(ch):
            break
        cursor.advance()
    local = cursor.text[start : cursor.pos]
    return ":" + local


def _read_string(cursor: _Cursor, line: int, column: int) -> Token:
    cursor.advance()  # opening quote
    out = []
    escapes = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'"}
    while True:
        if cursor.at_end():
            raise cursor.error("unterminated string literal")
        ch = cursor.advance()
        if ch == '"':
            return Token("STRING", "".join(out), line, column)
        if ch == "\\":
            esc = cursor.advance()
            if esc in escapes:
                out.append(escapes[esc])
            elif esc == "u":
                hexdigits = cursor.advance(4)
                out.append(chr(int(hexdigits, 16)))
            else:
                raise cursor.error(f"invalid escape \\{esc}")
        else:
            out.append(ch)
