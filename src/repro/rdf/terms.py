"""RDF term model.

The paper (Definition 1) works with three pairwise-disjoint infinite sets:
IRIs ``I``, blank nodes ``B`` and literals ``L``, plus a set of query
variables ``V`` disjoint from all of them (Definition 2).  This module
defines one immutable Python class per set.

All terms are hashable and totally ordered (ordering is by *sort key*,
grouping terms by kind first), which the storage layer relies on to build
its sorted permutation indexes.
"""

from __future__ import annotations

import re
from typing import Optional, Union

__all__ = [
    "Term",
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "GroundTerm",
    "PatternTerm",
    "XSD_STRING",
    "RDF_LANG_STRING",
]

#: Datatype IRI string assigned to plain literals.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

#: Datatype IRI string assigned to language-tagged literals.
RDF_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

# Kind tags used as the leading element of sort keys so that terms of
# different kinds never compare by payload against each other.
_KIND_IRI = 0
_KIND_BLANK = 1
_KIND_LITERAL = 2
_KIND_VARIABLE = 3


class Term:
    """Abstract base class for all RDF terms and query variables."""

    __slots__ = ()

    #: Integer kind tag; concrete subclasses override.
    kind: int = -1

    def sort_key(self) -> tuple:
        """Return a tuple that orders terms across kinds deterministically."""
        raise NotImplementedError

    def n3(self) -> str:
        """Render the term in N-Triples / SPARQL surface syntax."""
        raise NotImplementedError

    def is_ground(self) -> bool:
        """True if the term is a concrete RDF term (not a variable)."""
        return self.kind != _KIND_VARIABLE

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class IRI(Term):
    """An IRI reference, e.g. ``<http://dbpedia.org/resource/Bill_Clinton>``.

    Only the IRI string is stored; no normalization beyond exact string
    identity is performed, matching the paper's treatment of IRIs as
    opaque constants.
    """

    __slots__ = ("value",)
    kind = _KIND_IRI

    def __init__(self, value: str):
        if not isinstance(value, str) or not value:
            raise ValueError(f"IRI requires a non-empty string, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("IRI is immutable")

    def sort_key(self) -> tuple:
        return (_KIND_IRI, self.value)

    def n3(self) -> str:
        return f"<{self.value}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return hash((_KIND_IRI, self.value))

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.n3()


class BlankNode(Term):
    """A blank node with a local label, e.g. ``_:b42``."""

    __slots__ = ("label",)
    kind = _KIND_BLANK

    def __init__(self, label: str):
        if not isinstance(label, str) or not label:
            raise ValueError(f"BlankNode requires a non-empty label, got {label!r}")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("BlankNode is immutable")

    def sort_key(self) -> tuple:
        return (_KIND_BLANK, self.label)

    def n3(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other) -> bool:
        return isinstance(other, BlankNode) and other.label == self.label

    def __hash__(self) -> int:
        return hash((_KIND_BLANK, self.label))

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"

    def __str__(self) -> str:
        return self.n3()


class Literal(Term):
    """An RDF literal: lexical form + optional language tag or datatype.

    Follows RDF 1.1: a literal with a language tag has datatype
    ``rdf:langString``; otherwise the datatype defaults to ``xsd:string``.
    Equality is term equality (lexical form, datatype and language all
    compared exactly) — no value-space coercion, which is the behaviour
    SPARQL's graph-pattern matching requires.
    """

    __slots__ = ("lexical", "language", "datatype")
    kind = _KIND_LITERAL

    def __init__(
        self,
        lexical: str,
        language: Optional[str] = None,
        datatype: Optional[str] = None,
    ):
        if not isinstance(lexical, str):
            raise ValueError(f"Literal lexical form must be str, got {lexical!r}")
        if language is not None and datatype is not None:
            if datatype != RDF_LANG_STRING:
                raise ValueError("a language-tagged literal cannot carry another datatype")
        if language is not None:
            datatype = RDF_LANG_STRING
            language = language.lower()
        elif datatype is None:
            datatype = XSD_STRING
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)

    def __setattr__(self, name, value):
        raise AttributeError("Literal is immutable")

    def sort_key(self) -> tuple:
        return (_KIND_LITERAL, self.lexical, self.datatype, self.language or "")

    def n3(self) -> str:
        escaped = _escape_literal(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.language == self.language
            and other.datatype == self.datatype
        )

    def __hash__(self) -> int:
        # ``language or ""``: before Python 3.12, ``hash(None)`` is an
        # address, which would make set order — and the term ids a
        # store assigns from it — differ from process to process.
        return hash((_KIND_LITERAL, self.lexical, self.language or "", self.datatype))

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype != XSD_STRING:
            return f"Literal({self.lexical!r}, datatype={self.datatype!r})"
        return f"Literal({self.lexical!r})"

    def __str__(self) -> str:
        return self.n3()


class Variable(Term):
    """A SPARQL query variable, written ``?name`` (Definition 2's set V)."""

    __slots__ = ("name",)
    kind = _KIND_VARIABLE

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"Variable requires a non-empty name, got {name!r}")
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not name:
            raise ValueError("Variable name cannot be just the sigil")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def sort_key(self) -> tuple:
        return (_KIND_VARIABLE, self.name)

    def n3(self) -> str:
        return f"?{self.name}"

    def is_ground(self) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash((_KIND_VARIABLE, self.name))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.n3()


#: A concrete data term (member of I ∪ B ∪ L).
GroundTerm = Union[IRI, BlankNode, Literal]

#: A term allowed in a triple pattern (Definition 2): ground term or variable.
PatternTerm = Union[IRI, BlankNode, Literal, Variable]

_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


_NEEDS_ESCAPE = re.compile(r'[\\"\n\r\t]')


def _escape_literal(text: str) -> str:
    """Escape a literal's lexical form for N-Triples output (clean text,
    the common case, is returned as is after one scan)."""
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return _NEEDS_ESCAPE.sub(lambda match: _LITERAL_ESCAPES[match.group()], text)
