"""In-memory RDF dataset (Definition 1).

:class:`Dataset` is the plain, index-free collection of triples that
the dataset generators build (``tests/oracle.py`` evaluates queries
over it by full scan).  The engine-facing, dictionary-encoded, fully
indexed representation lives in
:mod:`repro.storage.store`; a :class:`Dataset` can be converted into one
with :meth:`repro.storage.store.TripleStore.from_dataset`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set

from .terms import BlankNode, IRI, Literal, Term
from .triple import Triple, TriplePattern

__all__ = ["Dataset"]


class Dataset:
    """A set of ground triples with simple pattern-matching access.

    The paper defines a dataset as a collection ``{t1 … t|D|}``; SPARQL's
    matching semantics is set-based at the data level (duplicates arise
    from query evaluation, not storage), so a triple is stored once.
    Iteration follows first insertion, so the term ids
    :meth:`repro.storage.store.TripleStore.from_dataset` assigns do not
    depend on the interpreter's hash seed.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        # A dict used as an insertion-ordered set (values are None).
        self._triples: Dict[Triple, None] = {}
        for triple in triples:
            self.add(triple)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        """Insert a triple; duplicate inserts are no-ops."""
        if not isinstance(triple, Triple):
            raise TypeError(f"Dataset.add expects a Triple, got {triple!r}")
        self._triples[triple] = None

    def add_spo(self, subject: Term, predicate: Term, object: Term) -> None:
        """Convenience: build and insert a triple from its components."""
        self.add(Triple(subject, predicate, object))

    def discard(self, triple: Triple) -> None:
        self._triples.pop(triple, None)

    def update(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.add(triple)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield every triple matching the pattern (linear scan).

        This is intentionally naive: a full scan leaves no room for
        index bugs to hide.  Engines use :mod:`repro.storage` instead.
        """
        for triple in self._triples:
            if pattern.matches(triple):
                yield triple

    # ------------------------------------------------------------------
    # statistics (Table 2 of the paper)
    # ------------------------------------------------------------------
    def entities(self) -> Set[Term]:
        """Distinct IRIs and blank nodes appearing as subject or object."""
        out: Set[Term] = set()
        for triple in self._triples:
            out.add(triple.subject)
            if isinstance(triple.object, (IRI, BlankNode)):
                out.add(triple.object)
        return out

    def predicates(self) -> Set[IRI]:
        return {triple.predicate for triple in self._triples}

    def literals(self) -> Set[Literal]:
        return {
            triple.object for triple in self._triples if isinstance(triple.object, Literal)
        }

    def statistics(self) -> dict:
        """Dataset statistics in the shape of the paper's Table 2."""
        return {
            "triples": len(self),
            "entities": len(self.entities()),
            "predicates": len(self.predicates()),
            "literals": len(self.literals()),
        }

    def __repr__(self) -> str:
        return f"Dataset({len(self)} triples)"
