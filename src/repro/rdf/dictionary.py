"""Term dictionary: bidirectional term ⇄ integer-id encoding.

Every RDF engine the paper builds on (gStore, Jena/TDB, RDF-3X) encodes
terms as integers and runs joins over ids, decoding only at result
projection.  We do the same: the storage layer, both BGP engines, the
optimized evaluator and the LBR baseline all operate on ids minted here.

Ids are dense, starting at 0, assigned in first-seen order, which lets
index structures use plain lists keyed by id.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .terms import GroundTerm, Term
from .triple import Triple

__all__ = ["TermDictionary", "EncodedTriple"]

#: An encoded triple is simply an (s, p, o) tuple of term ids.
EncodedTriple = Tuple[int, int, int]


class TermDictionary:
    """Bidirectional mapping between ground terms and dense integer ids."""

    def __init__(self):
        self._term_to_id: Dict[GroundTerm, int] = {}
        self._id_to_term: List[GroundTerm] = []

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: GroundTerm) -> bool:
        return term in self._term_to_id

    def encode(self, term: GroundTerm) -> int:
        """Return the id for ``term``, minting a new one if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        if not isinstance(term, Term) or not term.is_ground():
            raise ValueError(f"only ground terms can be dictionary-encoded, got {term!r}")
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def lookup(self, term: GroundTerm) -> Optional[int]:
        """Return the id for ``term`` or None if it was never encoded.

        Unlike :meth:`encode` this never mints ids, so it is safe to use
        on query constants: a constant absent from the dictionary cannot
        match any triple.
        """
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> GroundTerm:
        try:
            return self._id_to_term[term_id]
        except IndexError:
            raise KeyError(f"unknown term id {term_id}") from None

    def decode_many(self, term_ids: Iterable[int]) -> Dict[int, GroundTerm]:
        """Decode a batch of (distinct) ids into an id → term map.

        The in-memory dictionary is a list lookup either way; lazy
        snapshot-backed dictionaries override this to decode in sorted
        id order, which turns random record touches into a sequential
        sweep over the mapped term section (batch result decode).
        """
        decode = self.decode
        return {term_id: decode(term_id) for term_id in term_ids}

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        s, p, o = encoded
        return Triple(self.decode(s), self.decode(p), self.decode(o))

    def terms(self) -> Iterator[GroundTerm]:
        return iter(self._id_to_term)
