"""Triples and triple patterns (Definitions 1–3 of the paper)."""

from __future__ import annotations

from typing import FrozenSet, Iterator, Mapping, Tuple

from .terms import BlankNode, IRI, Literal, PatternTerm, Term, Variable

__all__ = ["Triple", "TriplePattern", "coalescable"]


class Triple:
    """A ground RDF triple ⟨subject, predicate, object⟩ (Definition 1).

    Subjects must be IRIs or blank nodes, predicates IRIs, and objects any
    of IRI, blank node or literal.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if not isinstance(subject, (IRI, BlankNode)):
            raise ValueError(f"triple subject must be IRI or blank node, got {subject!r}")
        if not isinstance(predicate, IRI):
            raise ValueError(f"triple predicate must be IRI, got {predicate!r}")
        if not isinstance(object, (IRI, BlankNode, Literal)):
            raise ValueError(f"triple object must be IRI, blank node or literal, got {object!r}")
        super().__setattr__("subject", subject)
        super().__setattr__("predicate", predicate)
        super().__setattr__("object", object)

    def __setattr__(self, name, value):
        raise AttributeError("Triple is immutable")

    def as_tuple(self) -> Tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __iter__(self) -> Iterator[Term]:
        return iter(self.as_tuple())

    def __eq__(self, other) -> bool:
        return isinstance(other, Triple) and other.as_tuple() == self.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def __str__(self) -> str:
        return self.n3()


class TriplePattern:
    """A triple pattern (Definition 2): any position may hold a variable.

    Following the paper's definition, subjects and predicates may be
    variables or IRIs, and objects may additionally be literals.  Blank
    nodes in patterns are accepted and treated as constants (the paper's
    queries never use them, but N-Triples-derived test data may).
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm):
        for position, term in (("subject", subject), ("predicate", predicate), ("object", object)):
            if not isinstance(term, (IRI, BlankNode, Literal, Variable)):
                raise ValueError(f"triple pattern {position} must be a Term, got {term!r}")
        if isinstance(subject, Literal):
            raise ValueError("triple pattern subject cannot be a literal")
        if isinstance(predicate, (Literal, BlankNode)):
            raise ValueError("triple pattern predicate must be an IRI or variable")
        super().__setattr__("subject", subject)
        super().__setattr__("predicate", predicate)
        super().__setattr__("object", object)

    def __setattr__(self, name, value):
        raise AttributeError("TriplePattern is immutable")

    def as_tuple(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> FrozenSet[Variable]:
        """All variables occurring in the pattern (the paper's var(t))."""
        return frozenset(t for t in self.as_tuple() if isinstance(t, Variable))

    def join_variables(self) -> FrozenSet[Variable]:
        """Variables at the subject/object positions.

        Definition 3 (coalescability) only considers subject and object
        variables; predicate variables do not make patterns coalescable.
        """
        out = set()
        if isinstance(self.subject, Variable):
            out.add(self.subject)
        if isinstance(self.object, Variable):
            out.add(self.object)
        return frozenset(out)

    def is_ground(self) -> bool:
        return not self.variables()

    def layout(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """Columnar scan layout: (schema, positions).

        ``schema`` is the pattern's variable names deduplicated in
        position order; ``positions`` gives, for each name, the first
        s/p/o position it occupies.  Every scan that emits columnar
        rows (engines, baselines) projects a matched triple through
        these positions.
        """
        schema = []
        positions = []
        for index, term in enumerate(self.as_tuple()):
            if isinstance(term, Variable) and term.name not in schema:
                schema.append(term.name)
                positions.append(index)
        return tuple(schema), tuple(positions)

    def substitute(self, binding: Mapping[Variable, Term]) -> "TriplePattern":
        """Return a copy with every bound variable replaced by its value."""
        def lookup(term: PatternTerm) -> PatternTerm:
            if isinstance(term, Variable):
                return binding.get(term, term)
            return term

        return TriplePattern(lookup(self.subject), lookup(self.predicate), lookup(self.object))

    def matches(self, triple: Triple) -> bool:
        """True if the pattern matches the ground triple under *some* mapping.

        Repeated variables must bind consistently, e.g. ``?x :p ?x`` only
        matches triples whose subject equals their object.
        """
        binding = {}
        for pattern_term, data_term in zip(self.as_tuple(), triple.as_tuple()):
            if isinstance(pattern_term, Variable):
                bound = binding.get(pattern_term)
                if bound is None:
                    binding[pattern_term] = data_term
                elif bound != data_term:
                    return False
            elif pattern_term != data_term:
                return False
        return True

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __eq__(self, other) -> bool:
        return isinstance(other, TriplePattern) and other.as_tuple() == self.as_tuple()

    def __hash__(self) -> int:
        return hash(("tp",) + self.as_tuple())

    def __repr__(self) -> str:
        return f"TriplePattern({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def __str__(self) -> str:
        return self.n3()


def coalescable(t1: TriplePattern, t2: TriplePattern) -> bool:
    """Definition 3: patterns are coalescable iff their subject/object
    variable sets intersect."""
    return bool(t1.join_variables() & t2.join_variables())
