"""Enumerated query shapes and storage states for differential tests.

A query is a *left* side, the *right* sibling evaluated after it in the
same group, and the *placement* of that group in the query; a test runs
every combination on every storage state and engine configuration and
compares it bag-equal with ``tests/oracle.py``.  The parts shipped here
form the empty-left matrix (every left is empty on :func:`dataset`);
other matrices pass their own parts to :func:`cases`.  All parts share
``?a``, so the pieces join instead of forming cartesian products.

The permutation matrix (:func:`permutations`) writes groups of three or
four :data:`SIBLINGS` in every order, so whatever order the reorder
transformation places a group's children in is also checked as written.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from repro.rdf import Dataset, IRI, Literal, Triple
from repro.storage import TripleStore

EX = "http://x.test/"


def iri(name: str) -> IRI:
    return IRI(EX + name)


class Part(NamedTuple):
    """One named fragment of group-pattern text."""

    name: str
    text: str
    #: Triple patterns only: adjacent such parts coalesce into one BGP node.
    bgp: bool = False


class Case(NamedTuple):
    id: str
    text: str
    left: Part
    right: Part
    placement: Part


EMPTY_LEFTS: Tuple[Part, ...] = (
    Part("absent_constant", f"<{EX}absent> <{EX}p> ?a .", bgp=True),
    Part("non_matching_bgp", f"<{EX}s0> <{EX}t> ?a .", bgp=True),
    Part("filter_emptied_bgp", f"?a <{EX}p> ?b . FILTER(?b = <{EX}zz>)", bgp=True),
    Part(
        "all_empty_union",
        f"{{ <{EX}absent> <{EX}p> ?a }} UNION {{ <{EX}s0> <{EX}t> ?a }}",
    ),
)

#: Right siblings that produce rows on their own.
RIGHT_SIBLINGS: Tuple[Part, ...] = (
    Part("bgp", f"?a <{EX}q> ?c .", bgp=True),
    Part("group", f"{{ ?a <{EX}q> ?c }}"),
    Part("union", f"{{ ?a <{EX}q> ?c }} UNION {{ ?a <{EX}r> ?c }}"),
    Part("optional", f"OPTIONAL {{ ?a <{EX}q> ?c }}"),
    Part("optional_group", f"{{ OPTIONAL {{ ?a <{EX}q> ?c }} }}"),
)

#: Where the left-then-right group sits; ``{group}`` is replaced by it.
PLACEMENTS: Tuple[Part, ...] = (
    Part("root", "{group}"),
    Part("union_branch", f"{{ {{group}} }} UNION {{ ?a <{EX}r> ?w }}"),
    Part("optional", f"?a <{EX}name> ?n OPTIONAL {{ {{group}} }}"),
)

#: Both BGP engines × the paper's two extreme configurations.
CONFIGURATIONS: Tuple[Tuple[str, str], ...] = tuple(
    itertools.product(("wco", "hashjoin"), ("base", "full"))
)


def cases(
    lefts: Sequence[Part] = EMPTY_LEFTS,
    rights: Sequence[Part] = RIGHT_SIBLINGS,
    placements: Sequence[Part] = PLACEMENTS,
) -> Iterator[Case]:
    """Every combination as a ``SELECT *`` query."""
    for left, right, placement in itertools.product(lefts, rights, placements):
        group = placement.text.replace("{group}", f"{left.text} {right.text}")
        yield Case(
            f"{left.name}-{right.name}-{placement.name}",
            "SELECT * WHERE { " + group + " }",
            left,
            right,
            placement,
        )


#: Children of the permutation matrix: every operator kind, an empty
#: left side, and an OPTIONAL whose ``?b`` only the ``bgp`` sibling binds.
SIBLINGS: Tuple[Part, ...] = (
    Part("bgp", f"?a <{EX}p> ?b .", bgp=True),
    Part("empty", f"<{EX}absent> <{EX}p> ?a .", bgp=True),
    Part("group", f"{{ ?a <{EX}name> ?n }}"),
    Part("union", f"{{ ?a <{EX}q> ?c }} UNION {{ ?a <{EX}r> ?c }}"),
    Part("optional", f"OPTIONAL {{ ?b <{EX}q> ?c }}"),
    Part("filter", f"FILTER(!BOUND(?c) || ?c != <{EX}o2>)"),
)


class Permutation(NamedTuple):
    id: str
    text: str


def permutations(
    siblings: Sequence[Part] = SIBLINGS, sizes: Sequence[int] = (3, 4)
) -> Iterator[Permutation]:
    """Every order of every ``sizes``-subset of ``siblings`` as the root
    group of a ``SELECT *`` query."""
    for size in sizes:
        for subset in itertools.combinations(siblings, size):
            for order in itertools.permutations(subset):
                yield Permutation(
                    "-".join(part.name for part in order),
                    "SELECT * WHERE { " + " ".join(p.text for p in order) + " }",
                )


def dataset() -> Dataset:
    d = Dataset()
    for i in range(6):
        s = iri(f"s{i}")
        d.add_spo(s, iri("name"), Literal(f"S{i}"))
        if i < 5:
            d.add_spo(s, iri("p"), iri(f"s{i + 1}"))
        if i % 2 == 0:
            d.add_spo(s, iri("q"), iri(f"o{i}"))
        if i % 3 == 0:
            d.add_spo(s, iri("r"), iri(f"o{i}"))
    d.add_spo(iri("s3"), iri("t"), iri("s4"))  # ``t`` exists, never from s0
    return d


def revivers() -> List[Triple]:
    """Triples that make every :data:`EMPTY_LEFTS` entry non-empty."""
    return [
        Triple(iri("absent"), iri("p"), iri("s2")),
        Triple(iri("s0"), iri("t"), iri("s4")),
        Triple(iri("s3"), iri("p"), iri("zz")),
    ]


def _snapshot(data: Dataset, path: str) -> TripleStore:
    TripleStore.from_dataset(data).save(path)
    return TripleStore.load(path)


def frozen_store(directory: str) -> TripleStore:
    """:func:`dataset` saved as a snapshot and loaded back."""
    return _snapshot(dataset(), os.path.join(directory, "frozen.snap"))


def overlay_store(directory: str) -> TripleStore:
    """A snapshot of :func:`dataset` plus :func:`revivers`, with the
    revivers deleted again in the (uncompacted) delta overlay."""
    data = Dataset([*dataset(), *revivers()])
    store = _snapshot(data, os.path.join(directory, "overlay.snap"))
    store.apply_update(deletes=revivers())
    return store


STORAGES = {"frozen": frozen_store, "overlay": overlay_store}
