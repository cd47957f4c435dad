"""Shared fixtures: small hand-built datasets and engine factories."""

from __future__ import annotations

import pytest

from repro.datasets.lubm import generate_lubm
from repro.rdf import Dataset, IRI, Literal, Triple
from repro.storage import TripleStore

EX = "http://example.org/"


def ex(name: str) -> IRI:
    """Shorthand for an example.org IRI."""
    return IRI(EX + name)


@pytest.fixture(scope="session")
def presidents_dataset() -> Dataset:
    """The paper's Figure 1 running example, in miniature.

    Five presidents link to President_of_the_United_States; names are
    split between foaf:name and rdfs:label (UNION motivation); only
    some have owl:sameAs (OPTIONAL motivation); plus 200 non-president
    persons that make the name/sameAs predicates low-selectivity.
    """
    d = Dataset()
    link = ex("wikiPageWikiLink")
    pres = ex("President_of_the_United_States")
    foaf_name = ex("foaf_name")
    label = ex("rdfs_label")
    same = ex("sameAs")
    for i in range(5):
        p = ex(f"president{i}")
        d.add_spo(p, link, pres)
        if i % 2 == 0:
            d.add_spo(p, foaf_name, Literal(f"President {i}"))
        else:
            d.add_spo(p, label, Literal(f"President {i}", language="en"))
        if i < 2:
            d.add_spo(p, same, ex(f"external{i}"))
    for i in range(200):
        p = ex(f"person{i}")
        d.add_spo(p, foaf_name, Literal(f"Person {i}"))
        if i % 2 == 0:
            d.add_spo(p, label, Literal(f"Person {i}", language="en"))
        if i % 3 == 0:
            d.add_spo(p, same, ex(f"ext{i}"))
    return d


@pytest.fixture(scope="session")
def presidents_store(presidents_dataset) -> TripleStore:
    return TripleStore.from_dataset(presidents_dataset)


@pytest.fixture(scope="session")
def university_dataset() -> Dataset:
    """A small academic graph exercising joins, optionals and unions."""
    d = Dataset()
    works = ex("worksFor")
    head = ex("headOf")
    advisor = ex("advisor")
    teaches = ex("teacherOf")
    takes = ex("takesCourse")
    rtype = ex("type")
    name = ex("name")
    prof_cls = ex("FullProfessor")
    for dept_index in range(3):
        dept = ex(f"dept{dept_index}")
        for f in range(4):
            prof = ex(f"prof{dept_index}_{f}")
            d.add_spo(prof, works, dept)
            d.add_spo(prof, name, Literal(f"Prof {dept_index}.{f}"))
            if f == 0:
                d.add_spo(prof, head, dept)
            if f % 2 == 0:
                d.add_spo(prof, rtype, prof_cls)
            course = ex(f"course{dept_index}_{f}")
            d.add_spo(prof, teaches, course)
            for s in range(3):
                student = ex(f"student{dept_index}_{f}_{s}")
                d.add_spo(student, advisor, prof)
                if s < 2:
                    d.add_spo(student, takes, course)
                d.add_spo(student, name, Literal(f"Student {dept_index}.{f}.{s}"))
    return d


@pytest.fixture(scope="session")
def university_store(university_dataset) -> TripleStore:
    return TripleStore.from_dataset(university_dataset)


def _lubm_store(universities: int) -> TripleStore:
    """LUBM, generator seed 42, encoded in sorted triple order.

    Sorting fixes every term id, and with them the exact counts
    (galloping probes, say) the tests pin; those counts were taken in
    this order, not the generator's.  Read-only.
    """
    dataset = generate_lubm(universities=universities, seed=42)
    return TripleStore.from_triples(sorted(dataset, key=Triple.n3))


@pytest.fixture(scope="session")
def lubm_u1_store() -> TripleStore:
    return _lubm_store(1)


@pytest.fixture(scope="session")
def lubm_u2_store() -> TripleStore:
    return _lubm_store(2)
