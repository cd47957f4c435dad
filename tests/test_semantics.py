"""Definition 7 semantics pinned by hand.

``tests/oracle.py`` is the reference every optimized component is
checked against, so its answers are pinned here; each whole query is
also run through the engine (both BGP engines, ``mode="full"``), which
must give the same answer.
"""

from repro.core import SparqlUOEngine
from repro.rdf import Dataset, IRI, Triple, TriplePattern, Variable
from repro.sparql import Bag, GroupGraphPattern, parse_query

from . import oracle

EX = "http://x/"
A, B, C = IRI(EX + "a"), IRI(EX + "b"), IRI(EX + "c")
P, Q = IRI(EX + "p"), IRI(EX + "q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def dataset():
    return Dataset(
        [
            Triple(A, P, B),
            Triple(A, P, C),
            Triple(B, Q, C),
            Triple(A, Q, A),
        ]
    )


def match_rows(pattern, data=None):
    return oracle.evaluate_group(GroupGraphPattern([pattern]), data or dataset())


def match_pattern(pattern, data):
    return Bag(match_rows(pattern, data))


def run_query(query, data):
    """The oracle's answer, once the engine has agreed with it."""
    rows = oracle.execute(query, data).rows
    for bgp_engine in ("wco", "hashjoin"):
        engine = SparqlUOEngine.for_dataset(data, bgp_engine=bgp_engine, mode="full")
        assert oracle.as_counter(engine.execute(query)) == oracle.as_counter(rows), bgp_engine
    return Bag(rows)


class TestTriplePatternEvaluation:
    def test_bindings(self):
        bag = match_pattern(TriplePattern(A, P, X), dataset())
        assert bag == Bag([{"x": B}, {"x": C}])

    def test_ground_pattern_present(self):
        bag = match_pattern(TriplePattern(A, P, B), dataset())
        assert bag == Bag.identity()

    def test_ground_pattern_absent(self):
        bag = match_pattern(TriplePattern(B, P, A), dataset())
        assert len(bag) == 0

    def test_repeated_variable(self):
        bag = match_pattern(TriplePattern(X, Q, X), dataset())
        assert bag == Bag([{"x": A}])


class TestOperators:
    def test_and_joins(self):
        q = parse_query(f"SELECT * WHERE {{ <{EX}a> <{EX}p> ?x . ?x <{EX}q> ?y }}")
        assert run_query(q, dataset()) == Bag([{"x": B, "y": C}])

    def test_union_preserves_duplicates(self):
        # Both branches produce {x: B}, bag union keeps both.
        q = parse_query(
            f"SELECT * WHERE {{ {{ <{EX}a> <{EX}p> ?x }} UNION {{ <{EX}a> <{EX}p> ?x }} }}"
        )
        result = run_query(q, dataset())
        assert len(result) == 4  # two solutions × two branches

    def test_optional_extends_and_keeps(self):
        q = parse_query(f"SELECT * WHERE {{ <{EX}a> <{EX}p> ?x OPTIONAL {{ ?x <{EX}q> ?y }} }}")
        assert run_query(q, dataset()) == Bag([{"x": B, "y": C}, {"x": C}])

    def test_leading_optional(self):
        q = parse_query(f"SELECT * WHERE {{ OPTIONAL {{ <{EX}a> <{EX}p> ?x }} }}")
        assert run_query(q, dataset()) == Bag([{"x": B}, {"x": C}])

    def test_empty_where(self):
        q = parse_query("SELECT * WHERE { }")
        assert run_query(q, dataset()) == Bag.identity()

    def test_projection(self):
        q = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}")
        result = run_query(q, dataset())
        assert result == Bag([{"x": A}, {"x": A}])  # duplicates preserved

    def test_failed_join_is_empty(self):
        q = parse_query(f"SELECT * WHERE {{ <{EX}b> <{EX}p> ?x . ?x <{EX}q> ?y }}")
        assert len(run_query(q, dataset())) == 0

    def test_nested_optional_semantics(self):
        # (A OPT (B OPT C)): inner optional evaluated inside the group.
        q = parse_query(
            f"SELECT * WHERE {{ <{EX}a> <{EX}p> ?x "
            f"OPTIONAL {{ ?x <{EX}q> ?y OPTIONAL {{ ?y <{EX}p> ?z }} }} }}"
        )
        result = run_query(q, dataset())
        assert result == Bag([{"x": B, "y": C}, {"x": C}])


class TestGroupFold:
    """A group's elements fold left to right (Definition 7): each triple,
    nested group or UNION joins the bag so far, each OPTIONAL left-joins
    it, and the fold starts from the one empty mapping.  Where the data
    tells the left fold from another grouping, the other grouping's
    answer is computed with the oracle's operators and must differ."""

    def query(self, body):
        return parse_query(f"SELECT * WHERE {{ {body} }}")

    def test_single_triple(self):
        result = run_query(self.query(f"<{EX}a> <{EX}p> ?x"), dataset())
        assert result == Bag([{"x": B}, {"x": C}])

    def test_empty_nested_group_is_identity(self):
        result = run_query(self.query(f"<{EX}a> <{EX}p> ?x {{ }}"), dataset())
        assert result == Bag([{"x": B}, {"x": C}])

    def test_left_fold_of_and(self):
        result = run_query(
            self.query(f"?x <{EX}q> ?y . ?y <{EX}q> ?z . <{EX}a> <{EX}p> ?w"),
            dataset(),
        )
        assert result == Bag(
            [{"x": A, "y": A, "z": A, "w": B}, {"x": A, "y": A, "z": A, "w": C}]
        )

    def test_optional_left_associative(self):
        # ((a p ?x) ⟕ (?x q ?y)) ⟕ (?y q ?z): {x: c} is unbound on ?y and
        # so extends with every (?y q ?z) row.
        result = run_query(
            self.query(
                f"<{EX}a> <{EX}p> ?x OPTIONAL {{ ?x <{EX}q> ?y }} "
                f"OPTIONAL {{ ?y <{EX}q> ?z }}"
            ),
            dataset(),
        )
        assert result == Bag(
            [{"x": B, "y": C}, {"x": C, "y": B, "z": C}, {"x": C, "y": A, "z": A}]
        )
        t1, t2, t3 = (
            match_rows(TriplePattern(A, P, X)),
            match_rows(TriplePattern(X, Q, Y)),
            match_rows(TriplePattern(Y, Q, Z)),
        )
        assert Bag(oracle._left_join(t1, oracle._left_join(t2, t3))) != result

    def test_leading_optional_then_triple(self):
        # (Ω0 ⟕ (a p ?x)) ⋈ (?x q ?y)
        result = run_query(
            self.query(f"OPTIONAL {{ <{EX}a> <{EX}p> ?x }} ?x <{EX}q> ?y"), dataset()
        )
        assert result == Bag([{"x": B, "y": C}])

    def test_leading_optional_without_match_keeps_empty_mapping(self):
        result = run_query(self.query(f"OPTIONAL {{ <{EX}b> <{EX}p> ?x }}"), dataset())
        assert result == Bag.identity()

    def test_pattern_after_optional_joins_whole(self):
        # ((a p ?x) ⟕ (?x q ?y)) ⋈ (?y p ?z), not (a p ?x) ⟕ ((?x q ?y) ⋈ (?y p ?z)).
        result = run_query(
            self.query(f"<{EX}a> <{EX}p> ?x OPTIONAL {{ ?x <{EX}q> ?y }} ?y <{EX}p> ?z"),
            dataset(),
        )
        assert result == Bag([{"x": C, "y": A, "z": B}, {"x": C, "y": A, "z": C}])
        t1, t2, t3 = (
            match_rows(TriplePattern(A, P, X)),
            match_rows(TriplePattern(X, Q, Y)),
            match_rows(TriplePattern(Y, P, Z)),
        )
        assert Bag(oracle._left_join(t1, oracle._join(t2, t3))) != result

    def test_union_of_three_branches(self):
        result = run_query(
            self.query(
                f"{{ <{EX}a> <{EX}p> ?x }} UNION {{ ?x <{EX}q> <{EX}c> }} "
                f"UNION {{ <{EX}a> <{EX}q> ?x }}"
            ),
            dataset(),
        )
        assert result == Bag([{"x": B}, {"x": C}, {"x": B}, {"x": A}])

    def test_nested_group_is_transparent(self):
        body = f"<{EX}a> <{EX}p> ?x . ?x <{EX}q> ?y"
        nested = run_query(self.query(f"{{ {body} }}"), dataset())
        assert nested == run_query(self.query(body), dataset())
        assert nested == Bag([{"x": B, "y": C}])

    def test_nested_group_scopes_its_optional(self):
        # { OPTIONAL {..} } is Ω0 ⟕ (?x q ?y), which then joins (a p ?x):
        # {x: c} has no (?x q ?y) row, so it is dropped, unlike the flat form.
        nested = run_query(
            self.query(f"<{EX}a> <{EX}p> ?x {{ OPTIONAL {{ ?x <{EX}q> ?y }} }}"),
            dataset(),
        )
        assert nested == Bag([{"x": B, "y": C}])
        flat = run_query(
            self.query(f"<{EX}a> <{EX}p> ?x OPTIONAL {{ ?x <{EX}q> ?y }}"), dataset()
        )
        assert flat == Bag([{"x": B, "y": C}, {"x": C}])
