"""Unit and property tests for bags of mappings and their operators.

The property tests check the implementations against the paper's literal
set-builder definitions (Section 3), brute-forced with the naive
oracle's compatibility and merge (``tests/oracle.py``).
"""

from hypothesis import given, strategies as st

from repro.sparql.bags import UNBOUND, Bag, join, join_streamed, left_join, union

from . import oracle
from .oracle import _compatible as compatible, _merge as merge_mappings
from .strategies import solution_bags

# Small mapping universe: variables a/b/c over values 0..2, possibly absent.
_values = st.none() | st.integers(min_value=0, max_value=2)


@st.composite
def mappings(draw):
    out = {}
    for var in "abc":
        value = draw(_values)
        if value is not None:
            out[var] = value
    return out


bags = st.lists(mappings(), min_size=0, max_size=6).map(Bag)


def brute_join(b1, b2):
    return Bag(
        merge_mappings(m1, m2) for m1 in b1 for m2 in b2 if compatible(m1, m2)
    )


def brute_minus(b1, b2):
    return Bag(m1 for m1 in b1 if all(not compatible(m1, m2) for m2 in b2))


class TestCompatible:
    """The oracle's compatibility, which every brute-force reference here
    and the oracle's own joins rest on, pinned by hand."""

    def test_disjoint_domains_compatible(self):
        assert compatible({"a": 1}, {"b": 2})

    def test_same_value_compatible(self):
        assert compatible({"a": 1, "b": 2}, {"a": 1})

    def test_conflict_incompatible(self):
        assert not compatible({"a": 1}, {"a": 2})

    def test_empty_compatible_with_everything(self):
        assert compatible({}, {"a": 1})

    @given(mappings(), mappings())
    def test_symmetry(self, m1, m2):
        assert compatible(m1, m2) == compatible(m2, m1)


class TestBagBasics:
    def test_identity_has_one_empty_mapping(self):
        bag = Bag.identity()
        assert len(bag) == 1 and list(bag) == [{}]

    def test_empty(self):
        assert len(Bag.empty()) == 0 and not Bag.empty()

    def test_equality_is_multiset(self):
        assert Bag([{"a": 1}, {"a": 1}]) == Bag([{"a": 1}, {"a": 1}])
        assert Bag([{"a": 1}, {"a": 1}]) != Bag([{"a": 1}])
        assert Bag([{"a": 1}, {"b": 2}]) == Bag([{"b": 2}, {"a": 1}])

    def test_unhashable(self):
        import pytest

        with pytest.raises(TypeError):
            hash(Bag())

    def test_variables(self):
        assert Bag([{"a": 1}, {"b": 2}]).variables() == {"a", "b"}

    def test_certain_variables(self):
        bag = Bag([{"a": 1, "b": 2}, {"a": 3}])
        assert bag.certain_variables() == {"a"}

    def test_certain_variables_empty_bag(self):
        assert Bag().certain_variables() == frozenset()

    def test_project(self):
        bag = Bag([{"a": 1, "b": 2}])
        assert list(bag.project(["a"])) == [{"a": 1}]

    def test_project_skips_unbound(self):
        bag = Bag([{"a": 1}])
        assert list(bag.project(["a", "z"])) == [{"a": 1}]

    def test_distinct_values(self):
        bag = Bag([{"a": 1}, {"a": 1}, {"a": 2}, {"b": 9}])
        assert bag.distinct_values("a") == {1, 2}


class TestJoin:
    def test_join_on_shared_variable(self):
        out = join(Bag([{"a": 1}]), Bag([{"a": 1, "b": 2}, {"a": 9}]))
        assert out == Bag([{"a": 1, "b": 2}])

    def test_cartesian_when_disjoint(self):
        out = join(Bag([{"a": 1}, {"a": 2}]), Bag([{"b": 1}]))
        assert len(out) == 2

    def test_identity_is_neutral(self):
        bag = Bag([{"a": 1}, {"a": 2, "b": 1}])
        assert join(Bag.identity(), bag) == bag
        assert join(bag, Bag.identity()) == bag

    def test_preserves_duplicates(self):
        out = join(Bag([{"a": 1}, {"a": 1}]), Bag([{"a": 1}]))
        assert len(out) == 2

    def test_unbound_shared_variable_joins_loosely(self):
        # {b:5} leaves 'a' unbound → compatible with both rows.
        out = join(Bag([{"a": 1}, {"a": 2}]), Bag([{"b": 5}, {"a": 1, "b": 6}]))
        assert out == Bag(
            [{"a": 1, "b": 5}, {"a": 2, "b": 5}, {"a": 1, "b": 6}]
        )

    @given(bags, bags)
    def test_matches_brute_force(self, b1, b2):
        assert join(b1, b2) == brute_join(b1, b2)

    @given(bags, bags)
    def test_commutative(self, b1, b2):
        assert join(b1, b2) == join(b2, b1)


class TestUnion:
    def test_concatenates(self):
        out = union(Bag([{"a": 1}]), Bag([{"a": 1}, {"b": 2}]))
        assert len(out) == 3

    @given(bags, bags)
    def test_size_adds(self, b1, b2):
        assert len(union(b1, b2)) == len(b1) + len(b2)


class TestMinus:
    """Ω1 ∖ Ω2, the unmatched part of Definition 7's left join, as the
    set-builder ``brute_minus`` that ``TestLeftJoin`` checks against."""

    def test_incompatible_survive(self):
        out = brute_minus(Bag([{"a": 1}, {"a": 2}]), Bag([{"a": 1}]))
        assert out == Bag([{"a": 2}])

    def test_empty_right_keeps_all(self):
        bag = Bag([{"a": 1}])
        assert brute_minus(bag, Bag()) == bag

    def test_disjoint_domains_remove_all(self):
        # Every mapping is compatible with {b:1}, so nothing survives.
        out = brute_minus(Bag([{"a": 1}]), Bag([{"b": 1}]))
        assert len(out) == 0

    @given(bags, bags)
    def test_oracle_left_join_equals_definition(self, b1, b2):
        """The oracle's left join is (Ω1 ⋈ Ω2) ∪bag (Ω1 ∖ Ω2) too."""
        expected = union(brute_join(b1, b2), brute_minus(b1, b2))
        assert Bag(oracle._left_join(list(b1), list(b2))) == expected


class TestLeftJoin:
    def test_matching_rows_extended(self):
        out = left_join(Bag([{"a": 1}]), Bag([{"a": 1, "b": 2}]))
        assert out == Bag([{"a": 1, "b": 2}])

    def test_non_matching_rows_survive(self):
        out = left_join(Bag([{"a": 1}, {"a": 2}]), Bag([{"a": 1, "b": 2}]))
        assert out == Bag([{"a": 1, "b": 2}, {"a": 2}])

    def test_empty_right_is_identity(self):
        bag = Bag([{"a": 1}])
        assert left_join(bag, Bag()) == bag

    def test_identity_left(self):
        right = Bag([{"a": 1}, {"a": 2}])
        assert left_join(Bag.identity(), right) == right

    @given(bags, bags)
    def test_equals_definition(self, b1, b2):
        """Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪bag (Ω1 ∖ Ω2) — Definition 7."""
        expected = union(brute_join(b1, b2), brute_minus(b1, b2))
        assert left_join(b1, b2) == expected

    @given(bags)
    def test_result_at_least_left_size(self, b1):
        right = Bag([{"c": 0}])
        assert len(left_join(b1, right)) >= len(b1)


# ----------------------------------------------------------------------
# Columnar representation: equivalence with the old dict semantics.
#
# The strategies draw from `tests.strategies.solution_bags`, whose
# mappings share variables but may leave any of them unbound — the
# regime that exercises the loose-row fallback paths in join/left_join
# (a row whose hash key contains UNBOUND must fall back to pairwise
# compatibility checks, exactly as the per-row dicts did).
# ----------------------------------------------------------------------
wide_bags = solution_bags()


def brute_union(m1, m2):
    return list(m1) + list(m2)


def brute_left_join(m1, m2):
    joined = [
        merge_mappings(a, b) for a in m1 for b in m2 if compatible(a, b)
    ]
    kept = [a for a in m1 if all(not compatible(a, b) for b in m2)]
    return joined + kept


class TestColumnarEquivalence:
    """All three operators agree with the dict-level set-builder forms."""

    @given(wide_bags, wide_bags)
    def test_join_matches_dict_semantics(self, m1, m2):
        expected = Bag(
            merge_mappings(a, b) for a in m1 for b in m2 if compatible(a, b)
        )
        assert join(Bag(m1), Bag(m2)) == expected

    @given(wide_bags, wide_bags)
    def test_union_matches_dict_semantics(self, m1, m2):
        assert union(Bag(m1), Bag(m2)) == Bag(brute_union(m1, m2))

    @given(wide_bags, wide_bags)
    def test_left_join_matches_dict_semantics(self, m1, m2):
        assert left_join(Bag(m1), Bag(m2)) == Bag(brute_left_join(m1, m2))

    @given(wide_bags, wide_bags)
    def test_join_streamed_equals_join(self, m1, m2):
        b1, b2 = Bag(m1), Bag(m2)
        streamed = join_streamed(b1, b2.schema, iter(b2.rows))
        assert streamed == join(b1, b2)

    @given(wide_bags, wide_bags)
    def test_operators_roundtrip_through_dicts(self, m1, m2):
        """Rebuilding an operator result from its dict view is lossless."""
        for op in (join, union, left_join):
            result = op(Bag(m1), Bag(m2))
            assert Bag(list(result)) == result


class TestColumnarLayout:
    def test_from_rows_roundtrip(self):
        bag = Bag.from_rows(("a", "b"), [(1, 2), (3, UNBOUND)])
        assert list(bag) == [{"a": 1, "b": 2}, {"a": 3}]
        assert bag.schema == ("a", "b")
        assert bag.slot("b") == 1 and bag.slot("z") is None

    def test_unbound_columns_do_not_affect_equality(self):
        padded = Bag.from_rows(("a", "b"), [(1, UNBOUND)])
        assert padded == Bag([{"a": 1}])
        assert padded.variables() == {"a"}

    def test_add_widens_schema(self):
        bag = Bag([{"a": 1}])
        bag.add({"a": 2, "b": 3})
        assert set(bag.schema) == {"a", "b"}
        assert bag == Bag([{"a": 1}, {"a": 2, "b": 3}])
        assert bag.certain_variables() == {"a"}

    def test_add_row_checks_width(self):
        import pytest

        bag = Bag.from_rows(("a",), [])
        bag.add_row((1,))
        with pytest.raises(ValueError):
            bag.add_row((1, 2))
        assert list(bag) == [{"a": 1}]

    def test_variables_cache_invalidated_by_add(self):
        bag = Bag([{"a": 1}])
        assert bag.variables() == {"a"}
        bag.add({"b": 2})
        assert bag.variables() == {"a", "b"}
        assert bag.certain_variables() == frozenset()

    def test_unbound_is_falsy_singleton(self):
        assert not UNBOUND
        assert repr(UNBOUND) == "UNBOUND"

    @given(wide_bags)
    def test_certain_and_variables_match_dict_view(self, m1):
        bag = Bag(m1)
        assert bag.variables() == frozenset().union(*(m.keys() for m in m1), frozenset())
        if m1:
            expected_certain = frozenset(
                set(m1[0].keys()).intersection(*(m.keys() for m in m1))
            )
        else:
            expected_certain = frozenset()
        assert bag.certain_variables() == expected_certain

    @given(wide_bags)
    def test_project_matches_dict_view(self, m1):
        bag = Bag(m1).project(["a", "c"])
        expected = Bag(
            {v: m[v] for v in ("a", "c") if v in m} for m in m1
        )
        assert bag == expected
