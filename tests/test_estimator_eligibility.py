"""The estimator's per-table eligibility index against a brute-force scan.

``eligible`` and ``eligible_between`` answer from an index built once per
query.  On random join graphs -- several predicates per table pair,
non-equi join predicates among them, with and without transitive
closure -- both must return exactly what a scan of
``prepared_predicates`` returns: the same members in the same order, since
``_combine`` multiplies the selectivities in that order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.core import ELS, JoinSizeEstimator
from repro.errors import EstimationError
from repro.sql import Op, Projection, Query, join_predicate, local_predicate

COLUMNS = ("a", "b")
JOIN_OPS = (Op.EQ, Op.EQ, Op.EQ, Op.LT, Op.GE, Op.NE)


@st.composite
def join_graphs(draw):
    """A catalog and a query over 2-6 tables with random join predicates."""
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"T{i}" for i in range(1, n + 1)]
    entries = {}
    for name in names:
        rows = draw(st.integers(min_value=1, max_value=10**5))
        entries[name] = (
            rows,
            {column: draw(st.integers(min_value=1, max_value=rows)) for column in COLUMNS},
        )
    pairs = list(itertools.combinations(names, 2))
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.sampled_from(COLUMNS),
                st.sampled_from(COLUMNS),
                st.sampled_from(JOIN_OPS),
            ),
            min_size=0,
            max_size=10,
        )
    )
    predicates = [
        join_predicate(left, left_column, right, right_column, op)
        for (left, right), left_column, right_column, op in edges
    ]
    if draw(st.booleans()):
        predicates.append(local_predicate(names[0], "a", Op.LT, 10))
    query = Query.build(names, predicates, Projection(count_star=True))
    return Catalog.from_stats(entries), query


def brute_eligible(prepared, joined, table):
    return tuple(
        p for p in prepared if table in p.tables and (p.tables - {table}) <= joined
    )


def brute_between(prepared, left, right):
    return tuple(
        p
        for p in prepared
        if (p.tables & left) and (p.tables & right) and p.tables <= (left | right)
    )


def subsets(names):
    for size in range(len(names) + 1):
        yield from map(frozenset, itertools.combinations(names, size))


def same(found, expected):
    """Same predicate objects in the same order."""
    return [id(p) for p in found] == [id(p) for p in expected]


class TestIndexMatchesScan:
    @given(graph=join_graphs(), closure=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_eligible_every_subset_and_table(self, graph, closure):
        catalog, query = graph
        estimator = JoinSizeEstimator(query, catalog, ELS, apply_closure=closure)
        prepared = estimator.prepared_predicates
        names = list(estimator.query.tables)
        for joined in subsets(names):
            for table in names:
                expected = brute_eligible(prepared, joined, table)
                assert same(estimator.eligible(joined, table), expected)

    @given(graph=join_graphs(), closure=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_eligible_between_every_disjoint_split(self, graph, closure):
        catalog, query = graph
        estimator = JoinSizeEstimator(query, catalog, ELS, apply_closure=closure)
        prepared = estimator.prepared_predicates
        names = list(estimator.query.tables)
        for left in subsets(names):
            for right in subsets([n for n in names if n not in left]):
                expected = brute_between(prepared, left, right)
                assert same(estimator.eligible_between(left, right), expected)

    @given(graph=join_graphs())
    @settings(max_examples=30, deadline=None)
    def test_unknown_table_has_no_eligible_predicates(self, graph):
        catalog, query = graph
        estimator = JoinSizeEstimator(query, catalog, ELS)
        names = frozenset(estimator.query.tables)
        assert estimator.eligible(names, "NOT_A_TABLE") == ()
        assert estimator.eligible_between(names, frozenset({"NOT_A_TABLE"})) == ()


class TestOverlap:
    @pytest.fixture
    def estimator(self):
        catalog = Catalog.from_stats(
            {"R1": (10, {"a": 5}), "R2": (20, {"a": 10}), "R3": (30, {"a": 15})}
        )
        predicates = [
            join_predicate("R1", "a", "R2", "a"),
            join_predicate("R2", "a", "R3", "a"),
        ]
        query = Query.build(["R1", "R2", "R3"], predicates, Projection(count_star=True))
        return JoinSizeEstimator(query, catalog, ELS)

    def test_eligible_between_rejects_overlapping_sets(self, estimator):
        with pytest.raises(EstimationError, match="overlapping"):
            estimator.eligible_between(
                frozenset({"R1", "R2"}), frozenset({"R2", "R3"})
            )

    def test_eligible_between_rejects_identical_sets(self, estimator):
        with pytest.raises(EstimationError, match="overlapping"):
            estimator.eligible_between(frozenset({"R1"}), frozenset({"R1"}))

    def test_join_states_message_unchanged(self, estimator):
        left = estimator.start("R1")
        with pytest.raises(
            EstimationError, match=r"cannot join overlapping sets \['R1'\] and \['R1'\]"
        ):
            estimator.join_states(left, left)
