"""Predicate model tests: operators, classification, canonical forms."""

import pytest

from repro.sql.predicates import (
    ColumnRef,
    ComparisonPredicate,
    Literal,
    Op,
    PredicateKind,
    column_equality,
    join_predicate,
    local_predicate,
)


class TestOp:
    @pytest.mark.parametrize(
        "op,flipped",
        [
            (Op.EQ, Op.EQ),
            (Op.NE, Op.NE),
            (Op.LT, Op.GT),
            (Op.LE, Op.GE),
            (Op.GT, Op.LT),
            (Op.GE, Op.LE),
        ],
    )
    def test_flip(self, op, flipped):
        assert op.flipped is flipped
        assert op.flipped.flipped is op

    def test_classification_flags(self):
        assert Op.EQ.is_equality
        assert not Op.LT.is_equality
        assert Op.LT.is_range and Op.GE.is_range
        assert not Op.EQ.is_range and not Op.NE.is_range
        assert Op.GT.is_lower_bound and Op.GE.is_lower_bound
        assert Op.LT.is_upper_bound and Op.LE.is_upper_bound
        assert not Op.LT.is_lower_bound

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Op.EQ, 1, 1, True),
            (Op.EQ, 1, 2, False),
            (Op.NE, 1, 2, True),
            (Op.LT, 1, 2, True),
            (Op.LT, 2, 2, False),
            (Op.LE, 2, 2, True),
            (Op.GT, 3, 2, True),
            (Op.GE, 2, 2, True),
        ],
    )
    def test_evaluate(self, op, a, b, expected):
        assert op.evaluate(a, b) is expected


class TestColumnRef:
    def test_equality_and_hash(self):
        assert ColumnRef("R", "x") == ColumnRef("R", "x")
        assert hash(ColumnRef("R", "x")) == hash(ColumnRef("R", "x"))
        assert ColumnRef("R", "x") != ColumnRef("S", "x")

    def test_ordering_is_lexicographic(self):
        assert ColumnRef("A", "z") < ColumnRef("B", "a")
        assert ColumnRef("A", "a") < ColumnRef("A", "b")

    def test_str(self):
        assert str(ColumnRef("R1", "x")) == "R1.x"


class TestClassification:
    def test_join_predicate_kind(self):
        pred = join_predicate("R", "x", "S", "y")
        assert pred.kind is PredicateKind.JOIN
        assert pred.is_join and not pred.is_local
        assert pred.is_equijoin

    def test_nonequality_join_not_equijoin(self):
        pred = join_predicate("R", "x", "S", "y", Op.LT)
        assert pred.is_join
        assert not pred.is_equijoin

    def test_column_local_kind(self):
        pred = column_equality("R", "x", "y")
        assert pred.kind is PredicateKind.COLUMN_LOCAL
        assert pred.is_local

    def test_constant_local_kind(self):
        pred = local_predicate("R", "x", Op.LT, 100)
        assert pred.kind is PredicateKind.CONSTANT_LOCAL
        assert pred.is_local

    def test_tables_property(self):
        assert join_predicate("R", "x", "S", "y").tables == frozenset({"R", "S"})
        assert local_predicate("R", "x", Op.EQ, 1).tables == frozenset({"R"})

    def test_columns_property(self):
        join = join_predicate("R", "x", "S", "y")
        assert set(join.columns) == {ColumnRef("R", "x"), ColumnRef("S", "y")}
        local = local_predicate("R", "x", Op.EQ, 1)
        assert local.columns == (ColumnRef("R", "x"),)

    def test_constant_accessor(self):
        assert local_predicate("R", "x", Op.LT, 100).constant == 100
        with pytest.raises(ValueError):
            _ = join_predicate("R", "x", "S", "y").constant

    def test_references(self):
        pred = join_predicate("R", "x", "S", "y")
        assert pred.references("R") and pred.references("S")
        assert not pred.references("T")


class TestCanonical:
    def test_join_predicate_operand_order_normalized(self):
        a = ComparisonPredicate(ColumnRef("S", "y"), Op.EQ, ColumnRef("R", "x"))
        b = ComparisonPredicate(ColumnRef("R", "x"), Op.EQ, ColumnRef("S", "y"))
        assert a.canonical() == b.canonical()

    def test_canonical_flips_operator(self):
        pred = ComparisonPredicate(ColumnRef("S", "y"), Op.LT, ColumnRef("R", "x"))
        canonical = pred.canonical()
        assert canonical.left == ColumnRef("R", "x")
        assert canonical.op is Op.GT

    def test_constant_predicate_canonical_is_identity(self):
        pred = local_predicate("R", "x", Op.LT, 10)
        assert pred.canonical() is pred

    def test_already_canonical_unchanged(self):
        pred = ComparisonPredicate(ColumnRef("A", "x"), Op.EQ, ColumnRef("B", "y"))
        assert pred.canonical() is pred

    def test_same_table_columns_ordered(self):
        a = ComparisonPredicate(ColumnRef("R", "z"), Op.EQ, ColumnRef("R", "a"))
        assert a.canonical().left == ColumnRef("R", "a")


class TestConstructors:
    def test_join_predicate_rejects_same_table(self):
        with pytest.raises(ValueError):
            join_predicate("R", "x", "R", "y")

    def test_column_equality_rejects_same_column(self):
        with pytest.raises(ValueError):
            column_equality("R", "x", "x")

    def test_join_predicate_returns_canonical(self):
        pred = join_predicate("Z", "x", "A", "y")
        assert pred.left.table == "A"

    def test_str_rendering(self):
        assert str(join_predicate("R", "x", "S", "y")) == "R.x = S.y"
        assert str(local_predicate("R", "x", Op.LT, 100)) == "R.x < 100"
        assert str(local_predicate("R", "s", Op.EQ, "abc")) == "R.s = 'abc'"

    def test_literal_str(self):
        assert str(Literal(5)) == "5"
        assert str(Literal("a")) == "'a'"


class TestTablesComputedOnce:
    def test_same_object_on_every_access(self):
        predicate = join_predicate("R", "x", "S", "y")
        assert predicate.tables is predicate.tables
        assert predicate.tables == frozenset({"R", "S"})

    def test_local_predicate_tables(self):
        assert local_predicate("R", "x", Op.LT, 5).tables == frozenset({"R"})

    def test_equality_and_hash_ignore_the_cached_value(self):
        accessed = join_predicate("R", "x", "S", "y")
        _ = accessed.tables
        fresh = join_predicate("R", "x", "S", "y")
        assert accessed == fresh
        assert hash(accessed) == hash(fresh)
        assert fresh in {accessed}
        assert repr(accessed) == repr(fresh)
