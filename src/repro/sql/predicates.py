"""Predicate model for conjunctive select-project-join queries.

The paper (and this reproduction) deals exclusively with *conjunctive*
queries: the WHERE clause is a conjunction of simple comparison predicates.
Each predicate compares either

* a column with a column of a **different** table — a *join predicate*,
* a column with a column of the **same** table — a *local column-equality
  (or column-comparison) predicate*, or
* a column with a constant — a *local constant predicate*.

The distinction matters because Algorithm ELS treats the three classes very
differently: join predicates contribute join selectivities grouped by
equivalence class, same-table column equalities trigger the Section 6
special case, and constant predicates are folded into effective table and
column cardinalities (Section 5).

All objects in this module are immutable value types with structural
equality, so they can be stored in sets and used as dictionary keys — the
transitive-closure machinery relies on this for duplicate elimination
(Algorithm ELS, step 1).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Op",
    "ColumnRef",
    "Literal",
    "PredicateKind",
    "ComparisonPredicate",
    "join_predicate",
    "local_predicate",
    "column_equality",
]

Scalar = Union[int, float, str]


class Op(enum.Enum):
    """Comparison operators supported in conjunctive queries."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def flipped(self) -> "Op":
        """The operator obtained by swapping the two operands.

        ``a < b`` is equivalent to ``b > a``; equality operators are their
        own flip.  Used when predicates are put into canonical form.
        """
        return _FLIP[self]

    @property
    def is_equality(self) -> bool:
        return self is Op.EQ

    @property
    def is_range(self) -> bool:
        """True for the four inequality-range operators (<, <=, >, >=)."""
        return self in (Op.LT, Op.LE, Op.GT, Op.GE)

    @property
    def is_lower_bound(self) -> bool:
        """True when ``col op c`` bounds the column from below (>, >=)."""
        return self in (Op.GT, Op.GE)

    @property
    def is_upper_bound(self) -> bool:
        """True when ``col op c`` bounds the column from above (<, <=)."""
        return self in (Op.LT, Op.LE)

    def evaluate(self, left: Scalar, right: Scalar) -> bool:
        """Apply the comparison to two concrete values."""
        if self is Op.EQ:
            return left == right
        if self is Op.NE:
            return left != right
        if self is Op.LT:
            return left < right
        if self is Op.LE:
            return left <= right
        if self is Op.GT:
            return left > right
        return left >= right


_FLIP = {
    Op.EQ: Op.EQ,
    Op.NE: Op.NE,
    Op.LT: Op.GT,
    Op.LE: Op.GE,
    Op.GT: Op.LT,
    Op.GE: Op.LE,
}


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A fully qualified reference to a column of a named table.

    The ``table`` component is the query-level relation name (the alias if
    the query introduced one), so two scans of the same base table under
    different aliases are distinct columns for estimation purposes.
    """

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Literal:
    """A constant appearing on one side of a comparison."""

    value: Scalar

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


class PredicateKind(enum.Enum):
    """Structural classification of a comparison predicate."""

    JOIN = "join"  # column of R compared with column of S, R != S
    COLUMN_LOCAL = "column-local"  # two columns of the same table
    CONSTANT_LOCAL = "constant-local"  # column compared with a literal


@dataclass(frozen=True)
class ComparisonPredicate:
    """A single comparison ``left op right`` in a conjunctive WHERE clause.

    ``left`` is always a :class:`ColumnRef`.  ``right`` is either another
    :class:`ColumnRef` (join or column-local predicate) or a
    :class:`Literal` (constant-local predicate).  Use :meth:`canonical` to
    obtain a normal form under which semantically identical predicates
    compare equal — e.g. ``R.x = S.y`` and ``S.y = R.x``.
    """

    left: ColumnRef
    op: Op
    right: Union[ColumnRef, Literal]

    @property
    def kind(self) -> PredicateKind:
        if isinstance(self.right, Literal):
            return PredicateKind.CONSTANT_LOCAL
        if self.left.table == self.right.table:
            return PredicateKind.COLUMN_LOCAL
        return PredicateKind.JOIN

    @property
    def is_join(self) -> bool:
        return self.kind is PredicateKind.JOIN

    @property
    def is_local(self) -> bool:
        return self.kind is not PredicateKind.JOIN

    @property
    def is_equijoin(self) -> bool:
        return self.is_join and self.op is Op.EQ

    @functools.cached_property
    def tables(self) -> frozenset:
        """The set of relation names this predicate touches (1 or 2).

        Computed on first access and kept in the instance ``__dict__``;
        equality and hashing still use the three fields only.
        """
        if isinstance(self.right, ColumnRef):
            return frozenset((self.left.table, self.right.table))
        return frozenset((self.left.table,))

    @property
    def columns(self) -> tuple:
        """All column references in the predicate (1 or 2 entries)."""
        if isinstance(self.right, ColumnRef):
            return (self.left, self.right)
        return (self.left,)

    @property
    def constant(self) -> Scalar:
        """The literal value of a constant-local predicate.

        Raises:
            ValueError: if the predicate compares two columns.
        """
        if not isinstance(self.right, Literal):
            raise ValueError(f"{self} has no constant operand")
        return self.right.value

    def canonical(self) -> "ComparisonPredicate":
        """Return an equivalent predicate in canonical operand order.

        Column-column predicates are ordered so the lexicographically
        smaller :class:`ColumnRef` is on the left (flipping the operator as
        needed); column-constant predicates always keep the column on the
        left.  Canonicalization makes structural equality coincide with
        semantic equality for simple comparisons, which is what step 1 of
        Algorithm ELS (duplicate-predicate removal) needs.
        """
        if isinstance(self.right, Literal):
            return self
        if self.right < self.left:
            return ComparisonPredicate(self.right, self.op.flipped, self.left)
        return self

    def references(self, table: str) -> bool:
        """True if the predicate mentions the given relation name."""
        return table in self.tables

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


def join_predicate(
    left_table: str, left_column: str, right_table: str, right_column: str, op: Op = Op.EQ
) -> ComparisonPredicate:
    """Convenience constructor for a join predicate between two tables."""
    if left_table == right_table:
        raise ValueError(
            "join_predicate requires two distinct tables; "
            f"got {left_table!r} on both sides (use column_equality instead)"
        )
    return ComparisonPredicate(
        ColumnRef(left_table, left_column), op, ColumnRef(right_table, right_column)
    ).canonical()


def local_predicate(table: str, column: str, op: Op, value: Scalar) -> ComparisonPredicate:
    """Convenience constructor for a constant-local predicate ``col op c``."""
    return ComparisonPredicate(ColumnRef(table, column), op, Literal(value))


def column_equality(table: str, left_column: str, right_column: str) -> ComparisonPredicate:
    """Convenience constructor for a same-table column equality predicate."""
    if left_column == right_column:
        raise ValueError("column_equality requires two distinct columns")
    return ComparisonPredicate(
        ColumnRef(table, left_column), Op.EQ, ColumnRef(table, right_column)
    ).canonical()
