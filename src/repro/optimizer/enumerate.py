"""Join-order enumeration: Selinger dynamic programming and a greedy fallback.

Both enumerators build **left-deep** plans and estimate cardinalities
*incrementally along the plan being built*, exactly the setting the paper
targets: "the query optimization algorithm often needs to estimate the join
result sizes incrementally ... in the dynamic programming algorithm [13],
the AB algorithm [15] and randomized algorithms [14, 5]".

The DP keeps one best (minimum-cost) candidate per table subset; each
candidate carries its own estimated cardinality, obtained by walking the
estimator one table at a time along the candidate's join order.  Cartesian
products are deferred: an expansion without any eligible join predicate is
considered only when a subset has no connected expansion at all (the paper:
"most query optimizers would avoid the join order beginning with
(R1 >< R3) since this would be evaluated as a cartesian product").

Hot-path layout, none of which changes the chosen plan:

* **Bitmask DP tables.**  Relation ``i`` in name order is bit ``1 << i``;
  both DP tables are keyed by int masks, so removing a relation or
  splitting a subset is an XOR, not a frozenset build.
* **One eligibility pass per expansion.**  An expansion asks the estimator
  for the joined state (``join`` / ``join_states``) and reads the eligible
  predicates off the returned :class:`~repro.core.estimator.StepEstimate`;
  the estimator answers eligibility from its per-table predicate index.
* **Tie-break.**  A subset keeps the candidate that is minimal under
  ``(cost, leaf_order(plan))``, the first one on a full tie.  Leaf orders
  are built only when two costs tie exactly (symmetric formulas such as
  sort-merge do tie between mirror-image orders).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.estimator import EstimateState, JoinSizeEstimator, PreparedJoinPredicate
from ..errors import OptimizationError
from ..sql.predicates import Op
from .cost import CostModel
from .plans import JoinMethod, JoinPlan, PlanNode, ScanPlan, leaf_order

__all__ = ["enumerate_dp", "enumerate_dp_bushy", "enumerate_greedy"]


@dataclass(frozen=True)
class _Candidate:
    plan: PlanNode
    cost: float
    state: EstimateState


def _cheapest(pool: Sequence[_Candidate]) -> _Candidate:
    """The pool's minimum under ``(cost, leaf_order(plan))``, first on ties.

    Symmetric cost formulas (e.g. sort-merge) can tie exactly between
    mirror-image orders; the lexicographic leaf-order tie-break keeps plan
    choice independent of hash-randomized set iteration.  Leaf orders are
    built only on an exact cost tie, and the winner is the one
    ``min(pool, key=lambda c: (c.cost, leaf_order(c.plan)))`` returns.
    """
    best = pool[0]
    for candidate in pool[1:]:
        if candidate.cost < best.cost or (
            candidate.cost == best.cost
            and leaf_order(candidate.plan) < leaf_order(best.plan)
        ):
            best = candidate
    return best


def _mask(members: Sequence[int]) -> int:
    """The bitmask of a set of relation indices."""
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _build_scans(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
) -> Dict[str, _Candidate]:
    """One scan candidate per relation, local predicates pushed down."""
    query = estimator.query
    scans: Dict[str, _Candidate] = {}
    for relation in query.tables:
        local = tuple(p for p in query.predicates if p.is_local and p.references(relation))
        rows = estimator.base_rows(relation)
        width = widths[relation]
        cost = cost_model.scan_cost(original_rows[relation], width, len(local))
        plan = ScanPlan(
            relation=relation,
            base_table=query.base_table(relation),
            local_predicates=local,
            estimated_rows=rows,
            estimated_cost=cost,
            row_width=width,
        )
        scans[relation] = _Candidate(plan, cost, estimator.start(relation))
    return scans


def _join_methods_for(
    eligible, methods: Sequence[JoinMethod]
) -> List[JoinMethod]:
    """Methods applicable to this expansion (SM/HJ need an equi-key)."""
    has_equi_key = any(p.predicate.op is Op.EQ for p in eligible)
    result = []
    for method in methods:
        if method is JoinMethod.NESTED_LOOPS or has_equi_key:
            result.append(method)
    return result


def _join_cost(
    cost_model: CostModel,
    method: JoinMethod,
    outer_rows: float,
    outer_width: int,
    inner_rows: float,
    inner_width: int,
) -> float:
    if method is JoinMethod.NESTED_LOOPS:
        return cost_model.nested_loops_cost(
            outer_rows, outer_width, inner_rows, inner_width
        )
    if method is JoinMethod.SORT_MERGE:
        return cost_model.sort_merge_cost(
            outer_rows, outer_width, inner_rows, inner_width
        )
    return cost_model.hash_cost(outer_rows, outer_width, inner_rows, inner_width)


def _cheapest_join(
    outer: _Candidate,
    inner: _Candidate,
    new_state: EstimateState,
    eligible: Sequence[PreparedJoinPredicate],
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """``outer`` joined with ``inner`` by the cheapest applicable method.

    ``new_state`` and ``eligible`` come from the estimator step that joined
    the two; ``None`` when no method applies.  The first method wins a tie.
    """
    applicable = _join_methods_for(eligible, methods)
    if not applicable:
        return None
    outer_width = outer.plan.row_width
    inner_width = inner.plan.row_width
    result_width = outer_width + inner_width
    inputs = outer.cost + inner.cost
    output = cost_model.output_cost(new_state.rows, result_width)
    best_method: Optional[JoinMethod] = None
    best_total = 0.0
    for method in applicable:
        join_cost = _join_cost(
            cost_model,
            method,
            outer.state.rows,
            outer_width,
            inner.state.rows,
            inner_width,
        )
        total = inputs + join_cost + output
        if best_method is None or total < best_total:
            best_method, best_total = method, total
    assert best_method is not None
    plan = JoinPlan(
        left=outer.plan,
        right=inner.plan,
        method=best_method,
        predicates=tuple(p.predicate for p in eligible),
        estimated_rows=new_state.rows,
        estimated_cost=best_total,
        row_width=result_width,
    )
    return _Candidate(plan, best_total, new_state)


def _expand(
    candidate: _Candidate,
    relation: str,
    scans: Mapping[str, _Candidate],
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """The cheapest way to join ``relation`` into ``candidate``, if any."""
    new_state, step = estimator.join(candidate.state, relation)
    return _cheapest_join(
        candidate, scans[relation], new_state, step.eligible, cost_model, methods
    )


def enumerate_dp(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Selinger-style dynamic programming over left-deep join orders.

    Args:
        estimator: The (already prepared) join-size estimator — this is the
            pluggable component the experiments swap between SM, SSS, and
            ELS configurations.
        cost_model: Page-based cost model.
        widths: Row width in bytes per relation.
        original_rows: Unfiltered table cardinality per relation (scans
            read whole tables; the paper keeps "the original, unreduced
            table and column cardinalities ... for use in cost calculations
            before the local predicates have been applied").
        methods: Join methods the optimizer may choose from.

    Raises:
        OptimizationError: if the query has no tables.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    # Relation i (in name order) is bit ``1 << i`` of a subset's mask.
    names = sorted(relations)
    best: Dict[int, _Candidate] = {1 << i: scans[r] for i, r in enumerate(names)}
    for size in range(2, len(names) + 1):
        for members in itertools.combinations(range(len(names)), size):
            subset = _mask(members)
            connected: List[_Candidate] = []
            cartesian: List[_Candidate] = []
            for i in members:
                source = best.get(subset ^ (1 << i))
                if source is None:
                    continue
                candidate = _expand(
                    source, names[i], scans, estimator, cost_model, methods
                )
                if candidate is None:
                    continue
                assert isinstance(candidate.plan, JoinPlan)
                bucket = cartesian if candidate.plan.is_cartesian else connected
                bucket.append(candidate)
            # Defer cartesian products: only fall back to them when the
            # subset cannot be formed through join predicates.
            pool = connected or cartesian
            if pool:
                best[subset] = _cheapest(pool)

    full = best.get((1 << len(names)) - 1)
    if full is None:
        raise OptimizationError(
            "dynamic programming found no plan covering all relations"
        )
    return full.plan


def enumerate_greedy(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Greedy left-deep enumeration for large queries.

    Tries every relation as the starting table; from each start, repeatedly
    adds the relation whose cheapest join extension has the lowest cost
    (preferring connected extensions).  Returns the best complete plan over
    all starts.  O(n^3) expansions versus DP's exponential subsets.

    Raises:
        OptimizationError: on a query with no tables, or when no start
            yields a complete plan.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    best_overall: Optional[_Candidate] = None
    for start in relations:
        candidate = scans[start]
        remaining = [r for r in relations if r != start]
        failed = False
        while remaining:
            connected: List[_Candidate] = []
            cartesian: List[_Candidate] = []
            for relation in remaining:
                expanded = _expand(
                    candidate, relation, scans, estimator, cost_model, methods
                )
                if expanded is None:
                    continue
                assert isinstance(expanded.plan, JoinPlan)
                bucket = cartesian if expanded.plan.is_cartesian else connected
                bucket.append(expanded)
            pool = connected or cartesian
            if not pool:
                failed = True
                break
            candidate = _cheapest(pool)
            assert isinstance(candidate.plan, JoinPlan)
            assert isinstance(candidate.plan.right, ScanPlan)
            remaining.remove(candidate.plan.right.relation)
        if failed:
            continue
        if best_overall is None or candidate.cost < best_overall.cost:
            best_overall = candidate
    if best_overall is None:
        raise OptimizationError("greedy enumeration found no complete plan")
    return best_overall.plan


def _expand_pair(
    left: _Candidate,
    right: _Candidate,
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """The cheapest join of two disjoint sub-candidates (bushy step)."""
    new_state, step = estimator.join_states(left.state, right.state)
    return _cheapest_join(left, right, new_state, step.eligible, cost_model, methods)


def enumerate_dp_bushy(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Dynamic programming over *bushy* join trees.

    Like :func:`enumerate_dp` but each subset may be formed by joining any
    two disjoint sub-candidates, not only sub-candidate + single relation.
    Estimation uses :meth:`JoinSizeEstimator.join_states` — under full
    transitive closure Rule LS stays exact for set-to-set joins, so bushy
    plans get the same correct cardinalities as left-deep ones.  Cartesian
    splits are deferred exactly as in the left-deep DP.

    Exponentially more expensive than left-deep DP (O(3^n) splits); meant
    for queries of up to ~10 relations.

    Raises:
        OptimizationError: on a query with no tables, or when the DP
            table never completes a full plan.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    # Relation i (in name order) is bit ``1 << i`` of a subset's mask.
    names = sorted(relations)
    best: Dict[int, _Candidate] = {1 << i: scans[r] for i, r in enumerate(names)}
    for size in range(2, len(names) + 1):
        for members in itertools.combinations(range(len(names)), size):
            subset = _mask(members)
            connected: List[_Candidate] = []
            cartesian: List[_Candidate] = []
            # Every ordered split into two non-empty disjoint halves; the
            # ordering doubles as the outer/inner orientation choice.
            for left_size in range(1, size):
                for left_members in itertools.combinations(members, left_size):
                    left_set = _mask(left_members)
                    left_candidate = best.get(left_set)
                    right_candidate = best.get(subset ^ left_set)
                    if left_candidate is None or right_candidate is None:
                        continue
                    candidate = _expand_pair(
                        left_candidate, right_candidate, estimator, cost_model, methods
                    )
                    if candidate is None:
                        continue
                    assert isinstance(candidate.plan, JoinPlan)
                    bucket = cartesian if candidate.plan.is_cartesian else connected
                    bucket.append(candidate)
            pool = connected or cartesian
            if pool:
                best[subset] = _cheapest(pool)

    full = best.get((1 << len(names)) - 1)
    if full is None:
        raise OptimizationError("bushy enumeration found no complete plan")
    return full.plan
