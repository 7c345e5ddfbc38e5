"""``optimize_dp``: parse a query's SQL and pick its join order under ELS.

Why this workload: enumeration and ``JoinSizeEstimator.eligible`` dominate
and nothing executes, so optimizer hot-path work shows here and execution
work must not move it.  The mix covers 6-10-table chains with local
predicates, 5-8-dimension stars, 2x2 and 3x2 snowflakes, 5-7-table
cliques and 5-8-table cycles, every size in each range; ``dp`` runs on all
of them and ``dp-bushy`` on those with at most 8 tables.  The paper's four
Section 8 setups on S⋈M⋈B⋈G ride along with ``dp``.  The shapes and every
table's row count are fixed; the seed draws the column cardinalities, the local
predicates' constants and the data behind each catalog.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import ELS, Optimizer, parse_query
from repro.analysis.harness import PAPER_ALGORITHMS
from repro.catalog.statistics import Catalog
from repro.core.config import EstimatorConfig
from repro.optimizer.enumerate import enumerate_dp, enumerate_dp_bushy
from repro.optimizer.optimizer import DEFAULT_METHODS
from repro.optimizer.plans import leaf_order
from repro.workloads import (
    build_database,
    chain_workload,
    clique_workload,
    cycle_workload,
    smbg_catalog,
    smbg_query,
    snowflake_workload,
    star_workload,
)

from loop import Item, OpResult, Workload
from probes import TracedCostModel, traced_estimator_class
from spans import Tracer

__all__ = ["OptimizeDP"]

#: ``dp-bushy`` runs only on queries with at most this many tables.
BUSHY_MAX_TABLES = 8

#: Relative tolerance for float comparisons between two computations of
#: one quantity along different arithmetic orders.
REL_TOL = 1e-9

_ENUMERATORS = {"dp": enumerate_dp, "dp-bushy": enumerate_dp_bushy}


@dataclass(frozen=True)
class _Request:
    """One op's input: SQL text plus everything ``optimize`` is given."""

    sql: str
    catalog: Catalog
    enumerator: str
    config: EstimatorConfig
    apply_closure: bool
    single_class: bool
    topology: str


#: One plan as compared between ops and reported in the digest:
#: ``(join order, estimated cost, estimated rows)``.
Outcome = Tuple[Tuple[str, ...], float, float]


#: Row counts of every generated table, pinned so that set-up work and the
#: catalogs' sizes are the same for every seed.
CHAIN_ROWS = 1000
CYCLE_ROWS = 500
STAR_ROWS = {"fact_rows_range": (6000, 6000), "dim_rows_range": (500, 500)}
SNOWFLAKE_ROWS = {
    "fact_rows_range": (5000, 5000),
    "dim_rows_range": (400, 400),
    "subdim_rows_range": (100, 100),
}


def _topologies(rng: random.Random):
    """``(name, workload, single equivalence class?)`` for every shape.

    Every size in each range is present, so op times spread densely from
    one shape to the next and the median op does not jump between two far
    apart shapes when the host's speed drifts within a run.
    """
    shapes = []
    for tables in range(6, 11):
        chain = chain_workload(
            tables, rng, CHAIN_ROWS, CHAIN_ROWS, local_predicate_probability=1.0
        )
        shapes.append((f"chain{tables}", chain, True))
    for dimensions in range(5, 9):
        shapes.append((f"star{dimensions}", star_workload(dimensions, rng, **STAR_ROWS), False))
    for dimensions, subdimensions in ((2, 2), (3, 2)):
        snowflake = snowflake_workload(dimensions, subdimensions, rng, **SNOWFLAKE_ROWS)
        shapes.append((f"snowflake{dimensions}x{subdimensions}", snowflake, False))
    for tables in range(5, 8):
        clique = clique_workload(tables, rng, CYCLE_ROWS, CYCLE_ROWS)
        shapes.append((f"clique{tables}", clique, True))
    for tables in range(5, 9):
        cycle = cycle_workload(tables, rng, CYCLE_ROWS, CYCLE_ROWS)
        shapes.append((f"cycle{tables}", cycle, True))
    return shapes


class OptimizeDP(Workload):
    name = "optimize_dp"
    setups = 7  # a set-up takes a fraction of a second; more make its median steady

    def setup(self, seed: int, morsel_workers: int) -> List[Item]:
        rng = random.Random(seed)
        items: List[Item] = []
        for name, workload, single_class in _topologies(rng):
            catalog = build_database(workload.specs, seed=seed).catalog
            sql = str(workload.query)
            for enumerator in ("dp", "dp-bushy"):
                if enumerator == "dp-bushy" and len(workload.specs) > BUSHY_MAX_TABLES:
                    continue
                items.append(
                    Item(
                        f"{name}/{enumerator}",
                        _Request(sql, catalog, enumerator, ELS, True, single_class, name),
                    )
                )
        catalog = smbg_catalog()
        sql = str(smbg_query())
        for spec in PAPER_ALGORITHMS:
            items.append(
                Item(
                    f"smbg/{spec.name}",
                    _Request(sql, catalog, "dp", spec.config, spec.apply_closure, False, "smbg"),
                )
            )
        return items

    def pass_items(self, state: List[Item], pass_index: int) -> Sequence[Item]:
        return state

    def run(self, state, item: Item) -> Outcome:
        query: _Request = item.data
        result = Optimizer(query.catalog, enumerator=query.enumerator).optimize(
            parse_query(query.sql), query.config, query.apply_closure
        )
        return (result.join_order, result.estimated_cost, result.estimate.rows)

    def run_traced(self, state, item: Item, tracer: Tracer) -> Outcome:
        """``Optimizer.optimize`` taken apart so each layer gets its span."""
        query: _Request = item.data
        with tracer.span("sql.parse"):
            parsed = parse_query(query.sql)
        estimator_class = traced_estimator_class(tracer)
        estimator = estimator_class(
            parsed, query.catalog, query.config, query.apply_closure
        )
        widths: Dict[str, int] = {}
        original_rows: Dict[str, int] = {}
        for relation in estimator.query.tables:
            base = estimator.query.base_table(relation)
            widths[relation] = query.catalog.schema(base).row_width_bytes
            original_rows[relation] = query.catalog.stats(base).row_count
        with tracer.span("optimizer.enumerate"):
            plan = _ENUMERATORS[query.enumerator](
                estimator, TracedCostModel(tracer), widths, original_rows, DEFAULT_METHODS
            )
        estimate = estimator.estimate_order(leaf_order(plan))
        return (leaf_order(plan), plan.estimated_cost, estimate.rows)

    def verify(self, state: List[Item], results: Sequence[OpResult], tracer: Optional[Tracer]):
        references = {item.key: _reference_outcome(item.data) for item in state}
        problems = _invariant_problems(state, references)
        failures = []
        for result in results:
            if result.error is not None:
                continue
            reasons = list(problems.get(result.key, ()))
            if result.value != references[result.key][0]:
                reasons.append(
                    f"plan {result.value} differs from Optimizer.optimize's "
                    f"{references[result.key][0]}"
                )
            if reasons:
                failures.append((result.op_id, "; ".join(reasons)))
        return failures, {"plan_digest": _plan_digest(
            {key: outcome for key, (outcome, _) in references.items()}
        )}


def _reference_outcome(query: _Request):
    """What ``Optimizer.optimize`` itself picks, and its full result."""
    parsed = parse_query(query.sql)
    result = Optimizer(query.catalog, enumerator=query.enumerator).optimize(
        parsed, query.config, query.apply_closure
    )
    outcome: Outcome = (result.join_order, result.estimated_cost, result.estimate.rows)
    return outcome, result


def _invariant_problems(items: Sequence[Item], references) -> Dict[str, List[str]]:
    """The paper's invariants and the enumerators' ordering, per item.

    Checked only for ELS under full closure: there an intermediate's
    estimate does not depend on the order that built it, which is what
    makes Equation 3 exact and DP's optimal-substructure argument sound.
    The Section 8 baselines (SM, SSS) break that on purpose.
    """
    problems: Dict[str, List[str]] = {}
    dp_cost: Dict[str, float] = {}
    for item in items:
        query: _Request = item.data
        if query.enumerator == "dp":
            dp_cost[query.topology] = references[item.key][0][1]
    for item in items:
        query: _Request = item.data
        if query.config is not ELS or not query.apply_closure:
            continue
        (order, cost, rows), result = references[item.key]
        found: List[str] = []
        if query.single_class:
            closed = result.estimator.closed_form()
            if not math.isclose(rows, closed, rel_tol=REL_TOL):
                found.append(f"ELS estimate {rows!r} != closed form {closed!r}")
            from_order = result.estimator.estimate_order(result.estimator.query.tables).rows
            if not math.isclose(rows, from_order, rel_tol=REL_TOL):
                found.append(f"chosen-order estimate {rows!r} != FROM-order {from_order!r}")
        if query.enumerator == "dp":
            greedy = Optimizer(query.catalog, enumerator="greedy").optimize(
                parse_query(query.sql), query.config, query.apply_closure
            )
            if cost > greedy.estimated_cost * (1 + REL_TOL):
                found.append(f"dp cost {cost!r} > greedy cost {greedy.estimated_cost!r}")
        elif cost > dp_cost[query.topology] * (1 + REL_TOL):
            found.append(f"dp-bushy cost {cost!r} > dp cost {dp_cost[query.topology]!r}")
        if found:
            problems[item.key] = found
    return problems


def _plan_digest(outcomes: Dict[str, Outcome]) -> str:
    """A short digest of every chosen plan (order, cost, estimate)."""
    digest = hashlib.sha256()
    for key in sorted(outcomes):
        order, cost, rows = outcomes[key]
        digest.update(f"{key}|{','.join(order)}|{cost!r}|{rows!r}\n".encode())
    return digest.hexdigest()[:16]
