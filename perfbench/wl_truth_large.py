"""``truth_large``: exact join sizes with large outputs, no optimizer at all.

Why this workload: materializing the join dominates, so exact-COUNT and
engine changes show here.  One op is ``true_join_size(query, db,
cache=None)`` on the default columnar engine.  The mix has five
single-class chains whose outputs span 8·10^4 to 3·10^6 rows
(output-heavy: small inputs, multiplying joins) and TPC-H-lite ``q3``,
``q5``, ``q9`` and ``q_full_join`` at scale 0.5 (input-heavy: 3·10^5
lineitem rows, outputs of 1.5-5.4·10^4).  Nine items, an odd number, put the
median op inside one item's cluster of durations.

Uniform columns hold every value exactly ``rows / distinct`` times, so a
chain's output size is ``distinct * (rows / distinct) ** tables``
whatever the seed; the seed only shuffles the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.truth import build_reference_plan, true_join_size
from repro.sql.predicates import join_predicate
from repro.sql.query import Projection, Query
from repro.storage.database import Database
from repro.workloads import (
    TableSpec,
    build_database,
    load_tpch_lite,
    q3_customer_orders,
    q5_regional,
    q9_parts_suppliers,
    q_full_join,
)
from repro.workloads.generator import ColumnSpec

from loop import Item, OpResult, Workload
from probes import traced_executor_class
from spans import Tracer

__all__ = ["CHAINS", "ROW_ENGINE_MAX_ROWS", "TruthLarge", "count_failures"]

#: ``(name, tables, rows per table, distinct join values per table)``.
CHAINS = (
    ("chain5x5k", 5, 5000, 2500),  # 2500 * 2**5 = 80,000 rows
    ("chain6x6k", 6, 6000, 3000),  # 3000 * 2**6 = 192,000
    ("chain8x4k", 8, 4000, 2000),  # 2000 * 2**8 = 512,000
    ("chain4x20k", 4, 20000, 5000),  # 5000 * 4**4 = 1,280,000
    ("chain3x30k", 3, 30000, 3000),  # 3000 * 10**3 = 3,000,000
)

TPCH_SCALE = 0.5

#: The row engine cross-checks only outputs up to this size; beyond it a
#: row-at-a-time run would dominate the benchmark's wall time.
ROW_ENGINE_MAX_ROWS = 100_000


@dataclass
class _State:
    items: List[Item]
    morsel_workers: int


def _chain_query(prefix: str, tables: int) -> Query:
    names = [f"{prefix}_{i}" for i in range(1, tables + 1)]
    predicates = [join_predicate(a, "c", b, "c") for a, b in zip(names, names[1:])]
    return Query.build(names, predicates, Projection(count_star=True))


def _chain_specs(prefix: str, tables: int, rows: int, distinct: int) -> List[TableSpec]:
    return [
        TableSpec(f"{prefix}_{i}", rows, {"c": ColumnSpec(distinct=distinct)})
        for i in range(1, tables + 1)
    ]


def count_failures(
    results: Sequence[OpResult], expected: Dict[str, Dict[str, int]]
) -> List[Tuple[str, str]]:
    """Ops whose count disagrees with any independent engine's count.

    ``expected`` maps an item key to ``{engine label: count}``.  A
    mismatch is reported, never raised, so it counts as a failed op.
    """
    failures = []
    for result in results:
        if result.error is not None:
            continue
        wrong = {
            engine: count
            for engine, count in expected.get(result.key, {}).items()
            if count != result.value
        }
        if wrong:
            failures.append((result.op_id, f"columnar count {result.value} != {wrong}"))
    return failures


class TruthLarge(Workload):
    name = "truth_large"

    def setup(self, seed: int, morsel_workers: int) -> _State:
        specs: List[TableSpec] = []
        items: List[Tuple[str, Query]] = []
        for name, tables, rows, distinct in CHAINS:
            specs.extend(_chain_specs(name, tables, rows, distinct))
            items.append((name, _chain_query(name, tables)))
        chains = build_database(specs, seed=seed)
        tpch = load_tpch_lite(TPCH_SCALE, seed=seed)
        state = _State([], morsel_workers)
        for name, query in items:
            state.items.append(Item(name, (query, chains)))
        for name, query in (
            ("tpch_q3", q3_customer_orders()),
            ("tpch_q5", q5_regional()),
            ("tpch_q9", q9_parts_suppliers()),
            ("tpch_q_full_join", q_full_join()),
        ):
            state.items.append(Item(name, (query, tpch)))
        # Warm-up: the first COUNT of a table builds its columnar transpose.
        for item in state.items:
            self.run(state, item)
        return state

    def pass_items(self, state: _State, pass_index: int) -> Sequence[Item]:
        return state.items

    def run(self, state: _State, item: Item) -> int:
        query, database = item.data
        return true_join_size(query, database, cache=None)

    def run_traced(self, state: _State, item: Item, tracer: Tracer) -> int:
        """``true_join_size(cache=None)`` taken apart: plan, then COUNT."""
        query, database = item.data
        with tracer.span("analysis.truth"):
            with tracer.span("analysis.reference_plan"):
                plan = build_reference_plan(query, database)
            executor = traced_executor_class(tracer)(database, engine="columnar")
            return int(executor.count(plan).count)

    def verify(self, state: _State, results: Sequence[OpResult], tracer: Optional[Tracer]):
        seen: Dict[str, Set[int]] = {}
        for result in results:
            if result.error is None:
                seen.setdefault(result.key, set()).add(result.value)
        # N = --morsel-workers, min(2, CPUs) by default; the one-worker
        # column isolates probe strategy from fan-out (traced runs only).
        engines = [("parallel_wN", "parallel", state.morsel_workers)]
        if tracer is not None and state.morsel_workers != 1:
            engines.append(("parallel_w1", "parallel", 1))
        expected: Dict[str, Dict[str, int]] = {}
        for item in state.items:
            if item.key not in seen:
                continue
            query, database = item.data
            runs = list(engines)
            if max(seen[item.key]) <= ROW_ENGINE_MAX_ROWS:
                runs.append(("row", "row", None))
            expected[item.key] = {}
            for label, engine, workers in runs:
                expected[item.key][label] = _timed_count(
                    tracer, label, query, database, engine, workers
                )
        return count_failures(results, expected), {}


def _timed_count(
    tracer: Optional[Tracer],
    label: str,
    query: Query,
    database: Database,
    engine: str,
    workers: Optional[int],
) -> int:
    def count() -> int:
        return true_join_size(
            query, database, engine=engine, cache=None, morsel_workers=workers
        )

    if tracer is None:
        return count()
    with tracer.root(f"check/{label}", kind="check"):
        with tracer.span(f"execution.{label}"):
            return count()
