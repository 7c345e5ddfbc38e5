"""``eval_sweep``: the paper-reproduction loop, one item per op.

Why this workload: it is what the repository runs most.  Each op sends one
item through the serial ``evaluate_workloads`` path, which generates,
loads and ANALYZEs the item's own database (a fresh catalog every op,
where the other workloads only read prebuilt ones), estimates with all
four ``PAPER_ALGORITHMS`` and takes ground truth through the default
``TruthCache``.  Outputs are small (at most a few 10^4 rows), so per-query
overhead and the cache decide its speed; it bypasses both DP and
large-output execution.

A pass has nine fresh items -- 3-, 4- and 6-table chains, a 5-table clique
and cycle, a 4-dimension star, a 2x1 snowflake (all with local predicates
or Zipf-skewed join columns where the shape allows) and the 3- and 4-table
S⋈M⋈B⋈G prefixes -- and then two repeats of earlier (workload, seed)
pairs, so a fixed 2 of 11 truth lookups hit the cache.  An odd pass length
puts the median op inside one item's cluster of durations rather than on
the gap between two.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.harness import evaluate_workloads, prefix_query
from repro.analysis.metrics import q_error
from repro.analysis.truth import true_join_size
from repro.analysis.truthcache import DEFAULT_TRUTH_CACHE
from repro.sql.predicates import Op, join_predicate, local_predicate
from repro.sql.query import Projection, Query
from repro.workloads import (
    GeneratedWorkload,
    TableSpec,
    build_database,
    smbg_query,
    smbg_specs,
    snowflake_workload,
    star_workload,
)
from repro.workloads.generator import ColumnSpec, Distribution

from loop import Item, OpResult, Workload
from spans import Tracer

__all__ = ["EvalSweep", "REPEATED"]

SMBG_SCALE = 0.1
ZIPF_SKEW = 0.6

#: Positions in the pass whose (workload, seed) pair is evaluated again at
#: the end of the pass.
REPEATED = (0, 5)


def _single_class(
    prefix: str,
    rows: Sequence[int],
    distincts: Sequence[int],
    skewed: Sequence[int],
    local: Tuple[int, int],
    shape: str,
) -> GeneratedWorkload:
    """Tables joined on one column ``c``, phrased as a chain, clique or cycle."""
    specs = []
    for i, (n, d) in enumerate(zip(rows, distincts)):
        column = (
            ColumnSpec(distinct=d, distribution=Distribution.ZIPF, skew=ZIPF_SKEW)
            if i in skewed
            else ColumnSpec(distinct=d)
        )
        specs.append(TableSpec(f"{prefix}{i + 1}", n, {"c": column}))
    names = [spec.name for spec in specs]
    if shape == "clique":
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    else:
        pairs = list(zip(names, names[1:]))
        if shape == "cycle":
            pairs.append((names[-1], names[0]))
    predicates = [join_predicate(a, "c", b, "c") for a, b in pairs]
    table, threshold = local
    predicates.append(local_predicate(names[table], "c", Op.LT, threshold))
    query = Query.build(names, predicates, Projection(count_star=True))
    return GeneratedWorkload(tuple(specs), query)


def _smbg_prefix(tables: int) -> GeneratedWorkload:
    query = smbg_query()
    names = list(query.tables[:tables])
    specs = tuple(s for s in smbg_specs(SMBG_SCALE) if s.name in names)
    return GeneratedWorkload(specs, prefix_query(query, names))


def _topologies(seed: int) -> List[Tuple[str, GeneratedWorkload]]:
    rng = random.Random(seed)
    clique_rows, clique_distincts = (400, 300, 300, 200, 200), (100, 75, 100, 50, 100)
    return [
        ("chain3", _single_class("A", (800, 600, 400), (200, 150, 100), (0,), (0, 80), "chain")),
        ("chain4", _single_class("B", (500, 400, 300, 300), (100, 100, 60, 75), (1,), (2, 40), "chain")),
        ("chain6", _single_class("C", (180,) * 6, (80, 60, 80, 40, 60, 80), (0, 3), (1, 30), "chain")),
        ("clique5", _single_class("D", clique_rows, clique_distincts, (0,), (0, 40), "clique")),
        ("cycle5", _single_class("E", clique_rows, clique_distincts, (0,), (0, 40), "cycle")),
        ("star4", star_workload(4, rng, fact_rows_range=(3000, 3000), dim_rows_range=(100, 300))),
        (
            "snowflake2x1",
            snowflake_workload(
                2,
                1,
                rng,
                fact_rows_range=(2000, 2000),
                dim_rows_range=(100, 300),
                subdim_rows_range=(20, 100),
            ),
        ),
        ("smbg3", _smbg_prefix(3)),
        ("smbg4", _smbg_prefix(4)),
    ]


_SEED_STRIDE = 97


def _data_seed(seed: int, pass_index: int, position: int) -> int:
    """Distinct per (run seed, pass, position) for any run shorter than 10^4 passes."""
    return seed * 1_000_003 + pass_index * _SEED_STRIDE + position


@dataclass
class _State:
    seed: int
    topologies: List[Tuple[str, GeneratedWorkload]]


#: One op's records: ``(algorithm, estimate, actual, degraded)`` each.
Records = Tuple[Tuple[str, float, Optional[int], bool], ...]


class EvalSweep(Workload):
    name = "eval_sweep"

    def setup(self, seed: int, morsel_workers: int) -> _State:
        state = _State(seed, _topologies(seed))
        # Warm-up: one item per topology on data seeds no pass reaches;
        # start_phase forgets their ground truths.
        for position, (name, workload) in enumerate(state.topologies):
            warm_up_seed = _data_seed(seed, 1_000_000 // _SEED_STRIDE, position)
            self.run(state, Item(f"warm-up/{name}", (workload, warm_up_seed)))
        return state

    def start_phase(self, state: _State) -> None:
        DEFAULT_TRUTH_CACHE.clear()
        DEFAULT_TRUTH_CACHE.stats.reset()

    def pass_items(self, state: _State, pass_index: int) -> Sequence[Item]:
        items = []
        for position, (name, workload) in enumerate(state.topologies):
            data_seed = _data_seed(state.seed, pass_index, position)
            items.append(Item(f"{name}@{data_seed}", (workload, data_seed)))
        return items + [items[position] for position in REPEATED]

    def run(self, state: _State, item: Item) -> Records:
        workload, data_seed = item.data
        records = evaluate_workloads([workload], seed=data_seed)[0]
        return tuple((r.algorithm, r.estimate, r.actual, r.degraded) for r in records)

    def run_traced(self, state: _State, item: Item, tracer: Tracer) -> Records:
        with tracer.span("analysis.evaluate_workloads"):
            return self.run(state, item)

    def verify(self, state: _State, results: Sequence[OpResult], tracer: Optional[Tracer]):
        lookups = DEFAULT_TRUTH_CACHE.stats.lookups
        report = {
            "truth_cache_hits": DEFAULT_TRUTH_CACHE.stats.hits,
            "truth_cache_lookups": lookups,
            "degraded_records": sum(
                1 for r in results if r.value for record in r.value if record[3]
            ),
        }
        truth: Dict[str, int] = {}
        failures = []
        els_errors = []
        for result in results:
            if result.error is not None:
                continue
            if result.key not in truth:
                workload, data_seed = _item_data(state, result.key)
                database = build_database(workload.specs, seed=data_seed)
                truth[result.key] = true_join_size(workload.query, database, cache=None)
            reasons = []
            for algorithm, estimate, actual, degraded in result.value:
                if degraded:
                    reasons.append(f"{algorithm} record degraded")
                elif actual != truth[result.key]:
                    reasons.append(f"{algorithm} truth {actual} != uncached {truth[result.key]}")
                elif algorithm == "ELS":
                    els_errors.append(q_error(estimate, actual))
            if reasons:
                failures.append((result.op_id, "; ".join(reasons)))
        if els_errors:
            report["els_q_error_p50"] = statistics.median(els_errors)
        return failures, report


def _item_data(state: _State, key: str) -> Tuple[GeneratedWorkload, int]:
    name, data_seed = key.split("@")
    return dict(state.topologies)[name], int(data_seed)
