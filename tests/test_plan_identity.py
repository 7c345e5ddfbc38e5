"""Golden plan identity: every enumerator's chosen plan, pinned exactly.

The optimizer's hot path is tuned for speed (indexed eligibility, bitmask
DP tables, a lazy leaf-order tie-break); none of that may change which
plan is chosen, what it costs, or what it is estimated to produce.  The
fixture ``golden/plan_identity.json`` records, for each case, the leaf
order, each join's method, predicates, ``repr(rows)`` and ``repr(cost)``,
and the root's ``repr(cost)`` and ``repr(rows)``; the test asserts exact
equality, so even a changed float multiplication order fails it.

Regenerate the fixture only for a deliberate change of plan choice::

    PYTHONPATH=src python tests/test_plan_identity.py
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.harness import PAPER_ALGORITHMS
from repro.catalog import Catalog
from repro.core import ELS
from repro.errors import ReproError
from repro.optimizer import JoinMethod, Optimizer
from repro.optimizer.plans import joins_of
from repro.sql import Op, Projection, Query, join_predicate
from repro.workloads import (
    chain_workload,
    clique_workload,
    cycle_workload,
    smbg_catalog,
    smbg_query,
    snowflake_workload,
    star_workload,
)

FIXTURE = Path(__file__).parent / "golden" / "plan_identity.json"

RANDOMIZED = ("random", "annealing")

#: Method repertoires: the paper's default; sort-merge alone, which has no
#: nested-loops fallback for cartesian steps; the default with hash join
#: added; and hash join alone.
METHOD_SETS: Dict[str, Tuple[JoinMethod, ...]] = {
    "NL+SM": (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
    "SM": (JoinMethod.SORT_MERGE,),
    "NL+SM+HJ": (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE, JoinMethod.HASH),
    "HJ": (JoinMethod.HASH,),
}


def _catalog(workload) -> Catalog:
    """Statistics straight from the specs: no generated data involved."""
    return Catalog.from_stats(
        {
            spec.name: (spec.rows, {name: column.distinct for name, column in spec.columns.items()})
            for spec in workload.specs
        }
    )


def _with_range_join(workload) -> Query:
    """The chain plus a non-equi join predicate, which multiplies in."""
    query = workload.query
    extra = join_predicate("T1", "c", "T4", "c", Op.LT)
    return Query.build(
        list(query.tables), list(query.predicates) + [extra], Projection(count_star=True)
    )


@functools.lru_cache(maxsize=None)
def _cases() -> List[Tuple[str, Query, Catalog, object, bool]]:
    """``(name, query, catalog, config, apply_closure)`` for every shape."""
    rng = random.Random(20240613)
    cases = []
    chain = chain_workload(6, rng, 100, 3000, local_predicate_probability=0.5)
    cases.append(("chain6", chain.query, _catalog(chain), ELS, True))
    ranged = chain_workload(5, rng, 100, 3000)
    cases.append(("chain5-range", _with_range_join(ranged), _catalog(ranged), ELS, True))
    star = star_workload(5, rng, (3000, 6000), (50, 800))
    cases.append(("star5", star.query, _catalog(star), ELS, True))
    snowflake = snowflake_workload(2, 2, rng, (2000, 5000), (100, 600), (20, 150))
    cases.append(("snowflake2x2", snowflake.query, _catalog(snowflake), ELS, True))
    clique = clique_workload(5, rng, 100, 2000)
    cases.append(("clique5", clique.query, _catalog(clique), ELS, True))
    cycle = cycle_workload(6, rng, 100, 2000)
    cases.append(("cycle6", cycle.query, _catalog(cycle), ELS, True))
    for spec in PAPER_ALGORITHMS:
        cases.append(
            (f"smbg[{spec.name}]", smbg_query(), smbg_catalog(), spec.config, spec.apply_closure)
        )
    # Without closure the clique keeps its redundant predicates, so Rule M
    # sees several eligible predicates per class in one step.
    cases.append(("clique5-noptc", clique.query, _catalog(clique), ELS, False))
    return cases


def _describe(result) -> dict:
    """Everything about a chosen plan that must not drift."""
    return {
        "order": list(result.join_order),
        "joins": [
            [
                join.method.value,
                [str(p) for p in join.predicates],
                repr(join.estimated_rows),
                repr(join.estimated_cost),
            ]
            for join in joins_of(result.plan)
        ],
        "cost": repr(result.estimated_cost),
        "rows": repr(result.estimated_rows),
        "estimate_rows": repr(result.estimate.rows),
    }


def _keys() -> List[str]:
    """Deterministic enumerators on every repertoire; the randomized ones,
    which cost hundreds of orders per run, on the default repertoire plus
    two cases under the other repertoires."""
    keys = []
    for name, *_ in _cases():
        for methods in METHOD_SETS:
            for enumerator in ("dp", "dp-bushy", "greedy"):
                keys.append(f"{name}|{methods}|{enumerator}")
        for enumerator in RANDOMIZED:
            keys.append(f"{name}|NL+SM|{enumerator}")
    for name in ("chain6", "smbg[ELS]"):
        for methods in ("SM", "NL+SM+HJ"):
            for enumerator in RANDOMIZED:
                keys.append(f"{name}|{methods}|{enumerator}")
    return keys


def compute(key: str) -> dict:
    """The current code's plan for one fixture key."""
    name, methods, enumerator = key.split("|")
    for case_name, query, catalog, config, apply_closure in _cases():
        if case_name == name:
            break
    else:
        raise KeyError(name)
    optimizer = Optimizer(catalog, methods=METHOD_SETS[methods], enumerator=enumerator)
    try:
        result = optimizer.optimize(query, config, apply_closure)
    except ReproError as error:
        return {"error": f"{type(error).__name__}: {error}"}
    return _describe(result)


@functools.lru_cache(maxsize=None)
def _load_fixture() -> Dict[str, dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_load_fixture()) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_plan_identical_to_fixture(key):
    assert compute(key) == _load_fixture()[key]


if __name__ == "__main__":
    plans = {key: compute(key) for key in _keys()}
    FIXTURE.write_text(json.dumps(plans, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(plans)} plans to {FIXTURE}", file=sys.stderr)
