"""Benchmark-side probes: subclasses and wrappers that time calls into layers.

Nothing here changes what a call computes.  The estimator and cost-model
subclasses add a span around each public method the enumerator calls; the
executor subclass adds one around each COUNT and sums the
:class:`~repro.execution.metrics.ExecutionMetrics` it returns; and
:func:`instrumentation` rebinds the module-level names that library code
looks up at call time (``build_database`` -> ``generate_columns``, the
harness -> ``JoinSizeEstimator``/``true_join_size``, and so on) to traced
versions for as long as the context is open.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack, contextmanager
from typing import Iterator, Type

import repro.analysis.harness as harness_module
import repro.analysis.truth as truth_module
import repro.core.estimator as estimator_module
import repro.workloads.generator as generator_module
from repro.core.estimator import JoinSizeEstimator
from repro.execution.executor import Executor
from repro.optimizer.cost import CostModel
from repro.storage.database import Database

from spans import Tracer, patched

__all__ = [
    "TracedCostModel",
    "instrumentation",
    "traced_estimator_class",
    "traced_executor_class",
]


@functools.lru_cache(maxsize=None)
def traced_estimator_class(tracer: Tracer) -> Type[JoinSizeEstimator]:
    """A :class:`JoinSizeEstimator` subclass that records its calls on ``tracer``."""

    class TracedEstimator(JoinSizeEstimator):
        def __init__(self, *args, **kwargs) -> None:
            frame = tracer.open("core.estimator_build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(frame)

        def eligible(self, joined, table):
            frame = tracer.open("core.eligible", keep=False)
            try:
                return super().eligible(joined, table)
            finally:
                tracer.close(frame)

        def join(self, state, table):
            frame = tracer.open("core.join", keep=False)
            try:
                return super().join(state, table)
            finally:
                tracer.close(frame)

        def join_states(self, left, right):
            frame = tracer.open("core.join_states", keep=False)
            try:
                return super().join_states(left, right)
            finally:
                tracer.close(frame)

        def estimate_order(self, order):
            frame = tracer.open("core.estimate_order")
            try:
                return super().estimate_order(order)
            finally:
                tracer.close(frame)

    return TracedEstimator


class TracedCostModel(CostModel):
    """The default :class:`CostModel` with every costing call recorded."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        object.__setattr__(self, "_tracer", tracer)

    def _timed(self, method, *args):
        frame = self._tracer.open("optimizer.cost", keep=False)
        try:
            return method(self, *args)
        finally:
            self._tracer.close(frame)

    def scan_cost(self, *args):
        return self._timed(CostModel.scan_cost, *args)

    def nested_loops_cost(self, *args):
        return self._timed(CostModel.nested_loops_cost, *args)

    def sort_merge_cost(self, *args):
        return self._timed(CostModel.sort_merge_cost, *args)

    def hash_cost(self, *args):
        return self._timed(CostModel.hash_cost, *args)

    def output_cost(self, *args):
        return self._timed(CostModel.output_cost, *args)


@functools.lru_cache(maxsize=None)
def traced_executor_class(tracer: Tracer) -> Type[Executor]:
    """An :class:`Executor` subclass whose COUNTs are spans named by engine.

    The :class:`~repro.execution.metrics.ExecutionMetrics` of each COUNT
    are summed into ``tracer.counts``.
    """

    class TracedExecutor(Executor):
        def count(self, plan):
            frame = tracer.open(f"execution.{self.engine}")
            try:
                result = super().count(plan)
            finally:
                tracer.close(frame)
            metrics = result.metrics
            tracer.counts["execution.output_rows"] += result.count
            tracer.counts["execution.rows_out_total"] += metrics.total_rows_out
            tracer.counts["execution.comparisons"] += metrics.total_comparisons
            tracer.counts["execution.pages_read"] += metrics.total_pages_read
            return result

    return TracedExecutor


@contextmanager
def instrumentation(tracer: Tracer) -> Iterator[None]:
    """Route the library's own internal calls through traced versions."""
    original_load = Database.load_columns

    def load_columns(database, schema, columns):
        rows = len(next(iter(columns.values()), ()))
        tracer.counts["storage.rows_loaded"] += rows
        frame = tracer.open("storage.load")
        try:
            return original_load(database, schema, columns)
        finally:
            tracer.close(frame)

    with ExitStack() as stack:
        stack.enter_context(
            patched(
                generator_module,
                "generate_columns",
                tracer.wrap(generator_module.generate_columns, "workloads.generate"),
            )
        )
        stack.enter_context(patched(Database, "load_columns", load_columns))
        stack.enter_context(
            patched(Database, "analyze", tracer.wrap(Database.analyze, "catalog.analyze"))
        )
        stack.enter_context(
            patched(
                estimator_module,
                "close_query",
                tracer.wrap(estimator_module.close_query, "core.closure"),
            )
        )
        stack.enter_context(
            patched(harness_module, "JoinSizeEstimator", traced_estimator_class(tracer))
        )
        stack.enter_context(
            patched(
                harness_module,
                "true_join_size",
                tracer.wrap(harness_module.true_join_size, "analysis.truth"),
            )
        )
        stack.enter_context(
            patched(
                truth_module,
                "build_reference_plan",
                tracer.wrap(truth_module.build_reference_plan, "analysis.reference_plan"),
            )
        )
        stack.enter_context(
            patched(truth_module, "Executor", traced_executor_class(tracer))
        )
        yield
