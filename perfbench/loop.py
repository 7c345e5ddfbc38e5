"""The closed loop: one client, no think time, ops in a fixed order.

A workload hands out its ops one *pass* at a time.  The loop runs ops back
to back until ``seconds`` have elapsed; workloads with short, mixed ops
finish the pass in progress, so every run covers the mix in the same
proportions and a median is not skewed by where the clock ran out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from spans import Tracer

__all__ = ["Item", "OpResult", "Workload", "run_phase"]


@dataclass(frozen=True)
class Item:
    """One op's input: a stable key (what verification groups by) and data."""

    key: str
    data: Any


@dataclass
class OpResult:
    """What one op returned, or the error it raised, and how long it took."""

    op_id: str
    key: str
    seconds: float
    value: Any = None
    error: Optional[str] = None


class Workload:
    """Interface the loop drives; see the ``wl_*`` modules for the four kept.

    Attributes:
        name: The ``--workload`` name.
        whole_passes: Finish the pass in progress when time runs out.
        setups: Set-ups timed per untraced run; ``setup_s`` is their median.
    """

    name = ""
    whole_passes = True
    setups = 3

    def setup(self, seed: int, morsel_workers: int) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` made (files, processes)."""

    def start_phase(self, state: Any) -> None:
        """Reset per-phase state (caches whose hit rate is measured)."""

    def pass_items(self, state: Any, pass_index: int) -> Sequence[Item]:
        raise NotImplementedError

    def run(self, state: Any, item: Item) -> Any:
        raise NotImplementedError

    def run_traced(self, state: Any, item: Item, tracer: Tracer) -> Any:
        raise NotImplementedError

    def verify(
        self, state: Any, results: Sequence[OpResult], tracer: Optional[Tracer]
    ) -> Tuple[List[Tuple[str, str]], dict]:
        """Check every op's output.

        Returns ``(op_id, reason)`` for every op that failed a check, and
        workload-specific report values.
        """
        raise NotImplementedError


def run_phase(
    workload: Workload,
    state: Any,
    seconds: float,
    tracer: Optional[Tracer] = None,
    phase: str = "",
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[OpResult], float]:
    """Run ops closed-loop for ``seconds``; returns results and elapsed time.

    Op ids are ``"<phase><pass>/<item key>"``.

    An op that raises is recorded with its error and counted as failed; the
    loop goes on, so one bad input cannot hide the rest of the run.
    """
    workload.start_phase(state)
    results: List[OpResult] = []
    started = clock()
    pass_index = 0
    while True:
        for item in workload.pass_items(state, pass_index):
            op_id = f"{phase}{pass_index}/{item.key}"
            value = None
            error = None
            op_start = clock()
            try:
                if tracer is None:
                    value = workload.run(state, item)
                else:
                    with tracer.root(op_id):
                        value = workload.run_traced(state, item, tracer)
            except Exception as exc:  # counted as a failed op, see docstring
                error = f"{type(exc).__name__}: {exc}"
            results.append(OpResult(op_id, item.key, clock() - op_start, value, error))
            if not workload.whole_passes and clock() - started >= seconds:
                break
        pass_index += 1
        if clock() - started >= seconds:
            break
    return results, clock() - started
