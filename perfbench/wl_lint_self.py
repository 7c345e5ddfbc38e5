"""``lint_self``: incremental self-lint after a one-file edit.

Why this workload: lint is the largest subsystem in ``src`` and the next
simplification target; no other workload touches it, and it touches no
estimator code.  Set-up copies ``src`` and runs one cold ``lint_paths``
with all five interprocedural passes, which fills the cache.  One op then
appends a comment to one file and lints the tree again through the cache.
The ops cycle through the ``__init__.py`` of ``core``, ``analysis``,
``sql``, ``execution`` and ``lint``: files every later layout will still
have.  An op takes seconds, so a run has few samples and reports the
median alone.
"""

from __future__ import annotations

import ast
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint import (
    LintCache,
    ModuleUnderLint,
    analyze_concurrency_modules,
    analyze_contract_modules,
    analyze_effect_modules,
    analyze_modules,
    analyze_perf_modules,
    iter_python_files,
    lint_paths,
)

from loop import Item, OpResult, Workload
from spans import Tracer

__all__ = ["EDITED_PACKAGES", "LintSelf", "PASSES"]

#: Every interprocedural pass, as ``lint_paths`` keyword arguments.
PASSES = {
    "dataflow": True,
    "effects": True,
    "concurrency": True,
    "perf": True,
    "contracts": True,
}

#: Public entry point of each pass, timed one at a time in traced runs.
_PASS_ENTRY_POINTS = {
    "dataflow": analyze_modules,
    "effects": analyze_effect_modules,
    "concurrency": analyze_concurrency_modules,
    "perf": analyze_perf_modules,
    "contracts": analyze_contract_modules,
}

EDITED_PACKAGES = ("core", "analysis", "sql", "execution", "lint")

#: Where the copies live, under the benchmark's own directory.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


@dataclass
class _State:
    root: str
    source: str
    cache_dir: str
    edits: int = 0


#: One op's output: rendered findings plus the cache counters of that run.
Outcome = Tuple[Tuple[str, ...], Dict[str, int]]


class LintSelf(Workload):
    name = "lint_self"
    whole_passes = False
    setups = 2  # a cold lint takes seconds; two keep the run inside its budget

    def __init__(self, source_root: str) -> None:
        self._source_root = source_root

    def setup(self, seed: int, morsel_workers: int) -> _State:
        root = os.path.join(WORK_DIR, f"lint_self-{os.getpid()}")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        source = os.path.join(root, "src")
        shutil.copytree(
            self._source_root, source, ignore=shutil.ignore_patterns("__pycache__")
        )
        state = _State(root, source, os.path.join(root, "cache"))
        lint_paths([source], cache=LintCache(state.cache_dir), **PASSES)
        return state

    def teardown(self, state: _State) -> None:
        shutil.rmtree(state.root, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    def pass_items(self, state: _State, pass_index: int) -> Sequence[Item]:
        return [
            Item(package, os.path.join(state.source, "repro", package, "__init__.py"))
            for package in EDITED_PACKAGES
        ]

    def run(self, state: _State, item: Item) -> Outcome:
        state.edits += 1
        with open(item.data, "a", encoding="utf-8") as handle:
            handle.write(f"# benchmark edit {state.edits}\n")
        cache = LintCache(state.cache_dir)
        findings = lint_paths([state.source], cache=cache, **PASSES)
        return tuple(str(d) for d in findings), cache.stats.to_dict()

    def run_traced(self, state: _State, item: Item, tracer: Tracer) -> Outcome:
        with tracer.span("lint.run"):
            return self.run(state, item)

    def verify(self, state: _State, results: Sequence[OpResult], tracer: Optional[Tracer]):
        """Every edit run must equal an uncached run of the final tree.

        The edits only append comment lines, which move no finding, so the
        final tree's findings are every earlier tree's findings too.
        """
        expected = tuple(str(d) for d in lint_paths([state.source], cache=None, **PASSES))
        failures = [
            (r.op_id, f"{len(r.value[0])} findings, uncached run has {len(expected)}")
            for r in results
            if r.error is None and r.value[0] != expected
        ]
        totals: Dict[str, int] = {}
        for result in results:
            if result.error is None:
                for name, value in result.value[1].items():
                    totals[name] = totals.get(name, 0) + value
        report: Dict[str, float] = {"findings": len(expected)}
        for kind in ("file", "component"):
            lookups = totals.get(f"{kind}_hits", 0) + totals.get(f"{kind}_misses", 0)
            if lookups:
                report[f"{kind}_hit_ratio"] = totals[f"{kind}_hits"] / lookups
            report[f"{kind}_lookups"] = lookups
        if tracer is not None:
            report.update(_time_passes(state.source, tracer))
        return failures, report


def _time_passes(source: str, tracer: Tracer) -> Dict[str, float]:
    """Cold seconds of the per-file rules and of each pass on its own."""
    seconds: Dict[str, float] = {}
    with tracer.root("check/lint.pass.rules", kind="check"):
        with tracer.span("lint.pass.rules"):
            lint_paths([source], cache=None)
    seconds["rules"] = tracer.totals["lint.pass.rules"]
    paths = [str(p) for p in iter_python_files([source])]
    for name, analyze in _PASS_ENTRY_POINTS.items():
        modules: List[ModuleUnderLint] = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            modules.append(ModuleUnderLint(path=path, source=text, tree=ast.parse(text)))
        with tracer.root(f"check/lint.pass.{name}", kind="check"):
            with tracer.span(f"lint.pass.{name}"):
                analyze(modules)
        seconds[name] = tracer.totals[f"lint.pass.{name}"]
    return {f"pass_s.{name}": value for name, value in seconds.items()}
