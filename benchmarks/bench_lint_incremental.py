"""Benchmark — the incremental lint cache: cold vs warm vs one-file edit.

The full lint stack (rules + the ELS3xx-ELS7xx interprocedural passes)
had become the slowest step in CI and pre-commit.  The content-addressed
cache (:mod:`repro.lint.cache`) must make warm runs nearly free *without
ever changing a verdict*.  This bench measures the three scenarios that
matter operationally and asserts the invariants conservatively (CI
machines are noisy; the committed ``BENCH_lint.json`` records exact
timings from the reference machine, where the warm run is >100x faster
than cold against a required floor of 5x):

* **cold** — empty cache: every file and every component misses;
* **warm** — nothing changed: zero re-analysis, byte-identical output;
* **one-file edit** — exactly one file re-examined, its dependency
  component re-analyzed, everything else replayed from cache.

Run as a script (``python benchmarks/bench_lint_incremental.py``) to
regenerate ``BENCH_lint.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import tempfile
import time

from repro.lint import lint_paths
from repro.lint.cache import LintCache

ROOT = pathlib.Path(__file__).parent.parent

#: Every committed tree, linted with every pass — the CI configuration.
TREES = ("src", "tests", "benchmarks", "examples")
PASSES = {
    "dataflow": True,
    "effects": True,
    "concurrency": True,
    "perf": True,
    "contracts": True,
}

#: The file whose edit the dirty scenario simulates (hot-path module).
DIRTY_FILE = "src/repro/analysis/truth.py"


def _copy_trees(destination: pathlib.Path) -> None:
    for tree in TREES:
        source = ROOT / tree
        if source.is_dir():
            shutil.copytree(
                source,
                destination / tree,
                ignore=shutil.ignore_patterns("__pycache__"),
            )


def _timed_lint(trees, cache):
    started = time.perf_counter()
    diagnostics = lint_paths([str(t) for t in trees], cache=cache, **PASSES)
    return diagnostics, time.perf_counter() - started


def run_scenarios(workdir: pathlib.Path):
    """Cold / warm / one-file-dirty timings over a private tree copy.

    Operates on a copy so the dirty edit never touches the real repo,
    and on a private cache root so developer caches are not polluted.
    """
    _copy_trees(workdir)
    trees = [workdir / tree for tree in TREES if (workdir / tree).is_dir()]
    cache_root = str(workdir / ".repro-lint-cache")

    reference, uncached_s = _timed_lint(trees, None)

    cold_cache = LintCache(cache_root)
    cold, cold_s = _timed_lint(trees, cold_cache)

    warm_cache = LintCache(cache_root)
    warm, warm_s = _timed_lint(trees, warm_cache)

    dirty_path = workdir / DIRTY_FILE
    dirty_path.write_text(
        dirty_path.read_text() + "\n# bench: one-line edit\n"
    )
    dirty_cache = LintCache(cache_root)
    dirty, dirty_s = _timed_lint(trees, dirty_cache)

    return {
        "reference": reference,
        "cold": cold,
        "warm": warm,
        "dirty": dirty,
        "timings": {
            "uncached_s": uncached_s,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "one_file_dirty_s": dirty_s,
        },
        "stats": {
            "cold": cold_cache.stats.to_dict(),
            "warm": warm_cache.stats.to_dict(),
            "one_file_dirty": dirty_cache.stats.to_dict(),
        },
    }


def test_warm_cache_replays_byte_identically():
    with tempfile.TemporaryDirectory() as scratch:
        result = run_scenarios(pathlib.Path(scratch))

    assert result["cold"] == result["reference"]
    assert result["warm"] == result["reference"]
    assert result["stats"]["warm"]["file_misses"] == 0
    assert result["stats"]["warm"]["component_misses"] == 0
    assert result["stats"]["warm"]["corruptions"] == 0

    # One edited file: exactly one file-entry miss, everything else hits.
    assert result["stats"]["one_file_dirty"]["file_misses"] == 1

    # Direction only — the committed BENCH_lint.json records the margin.
    assert result["timings"]["warm_s"] < result["timings"]["cold_s"]


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        result = run_scenarios(pathlib.Path(scratch))
    timings = result["timings"]
    payload = {
        "meta": {
            "tool": "benchmarks/bench_lint_incremental.py",
            "trees": list(TREES),
            "passes": sorted(k for k, v in PASSES.items() if v),
            "dirty_file": DIRTY_FILE,
            "machine": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
            },
        },
        "timings_s": {key: round(value, 4) for key, value in timings.items()},
        "speedups": {
            "warm_vs_cold": round(timings["cold_s"] / timings["warm_s"], 1),
            "dirty_vs_cold": round(
                timings["cold_s"] / timings["one_file_dirty_s"], 1
            ),
        },
        "cache_stats": result["stats"],
        "finding_count": len(result["reference"]),
    }
    target = ROOT / "BENCH_lint.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload["timings_s"], indent=2))
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
