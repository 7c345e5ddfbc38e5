"""Tests for the incremental content-addressed lint cache.

Covers the name-interface extraction (including the ``lock::`` pseudo
names that keep ELS502's global lock-order graph sound), dependency
component grouping, the rule-set fingerprint, file/component entry
round-trips, corruption-as-cold-miss, and the engine-level invariants:
warm output byte-identical to cold over every tree, one-file edits
invalidating only that file, rule-set changes invalidating everything,
and one parse per file per cold run.  The shared front end is pinned
too: one tokenize per file and one program index per analysed module
set, cold and after an edit, and every pass entry point skipping an
unparsed module.
"""

import ast
import json
import textwrap
import tokenize

import pytest

from repro.lint import (
    ModuleUnderLint,
    analyze_concurrency_modules,
    analyze_contract_modules,
    analyze_effect_modules,
    analyze_modules,
    analyze_perf_modules,
)
from repro.lint import cache as cache_module
from repro.lint.cache import (
    FileEntry,
    LintCache,
    content_digest,
    dependency_components,
    module_interface,
    ruleset_fingerprint,
)
from repro.lint.dataflow import summaries as summaries_module
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import lint_paths


def _interface(source):
    return module_interface(ast.parse(textwrap.dedent(source)))


class TestModuleInterface:
    def test_definitions_include_methods_and_classes(self):
        defined, _ = _interface(
            """
            class Estimator:
                def combine(self):
                    pass

            def helper():
                pass
            """
        )
        assert "Estimator" in defined
        assert "combine" in defined
        assert "helper" in defined

    def test_references_include_calls_imports_and_bases(self):
        _, referenced = _interface(
            """
            from repro.core import closure

            class Derived(Base):
                pass

            def f(x):
                return x.compute() + closure()
            """
        )
        assert "closure" in referenced
        assert "compute" in referenced
        assert "Base" in referenced

    def test_lock_names_are_pseudo_defined_and_referenced(self):
        defined, referenced = _interface(
            """
            def f(self):
                with self._cache_lock:
                    pass
            """
        )
        assert "lock::_cache_lock" in defined
        assert "lock::_cache_lock" in referenced


class TestDependencyComponents:
    def test_call_reference_links_files(self):
        components = dependency_components(
            {
                "a.py": (["helper"], []),
                "b.py": ([], ["helper"]),
                "c.py": (["other"], []),
            }
        )
        assert components == [["a.py", "b.py"], ["c.py"]]

    def test_shared_lock_name_links_files(self):
        a = _interface("def f(self):\n    self._lock.acquire()\n")
        b = _interface("def g(self):\n    self._lock.release()\n")
        components = dependency_components({"a.py": a, "b.py": b})
        assert components == [["a.py", "b.py"]]

    def test_unrelated_files_stay_singletons(self):
        components = dependency_components(
            {
                "a.py": (["alpha"], ["ext_one"]),
                "b.py": (["beta"], ["ext_two"]),
            }
        )
        assert components == [["a.py"], ["b.py"]]


class TestFingerprint:
    def test_stable_within_process(self):
        assert ruleset_fingerprint() == ruleset_fingerprint()

    def test_schema_version_changes_fingerprint(self, monkeypatch):
        before = ruleset_fingerprint()
        monkeypatch.setattr(cache_module, "_SCHEMA_VERSION", "test-bump")
        cache_module._reset_fingerprint_for_tests()
        try:
            after = ruleset_fingerprint()
        finally:
            monkeypatch.undo()
            cache_module._reset_fingerprint_for_tests()
        assert after != before
        assert ruleset_fingerprint() == before

    def test_contract_data_files_change_fingerprint(
        self, tmp_path, monkeypatch
    ):
        """Editing layers.toml or api-baseline.json must invalidate caches."""
        import types

        package = tmp_path / "lintpkg"
        package.mkdir()
        (package / "rules.py").write_text("RULE = 1\n")
        (package / "layers.toml").write_text('[[tier]]\nname = "a"\n')
        (package / "api-baseline.json").write_text("{}\n")
        fake = types.SimpleNamespace(
            resolve=lambda: types.SimpleNamespace(parent=package)
        )
        monkeypatch.setattr(cache_module, "Path", lambda _file: fake)
        cache_module._reset_fingerprint_for_tests()
        try:
            before = ruleset_fingerprint()
            (package / "layers.toml").write_text('[[tier]]\nname = "b"\n')
            cache_module._reset_fingerprint_for_tests()
            after_manifest = ruleset_fingerprint()
            (package / "api-baseline.json").write_text('{"m": {}}\n')
            cache_module._reset_fingerprint_for_tests()
            after_baseline = ruleset_fingerprint()
        finally:
            monkeypatch.undo()
            cache_module._reset_fingerprint_for_tests()
        assert after_manifest != before
        assert after_baseline != after_manifest


def _diagnostic(path, line=3, code="ELS104"):
    return Diagnostic(
        file=path,
        line=line,
        col=4,
        code=code,
        severity=Severity.ERROR,
        message="mutable default argument in 'f'",
        hint="default to None",
    )


def _entry(path="pkg/mod.py"):
    return FileEntry(
        path=path,
        digest=content_digest(b"def f(x=[]):\n    return x\n"),
        parsed_ok=True,
        findings=(_diagnostic(path),),
        noqa=((7, ("ELS104",)), (9, None)),
        defined=("f",),
        referenced=("list",),
    )


class TestEntryRoundTrips:
    def test_file_entry_round_trip(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        entry = _entry()
        cache.store_file(entry)
        loaded = cache.load_file(entry.path, entry.digest)
        assert loaded == entry
        assert cache.stats.file_hits == 1

    def test_different_digest_misses(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        entry = _entry()
        cache.store_file(entry)
        assert cache.load_file(entry.path, "0" * 32) is None
        assert cache.stats.file_misses == 1

    def test_different_path_misses(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        entry = _entry()
        cache.store_file(entry)
        assert cache.load_file("pkg/renamed.py", entry.digest) is None

    def test_component_round_trip(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        members = [("a.py", "d" * 32), ("b.py", "e" * 32)]
        passes = ["dataflow", "perf"]
        finding = _diagnostic("a.py", code="ELS603")
        summaries = {
            "a.py": {"f": {"hot": {"hot": True, "origin": "execute"}}}
        }
        cache.store_component(members, passes, [finding], summaries)
        assert cache.load_component(members, passes) == [finding]
        assert cache.load_component_summaries(members, passes) == summaries
        assert cache.load_component(members, ["dataflow"]) is None
        assert cache.load_component(list(reversed(members)), passes) == [
            finding
        ]

    def test_corrupted_entry_is_a_cold_miss(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        entry = _entry()
        cache.store_file(entry)
        entry_file = next((tmp_path / "cache" / "files").glob("*.json"))
        wrapper = json.loads(entry_file.read_text())
        wrapper["payload"]["parsed_ok"] = False
        entry_file.write_text(json.dumps(wrapper))
        assert cache.load_file(entry.path, entry.digest) is None
        assert cache.stats.corruptions == 1
        assert cache.stats.file_misses == 1

    def test_truncated_entry_is_a_cold_miss(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache"))
        entry = _entry()
        cache.store_file(entry)
        entry_file = next((tmp_path / "cache" / "files").glob("*.json"))
        entry_file.write_bytes(entry_file.read_bytes()[:20])
        assert cache.load_file(entry.path, entry.digest) is None
        assert cache.stats.corruptions == 1

    def test_unwritable_root_degrades_to_no_op(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = LintCache(str(blocker))
        cache.store_file(_entry())  # must not raise
        assert cache.load_file(_entry().path, _entry().digest) is None


HOT_HAZARD = textwrap.dedent(
    '''
    """Module under lint."""

    __all__ = ["estimate_key"]


    def estimate_key(parts):
        key = ""
        for part in parts:
            key += part
        return key
    '''
)

CLEAN_CALLER = textwrap.dedent(
    '''
    """Second module, linked to the first by a call."""

    __all__ = ["execute"]

    from hazard import estimate_key


    def execute(parts):
        return estimate_key(parts)
    '''
)


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "hazard.py").write_text(HOT_HAZARD)
    (package / "caller.py").write_text(CLEAN_CALLER)
    return package


def _run(tree_path, cache=None, **kwargs):
    kwargs.setdefault("dataflow", True)
    kwargs.setdefault("effects", True)
    kwargs.setdefault("concurrency", True)
    kwargs.setdefault("perf", True)
    return lint_paths([str(tree_path)], cache=cache, **kwargs)


class TestEngineIntegration:
    def test_cold_run_equals_uncached_run(self, tree, tmp_path):
        reference = _run(tree)
        cache = LintCache(str(tmp_path / "cache"))
        cold = _run(tree, cache=cache)
        assert cold == reference
        assert cache.stats.file_misses == 2
        assert cache.stats.file_hits == 0

    def test_warm_run_is_byte_identical_and_all_hits(self, tree, tmp_path):
        root = str(tmp_path / "cache")
        cold = _run(tree, cache=LintCache(root))
        warm_cache = LintCache(root)
        warm = _run(tree, cache=warm_cache)
        assert warm == cold
        assert warm_cache.stats.file_hits == 2
        assert warm_cache.stats.file_misses == 0
        assert warm_cache.stats.component_misses == 0

    def test_warm_run_with_jobs_matches(self, tree, tmp_path):
        root = str(tmp_path / "cache")
        cold = _run(tree, cache=LintCache(root))
        warm = _run(tree, cache=LintCache(root), jobs=2)
        assert warm == cold

    def test_one_file_edit_invalidates_only_that_file(self, tree, tmp_path):
        root = str(tmp_path / "cache")
        _run(tree, cache=LintCache(root))
        (tree / "caller.py").write_text(
            CLEAN_CALLER + "\n\nRETRY_LIMIT = 3\n"
        )
        edited_cache = LintCache(root)
        edited = _run(tree, cache=edited_cache)
        assert edited_cache.stats.file_hits == 1
        assert edited_cache.stats.file_misses == 1
        assert edited == _run(tree)

    def test_edit_changing_findings_updates_output(self, tree, tmp_path):
        root = str(tmp_path / "cache")
        before = _run(tree, cache=LintCache(root))
        assert "ELS603" in [d.code for d in before]
        (tree / "hazard.py").write_text(
            HOT_HAZARD.replace(
                "key += part", "key += part  # els: noqa[ELS603]"
            )
        )
        after = _run(tree, cache=LintCache(root))
        assert "ELS603" not in [d.code for d in after]
        assert after == _run(tree)

    def test_ruleset_change_invalidates_everything(
        self, tree, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "cache")
        _run(tree, cache=LintCache(root))
        monkeypatch.setattr(cache_module, "_SCHEMA_VERSION", "test-bump")
        cache_module._reset_fingerprint_for_tests()
        try:
            bumped_cache = LintCache(root)
            bumped = _run(tree, cache=bumped_cache)
        finally:
            monkeypatch.undo()
            cache_module._reset_fingerprint_for_tests()
        assert bumped_cache.stats.file_hits == 0
        assert bumped_cache.stats.file_misses == 2
        assert bumped == _run(tree)

    def test_syntax_error_file_is_cached(self, tree, tmp_path):
        (tree / "broken.py").write_text("def broken(:\n")
        root = str(tmp_path / "cache")
        cold = _run(tree, cache=LintCache(root))
        warm = _run(tree, cache=LintCache(root))
        assert warm == cold
        assert "ELS100" in [d.code for d in warm]

    def test_one_parse_per_file_serial(self, tree, monkeypatch):
        real_parse = ast.parse
        counts = {}

        def counting_parse(source, *args, **kwargs):
            filename = kwargs.get("filename") or (
                args[0] if args else "<unknown>"
            )
            counts[filename] = counts.get(filename, 0) + 1
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        _run(tree, cache=None)
        per_file = {
            name: count
            for name, count in counts.items()
            if name.endswith(".py")
        }
        assert len(per_file) == 2
        assert all(count == 1 for count in per_file.values()), per_file


def _count_tokenizes(monkeypatch):
    """Source text -> number of times it went through the tokenizer."""
    real_generate = tokenize.generate_tokens
    counts = {}

    def counting_generate(readline, *args, **kwargs):
        source = readline.__self__.getvalue()
        counts[source] = counts.get(source, 0) + 1
        return real_generate(readline, *args, **kwargs)

    monkeypatch.setattr(tokenize, "generate_tokens", counting_generate)
    return counts


def _count_program_indexes(monkeypatch):
    """Every program index built, as its list of module paths."""
    built = []

    class CountingProgram(summaries_module.Program):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append([module.path for module in self.modules])

    monkeypatch.setattr(summaries_module, "Program", CountingProgram)
    return built


def _sources(tree_path):
    return {
        path.read_text(): str(path) for path in sorted(tree_path.glob("*.py"))
    }


@pytest.fixture
def annotated_tree(tree):
    """The two-file tree with an ``# els:`` directive in each file (a
    file that never spells the marker is not tokenized at all)."""
    (tree / "hazard.py").write_text(
        HOT_HAZARD.replace("key += part", "key += part  # els: noqa[ELS603]")
    )
    (tree / "caller.py").write_text(
        CLEAN_CALLER.replace(
            "def execute(parts):", "def execute(parts):  # els: hot=yes"
        )
    )
    return tree


class TestSharedFrontEnd:
    def test_one_tokenize_and_one_index_cold(self, annotated_tree, monkeypatch):
        tree = annotated_tree
        annotated = _sources(tree)
        (tree / "plain.py").write_text("def plain():\n    return 1\n")
        reference = _run(tree, contracts=True)
        tokenized = _count_tokenizes(monkeypatch)
        indexes = _count_program_indexes(monkeypatch)
        assert _run(tree, cache=None, contracts=True) == reference
        assert tokenized == {source: 1 for source in annotated}
        assert indexes == [sorted(_sources(tree).values())]

    def test_one_tokenize_and_one_index_after_edit(
        self, annotated_tree, tmp_path, monkeypatch
    ):
        tree = annotated_tree
        root = str(tmp_path / "cache")
        _run(tree, cache=LintCache(root), contracts=True)
        caller = tree / "caller.py"
        caller.write_text(caller.read_text() + "\n# edited\n")
        reference = _run(tree, contracts=True)
        tokenized = _count_tokenizes(monkeypatch)
        indexes = _count_program_indexes(monkeypatch)
        edited_cache = LintCache(root)
        edited = _run(tree, cache=edited_cache, contracts=True)
        assert edited == reference
        assert edited_cache.stats.file_hits == 1
        assert edited_cache.stats.component_misses == 2  # local + global
        # The edited file is tokenized by stage 1, the cache hit on
        # first use by the dirty component; the contracts global half
        # reuses the component's index.
        assert tokenized == {source: 1 for source in _sources(tree)}
        assert indexes == [sorted(_sources(tree).values())]

    def test_pool_workers_hand_back_directives(
        self, annotated_tree, monkeypatch
    ):
        tree = annotated_tree
        reference = _run(tree, contracts=True)
        tokenized = _count_tokenizes(monkeypatch)
        assert _run(tree, cache=None, contracts=True, jobs=2) == reference
        # The workers tokenized every file; the parent tokenized none.
        assert tokenized == {}

    @pytest.mark.parametrize(
        "analyze",
        [
            analyze_modules,
            analyze_effect_modules,
            analyze_concurrency_modules,
            analyze_perf_modules,
            analyze_contract_modules,
        ],
    )
    def test_entry_points_skip_unparsed_modules(self, analyze, tree):
        unparsed = ModuleUnderLint(
            path=str(tree / "broken.py"), source="def broken(:\n", tree=None
        )
        assert analyze([unparsed]) == []
        parsed = [
            ModuleUnderLint(path=path, source=source, tree=ast.parse(source))
            for source, path in _sources(tree).items()
        ]
        assert analyze(parsed + [unparsed]) == analyze(parsed)


class TestRepoTrees:
    def test_warm_output_identical_over_all_trees(self, tmp_path):
        """Byte-identity over src/tests/benchmarks/examples (layer 1)."""
        trees = ["src", "tests", "benchmarks", "examples"]
        reference = lint_paths(trees)
        root = str(tmp_path / "cache")
        cold = lint_paths(trees, cache=LintCache(root))
        warm_cache = LintCache(root)
        warm = lint_paths(trees, cache=warm_cache)
        assert cold == reference
        assert warm == reference
        assert warm_cache.stats.file_misses == 0
        assert warm_cache.stats.corruptions == 0
