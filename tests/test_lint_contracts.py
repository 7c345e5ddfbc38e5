"""Tests for the ELS7xx contract-and-architecture layer.

Covers the directive hygiene and data-file errors (ELS700), protocol
conformance (ELS701/ELS702), the exception-contract fixpoint
(ELS703-ELS705), layering and cycle detection (ELS706), API-baseline
drift (ELS707), the committed data files themselves (the manifest must
cover every subpackage; the baseline must be regeneration-stable), the
engine integration (``contracts=`` flag, noqa, incremental cache), and
regressions for the tree-wide dogfooding fixes this layer forced.
"""

import ast
import pathlib
import textwrap

import pytest

from repro.errors import LintError
from repro.lint.cache import LintCache
from repro.lint.contracts import (
    CONTRACT_CODES,
    BaselineError,
    ManifestError,
    analyze_modules,
    analyze_source,
    generate_baseline,
    load_baseline,
    load_manifest,
    module_name_of,
    render_baseline,
)
from repro.lint.contracts.architecture import (
    DEFAULT_MANIFEST_PATH,
    check_layering,
    find_cycles,
    module_imports,
    parse_toml_subset,
)
from repro.lint.contracts.baseline import (
    DEFAULT_BASELINE_PATH,
    compare_module,
    entry_payload,
    extract_api,
)
from repro.lint.engine import known_codes, lint_paths, lint_source

ROOT = pathlib.Path(__file__).parent.parent

MANIFEST = """
[[tier]]
name = "low"
modules = ["core"]

[[tier]]
name = "high"
modules = ["analysis"]
"""


def write_manifest(tmp_path, text=MANIFEST):
    path = tmp_path / "layers.toml"
    path.write_text(textwrap.dedent(text))
    return str(path)


def write_baseline(tmp_path, sources):
    """A baseline file recording the given ``{module: source}`` set."""
    payload = {}
    for name, module_source in sources.items():
        entry = extract_api(ast.parse(textwrap.dedent(module_source)))
        if entry is not None:
            payload[name] = entry_payload(entry)
    path = tmp_path / "api-baseline.json"
    path.write_text(render_baseline(payload))
    return str(path)


def run(tmp_path, source, path="src/repro/core/mod.py", baseline_from=None):
    """Analyze one module with an isolated manifest and baseline."""
    source = textwrap.dedent(source)
    module = module_name_of(path)
    recorded = baseline_from if baseline_from is not None else source
    sources = {module: recorded} if module else {}
    return analyze_source(
        source,
        path,
        manifest_path=write_manifest(tmp_path),
        baseline_path=write_baseline(tmp_path, sources),
    )


def run_codes(tmp_path, source, **kwargs):
    return [d.code for d in run(tmp_path, source, **kwargs)]


class _FakeModule:
    def __init__(self, path, source):
        self.path = path
        self.source = textwrap.dedent(source)
        self.tree = ast.parse(self.source)
        self.is_test_file = False


EXCEPTION_PRELUDE = '''
"""Module under contract lint."""

__all__ = ["run"]


class ReproError(Exception):
    """Structured base."""


class ZError(ReproError):
    """A structured failure."""


class Rogue(Exception):
    """An unstructured failure."""
'''


class TestELS700:
    def test_misplaced_registers_directive_fires(self, tmp_path):
        assert "ELS700" in run_codes(
            tmp_path,
            '''
            """M."""

            X = 1  # els: registers=Sizer
            ''',
        )

    def test_registers_on_def_line_is_clean(self, tmp_path):
        source = '''
        """M."""

        from typing import Protocol


        class Sizer(Protocol):
            """P."""

            def area(self) -> float:
                """A."""
                ...


        def register(name):  # els: registers=Sizer
            """R."""
            return lambda cls: cls
        '''
        assert "ELS700" not in run_codes(tmp_path, source)

    def test_unknown_protocol_fires_at_registrar(self, tmp_path):
        findings = run(
            tmp_path,
            '''
            """M."""


            def register(name):  # els: registers=Ghost
                """R."""
                return lambda cls: cls
            ''',
        )
        codes = [d.code for d in findings]
        assert "ELS700" in codes

    def test_unreadable_manifest_fires_once(self, tmp_path):
        bad = tmp_path / "layers.toml"
        bad.write_text("[[tier]\nbroken")
        findings = analyze_source(
            '"""M."""\n',
            "src/repro/core/mod.py",
            manifest_path=str(bad),
            baseline_path=write_baseline(tmp_path, {}),
        )
        assert [d.code for d in findings] == ["ELS700"]
        assert "manifest" in findings[0].message

    def test_unreadable_baseline_fires_once(self, tmp_path):
        bad = tmp_path / "api-baseline.json"
        bad.write_text("{not json")
        findings = analyze_source(
            '"""M."""\n',
            "src/repro/core/mod.py",
            manifest_path=write_manifest(tmp_path),
            baseline_path=str(bad),
        )
        assert [d.code for d in findings] == ["ELS700"]
        assert "baseline" in findings[0].message


PROTOCOL_TEMPLATE = '''
"""M."""

from typing import Protocol


class Sizer(Protocol):
    """P."""

    def area(self, scale: float = 1.0) -> float:
        """A."""
        ...


def register(name):  # els: registers=Sizer
    """R."""
    return lambda cls: cls


@register("box")
class Box:
    """B."""
{body}
'''


def protocol_codes(body):
    source = PROTOCOL_TEMPLATE.format(body=textwrap.indent(body, "    "))
    return [d.code for d in analyze_source(source, "pkg/mod.py")]


class TestProtocolConformance:
    def test_missing_method_is_els701(self):
        assert "ELS701" in protocol_codes("\npass\n")

    def test_conforming_class_is_clean(self):
        assert protocol_codes(
            '''
def area(self, scale: float = 1.0) -> float:
    """A."""
    return scale
'''
        ) == []

    def test_parameter_name_mismatch_is_els702(self):
        assert "ELS702" in protocol_codes(
            '''
def area(self, factor: float = 1.0) -> float:
    """A."""
    return factor
'''
        )

    def test_missing_default_is_els702(self):
        assert "ELS702" in protocol_codes(
            '''
def area(self, scale):
    """A."""
    return scale
'''
        )

    def test_flexible_star_tail_is_accepted(self):
        assert protocol_codes(
            '''
def area(self, *args, **kwargs):
    """A."""
    return 0.0
'''
        ) == []

    def test_extra_parameter_with_default_is_accepted(self):
        assert protocol_codes(
            '''
def area(self, scale: float = 1.0, extra=None) -> float:
    """A."""
    return scale
'''
        ) == []

    def test_inherited_method_satisfies_protocol(self):
        source = '''
"""M."""

from typing import Protocol


class Sizer(Protocol):
    """P."""

    def area(self, scale: float = 1.0) -> float:
        """A."""
        ...


def register(name):  # els: registers=Sizer
    """R."""
    return lambda cls: cls


class Base:
    """Base impl."""

    def area(self, scale: float = 1.0) -> float:
        """A."""
        return scale


@register("box")
class Box(Base):
    """B."""
'''
        assert [d.code for d in analyze_source(source, "pkg/mod.py")] == []

    def test_quantity_contradiction_is_els702(self):
        source = '''
"""M."""

from typing import Protocol


class Sizer(Protocol):
    """P."""

    def level(self) -> float:  # els: quantity=selectivity
        """L."""
        ...


def register(name):  # els: registers=Sizer
    """R."""
    return lambda cls: cls


@register("box")
class Box:
    """B."""

    def level(self) -> float:  # els: quantity=cardinality
        """L."""
        return 1.0
'''
        assert "ELS702" in [d.code for d in analyze_source(source, "pkg/mod.py")]


class TestELS703:
    def test_unstructured_escape_from_public_function(self, tmp_path):
        findings = run(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run."""
    raise Rogue("boom")
''',
        )
        els703 = [d for d in findings if d.code == "ELS703"]
        assert len(els703) == 1
        assert "Rogue" in els703[0].message

    def test_structured_escape_is_clean(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run.

    Raises:
        ZError: always.
    """
    raise ZError("boom")
''',
        )
        assert "ELS703" not in codes

    def test_escape_through_a_callee_is_found(self, tmp_path):
        findings = run(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _helper():
    raise Rogue("boom")


def run():
    """Run."""
    return _helper()
''',
        )
        assert "ELS703" in [d.code for d in findings]

    def test_private_function_is_exempt(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _internal():
    raise Rogue("boom")
''',
        )
        assert "ELS703" not in codes

    def test_caught_exception_does_not_escape(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run.

    Raises:
        ZError: on failure.
    """
    try:
        raise Rogue("boom")
    except Rogue as exc:
        raise ZError(str(exc)) from exc
''',
        )
        assert "ELS703" not in codes

    def test_callee_escape_caught_by_enclosing_handler(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _helper():
    raise Rogue("boom")


def run():
    """Run."""
    try:
        return _helper()
    except Rogue:
        return None
''',
        )
        assert "ELS703" not in codes

    def test_callee_escape_from_a_handler_body_is_not_caught_there(
        self, tmp_path
    ):
        findings = run(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _helper():
    raise Rogue("boom")


def run():
    """Run."""
    try:
        return 1
    except Rogue:
        return _helper()
''',
        )
        assert "ELS703" in [d.code for d in findings]


class TestELS704:
    SWALLOW = EXCEPTION_PRELUDE + '''

def _helper():
    raise ZError("boom")


def run():
    """Run."""
    try:
        return _helper()
    except Exception:
        return None
'''

    def test_broad_silent_swallow_fires(self, tmp_path):
        findings = run(tmp_path, self.SWALLOW)
        els704 = [d for d in findings if d.code == "ELS704"]
        assert len(els704) == 1
        assert "ZError" in els704[0].message

    def test_reraise_is_not_silent(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _helper():
    raise ZError("boom")


def run():
    """Run."""
    try:
        return _helper()
    except Exception:
        raise
''',
        )
        assert "ELS704" not in codes

    def test_specific_handler_is_not_broad(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def _helper():
    raise ZError("boom")


def run():
    """Run."""
    try:
        return _helper()
    except ZError:
        return None
''',
        )
        assert "ELS704" not in codes

    def test_cli_modules_are_exempt(self, tmp_path):
        codes = run_codes(tmp_path, self.SWALLOW, path="src/repro/core/cli.py")
        assert "ELS704" not in codes


class TestELS705:
    def test_undocumented_structured_raise_warns(self, tmp_path):
        findings = run(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run without a Raises section."""
    raise ZError("boom")
''',
        )
        els705 = [d for d in findings if d.code == "ELS705"]
        assert len(els705) == 1
        assert els705[0].severity.value == "warning"

    def test_phantom_documented_error_warns(self, tmp_path):
        findings = run(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run.

    Raises:
        ZError: never, actually.
    """
    return 1
''',
        )
        assert "ELS705" in [d.code for d in findings]

    def test_matching_raises_section_is_clean(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run.

    Raises:
        ZError: always.
    """
    raise ZError("boom")
''',
        )
        assert "ELS705" not in codes

    def test_documented_base_class_covers_subtype_raise(self, tmp_path):
        codes = run_codes(
            tmp_path,
            EXCEPTION_PRELUDE
            + '''

def run():
    """Run.

    Raises:
        ReproError: on any failure.
    """
    raise ZError("boom")
''',
        )
        assert "ELS705" not in codes


class TestELS706:
    def test_upward_import_fires(self, tmp_path):
        findings = run(
            tmp_path,
            '''
            """M."""

            from ..analysis.stats import compute

            __all__ = ["compute"]
            ''',
        )
        els706 = [d for d in findings if d.code == "ELS706"]
        assert len(els706) == 1
        assert "strictly lower tier" in els706[0].message

    def test_function_level_import_is_the_escape_hatch(self, tmp_path):
        codes = run_codes(
            tmp_path,
            '''
            """M."""


            def late():
                """L."""
                from ..analysis.stats import compute

                return compute
            ''',
        )
        assert "ELS706" not in codes

    def test_downward_import_is_clean(self, tmp_path):
        codes = run_codes(
            tmp_path,
            '''
            """M."""

            from ..core.mod import thing
            ''',
            path="src/repro/analysis/stats.py",
        )
        assert "ELS706" not in codes

    def test_same_tier_cross_package_import_fires(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            """
            [[tier]]
            name = "low"
            modules = ["core", "catalog"]
            """,
        )
        findings = analyze_source(
            '"""M."""\n\nfrom ..catalog.stats import Catalog\n',
            "src/repro/core/mod.py",
            manifest_path=manifest,
            baseline_path=write_baseline(tmp_path, {}),
        )
        messages = [d.message for d in findings if d.code == "ELS706"]
        assert any("its own tier" in m for m in messages)

    def test_facade_import_fires(self, tmp_path):
        findings = run(tmp_path, '"""M."""\n\nimport repro\n')
        messages = [d.message for d in findings if d.code == "ELS706"]
        assert any("facade" in m for m in messages)

    def test_undeclared_subpackage_fires(self, tmp_path):
        findings = run(
            tmp_path, '"""M."""\n', path="src/repro/mystery/mod.py"
        )
        messages = [d.message for d in findings if d.code == "ELS706"]
        assert any("no tier" in m for m in messages)

    def test_import_cycle_is_reported_once(self, tmp_path):
        modules = [
            _FakeModule(
                "src/repro/core/a.py",
                '"""A."""\n\nfrom .b import beta\n',
            ),
            _FakeModule(
                "src/repro/core/b.py",
                '"""B."""\n\nfrom .a import alpha\n',
            ),
        ]
        findings = analyze_modules(
            modules,
            manifest_path=write_manifest(tmp_path),
            baseline_path=write_baseline(tmp_path, {}),
        )
        cycles = [d for d in findings if d.code == "ELS706"]
        assert len(cycles) == 1
        assert "cycle" in cycles[0].message
        assert cycles[0].file == "src/repro/core/a.py"


PUBLIC_V1 = '''
"""M."""

__all__ = ["f", "g"]


def f(x: int = 1) -> int:
    """F."""
    return x


def g() -> int:
    """G."""
    return 2
'''

PUBLIC_V2_REMOVED = '''
"""M."""

__all__ = ["f"]


def f(x: int = 1) -> int:
    """F."""
    return x
'''

PUBLIC_V3_RESIGNED = '''
"""M."""

__all__ = ["f", "g"]


def f(x: int = 2) -> int:
    """F."""
    return x


def g() -> int:
    """G."""
    return 2
'''


class TestELS707:
    def test_unchanged_surface_is_clean(self, tmp_path):
        assert "ELS707" not in run_codes(tmp_path, PUBLIC_V1)

    def test_removed_name_fires(self, tmp_path):
        findings = run(
            tmp_path, PUBLIC_V2_REMOVED, baseline_from=PUBLIC_V1
        )
        els707 = [d for d in findings if d.code == "ELS707"]
        assert len(els707) == 1
        assert "'g' removed" in els707[0].message

    def test_new_name_fires(self, tmp_path):
        findings = run(tmp_path, PUBLIC_V1, baseline_from=PUBLIC_V2_REMOVED)
        messages = [d.message for d in findings if d.code == "ELS707"]
        assert any("new public name 'g'" in m for m in messages)

    def test_signature_change_fires(self, tmp_path):
        findings = run(tmp_path, PUBLIC_V3_RESIGNED, baseline_from=PUBLIC_V1)
        messages = [d.message for d in findings if d.code == "ELS707"]
        assert any("signature of 'f' changed" in m for m in messages)

    def test_unrecorded_module_fires(self, tmp_path):
        findings = analyze_source(
            textwrap.dedent(PUBLIC_V1),
            "src/repro/core/mod.py",
            manifest_path=write_manifest(tmp_path),
            baseline_path=write_baseline(tmp_path, {}),
        )
        messages = [d.message for d in findings if d.code == "ELS707"]
        assert any("does not record" in m for m in messages)

    def test_dynamic_all_after_recorded_surface_fires(self, tmp_path):
        findings = run(
            tmp_path,
            '"""M."""\n\n__all__ = sorted(["f"])\n',
            baseline_from=PUBLIC_V1,
        )
        messages = [d.message for d in findings if d.code == "ELS707"]
        assert any("static '__all__'" in m for m in messages)

    def test_removed_module_is_reported_globally(self, tmp_path):
        facade = _FakeModule("src/repro/__init__.py", '"""Facade."""\n')
        baseline = tmp_path / "api-baseline.json"
        baseline.write_text(
            render_baseline(
                {"repro.ghost": {"all": ["f"], "signatures": {"f": "def()"}}}
            )
        )
        findings = analyze_modules(
            [facade],
            manifest_path=write_manifest(tmp_path),
            baseline_path=str(baseline),
        )
        messages = [d.message for d in findings if d.code == "ELS707"]
        assert any("repro.ghost" in m for m in messages)


class TestCommittedDataFiles:
    def test_manifest_loads(self):
        manifest = load_manifest()
        assert manifest.tiers
        assert manifest.tier_of["errors"] == 0

    def test_manifest_covers_every_subpackage(self):
        manifest = load_manifest()
        package_root = ROOT / "src" / "repro"
        subpackages = {
            child.name
            for child in package_root.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        }
        top_modules = {
            child.stem
            for child in package_root.glob("*.py")
            if child.stem != "__init__"
        }
        undeclared = (subpackages | top_modules) - set(manifest.tier_of)
        assert not undeclared, f"layers.toml misses {sorted(undeclared)}"

    def test_committed_baseline_is_regeneration_stable(self):
        generated = generate_baseline(ROOT / "src" / "repro")
        assert render_baseline(generated) == DEFAULT_BASELINE_PATH.read_text()

    def test_committed_baseline_loads(self):
        baseline = load_baseline()
        assert "repro.core.estimator" in baseline

    def test_toml_subset_parses_the_real_manifest(self):
        data = parse_toml_subset(DEFAULT_MANIFEST_PATH.read_text())
        assert isinstance(data["tier"], list)

    def test_toml_subset_rejects_garbage(self):
        with pytest.raises(ManifestError):
            parse_toml_subset("key = unquoted words\n")


class TestEngineIntegration:
    def test_contract_codes_are_known(self):
        codes = known_codes()
        for number in range(700, 708):
            assert f"ELS{number}" in codes
        assert set(CONTRACT_CODES) <= set(codes)

    def test_lint_source_contracts_flag(self):
        source = PROTOCOL_TEMPLATE.format(body="    pass")
        with_pass = lint_source(source, "pkg/mod.py", contracts=True)
        without = lint_source(source, "pkg/mod.py")
        assert "ELS701" in [d.code for d in with_pass]
        assert "ELS701" not in [d.code for d in without]

    def test_noqa_suppresses_contract_finding(self):
        source = PROTOCOL_TEMPLATE.format(body="    pass").replace(
            'class Box:', 'class Box:  # els: noqa[ELS701]'
        )
        diagnostics = lint_source(source, "pkg/mod.py", contracts=True)
        codes = [d.code for d in diagnostics]
        assert "ELS701" not in codes
        assert "ELS199" not in codes

    def test_warm_cache_is_byte_identical_with_contracts(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "mod.py").write_text(
            PROTOCOL_TEMPLATE.format(body="    pass")
        )
        root = str(tmp_path / "cache")
        reference = lint_paths([str(tree)], contracts=True)
        cold = lint_paths([str(tree)], contracts=True, cache=LintCache(root))
        warm_cache = LintCache(root)
        warm = lint_paths([str(tree)], contracts=True, cache=warm_cache)
        assert cold == reference
        assert warm == reference
        assert warm_cache.stats.file_misses == 0
        assert warm_cache.stats.component_misses == 0
        assert "ELS701" in [d.code for d in warm]

    def test_edit_invalidates_global_half(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        source = PROTOCOL_TEMPLATE.format(body="    pass")
        (tree / "mod.py").write_text(source)
        root = str(tmp_path / "cache")
        before = lint_paths([str(tree)], contracts=True, cache=LintCache(root))
        assert "ELS701" in [d.code for d in before]
        (tree / "mod.py").write_text(
            source
            + '\n    def area(self, scale: float = 1.0) -> float:\n'
            + '        """A."""\n'
            + '        return scale\n'
        )
        after = lint_paths([str(tree)], contracts=True, cache=LintCache(root))
        assert "ELS701" not in [d.code for d in after]
        assert after == lint_paths([str(tree)], contracts=True)


class TestDogfoodRegressions:
    """The tree-wide fixes this layer forced must not regress."""

    def test_contract_errors_are_structured(self):
        assert issubclass(ManifestError, LintError)
        assert issubclass(BaselineError, LintError)

    def test_lint_tier_has_no_module_level_core_imports(self):
        """semantic.py's core imports went lazy to satisfy layers.toml."""
        path = ROOT / "src" / "repro" / "lint" / "semantic.py"
        tree = ast.parse(path.read_text())
        rows = module_imports("repro.lint.semantic", str(path), tree)
        upward = [t for _line, t, _names in rows if t.startswith("repro.core")]
        assert upward == []

    def test_main_module_is_its_own_tier(self):
        """``repro.__main__`` -> ``repro.cli`` needs entry above interface."""
        manifest = load_manifest()
        assert (
            manifest.tier_of["__main__"] > manifest.tier_of["cli"]
        )

    @pytest.mark.parametrize(
        "relative,function,error",
        [
            ("workloads/queries.py", "chain_workload", "WorkloadError"),
            ("core/rules.py", "join_selectivity", "EstimationError"),
            ("sql/parser.py", "parse_predicate", "ParseError"),
            ("catalog/histogram.py", "build_mcv", "CatalogError"),
        ],
    )
    def test_public_raisers_document_their_errors(
        self, relative, function, error
    ):
        path = ROOT / "src" / "repro" / relative
        tree = ast.parse(path.read_text())
        node = next(
            n
            for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name == function
        )
        docstring = ast.get_docstring(node)
        assert docstring is not None
        assert "Raises:" in docstring
        assert error in docstring

    def test_real_layering_check_is_clean_for_semantic(self):
        manifest = load_manifest()
        path = ROOT / "src" / "repro" / "lint" / "semantic.py"
        tree = ast.parse(path.read_text())
        assert (
            check_layering("repro.lint.semantic", str(path), tree, manifest)
            == []
        )

    def test_no_cycles_in_the_real_tree(self):
        named = []
        for source in sorted((ROOT / "src" / "repro").rglob("*.py")):
            name = module_name_of(str(source))
            if name is None:
                continue
            named.append((name, str(source), ast.parse(source.read_text())))
        assert find_cycles(named) == []
