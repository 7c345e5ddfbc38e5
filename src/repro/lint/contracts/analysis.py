"""The ELS7xx contract-and-architecture diagnostics.

The driver mirrors the ELS3xx–ELS6xx layers (over the shared index of
:func:`repro.lint.dataflow.summaries.build_program`, iterate summaries
to a fixpoint, walk bodies once) but splits into two halves so the
incremental cache stays sound:

* :func:`analyze_program_local` — everything decidable from one
  dependency component plus the committed data files: directive
  hygiene (ELS700), the exception-contract rules (ELS703–ELS705),
  per-file layering edges (ELS706), and per-module API drift (ELS707).
* :func:`analyze_program_global` — everything that must see the whole
  file set at once: protocol conformance (ELS701/ELS702, because the
  ``registers=`` directive is invisible to the component graph),
  import-cycle detection (ELS706), removed-module drift (ELS707), and
  unreadable manifest/baseline files (ELS700).

========  ==========================================================
ELS700    malformed/misplaced ``registers=`` directive, or an
          unreadable ``layers.toml`` / ``api-baseline.json``
ELS701    registered class missing protocol methods
ELS702    implementation incompatible with its protocol (parameters,
          defaults, or ``# els: quantity=`` return contradiction)
ELS703    non-``ReproError`` exception escaping a public API function
ELS704    broad handler silently swallowing a structured ``ReproError``
ELS705    docstring ``Raises:`` section drifting from raise behavior
          (warning)
ELS706    import-layering violation or module-level import cycle
ELS707    unacknowledged public-API change against the baseline
========  ==========================================================

Like every interprocedural layer the analysis is optimistic: rules fire
only on facts the walkers prove (a literal raise, a resolved call, a
static ``__all__``), so dynamic constructs silence a rule rather than
guessing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dataflow.summaries import ModuleInfo, Program, build_program
from ..diagnostics import Diagnostic, Severity
from .architecture import (
    DEFAULT_MANIFEST_PATH,
    LayerManifest,
    ManifestError,
    check_layering,
    find_cycles,
    load_manifest,
    module_name_of,
)
from .baseline import (
    DEFAULT_BASELINE_PATH,
    BaselineError,
    compare_module,
    extract_api,
    load_baseline,
)
from .exceptions import (
    ExceptionHierarchy,
    Summaries,
    collect_hierarchy,
    compute_raise_summaries,
    direct_raises,
    handler_is_broad,
    handler_is_silent,
    summary_key,
    try_body_raises,
)
from .protocols import check_protocols

__all__ = [
    "CONTRACT_CODES",
    "analyze_modules",
    "analyze_modules_global",
    "analyze_modules_local",
    "analyze_program",
    "analyze_program_global",
    "analyze_program_local",
    "analyze_source",
]

#: Code -> (summary, severity) for every diagnostic this layer can emit.
CONTRACT_CODES: Dict[str, Tuple[str, Severity]] = {
    "ELS700": (
        "malformed contract directive or unreadable contract data file",
        Severity.ERROR,
    ),
    "ELS701": (
        "registered class does not implement its protocol",
        Severity.ERROR,
    ),
    "ELS702": (
        "implementation incompatible with its protocol contract",
        Severity.ERROR,
    ),
    "ELS703": (
        "non-ReproError exception escapes a public API function",
        Severity.ERROR,
    ),
    "ELS704": (
        "broad handler silently swallows a structured ReproError",
        Severity.ERROR,
    ),
    "ELS705": (
        "docstring 'Raises:' section drifts from raise behavior",
        Severity.WARNING,
    ),
    "ELS706": (
        "import-layering violation or module-level import cycle",
        Severity.ERROR,
    ),
    "ELS707": (
        "unacknowledged public API change against api-baseline.json",
        Severity.ERROR,
    ),
}

#: Module stems whose broad handlers are legitimate last-resort borders.
_CLI_STEMS = frozenset({"cli", "__main__"})


# ---------------------------------------------------------------------------
# The component-local half
# ---------------------------------------------------------------------------


def analyze_modules_local(
    modules: Sequence,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Component-sound contract diagnostics over parsed modules.

    ``modules`` is duck-typed (``path`` / ``source`` / ``tree`` /
    ``is_test_file``).  Test and bench files are skipped — their raise
    behavior and imports are fixture plumbing, not contracts.  When
    ``summary_sink`` is given, the escaping-exception sets are recorded
    as ``sink[path][qualname]["raises"]`` so the incremental cache can
    persist them.
    """
    return analyze_program_local(
        build_program(modules),
        max_passes=max_passes,
        summary_sink=summary_sink,
        manifest_path=manifest_path,
        baseline_path=baseline_path,
    )


def analyze_program_local(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """The component-local half over a :func:`build_program` index."""
    findings: List[Diagnostic] = []
    if not program.modules:
        return findings
    hierarchy = collect_hierarchy(program)
    summaries = compute_raise_summaries(program, hierarchy, max_passes)
    if summary_sink is not None:
        for minfo in program.modules:
            for function in minfo.functions:
                key = summary_key(minfo.path, function.qualname)
                summary_sink.setdefault(minfo.path, {}).setdefault(
                    function.qualname, {}
                )["raises"] = sorted(summaries.get(key, frozenset()))
    manifest: Optional[LayerManifest] = None
    try:
        manifest = load_manifest(manifest_path)
    except ManifestError:
        manifest = None  # the global half reports ELS700 once
    try:
        baseline = load_baseline(baseline_path)
    except BaselineError:
        baseline = None  # the global half reports ELS700 once
    for minfo in program.modules:
        _report_directives(minfo, findings)
        module_name = module_name_of(minfo.path)
        if module_name is None:
            continue
        public = _public_functions(minfo)
        _report_escapes(minfo, public, summaries, hierarchy, findings)
        _report_swallows(
            minfo, module_name, program, summaries, hierarchy, findings
        )
        _report_docstrings(minfo, public, summaries, hierarchy, findings)
        if manifest is not None:
            for lineno, message in check_layering(
                module_name, minfo.path, minfo.tree, manifest
            ):
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=lineno,
                        col=0,
                        code="ELS706",
                        severity=Severity.ERROR,
                        message=message,
                        hint=(
                            "move the import into the function that needs it "
                            "or restructure the tiers in layers.toml"
                        ),
                    )
                )
        if baseline is not None:
            _report_drift(minfo, module_name, baseline, findings)
    return findings


def _report_directives(minfo: ModuleInfo, findings: List[Diagnostic]) -> None:
    """ELS700: malformed or misplaced ``registers=`` directives."""
    for bad in minfo.malformed:
        if bad.family != "contracts":
            continue  # the other layers own their families
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=bad.line,
                col=bad.col,
                code="ELS700",
                severity=Severity.ERROR,
                message=f"malformed '# els:' directive: {bad.reason}",
                hint=(
                    "use '# els: registers=<ProtocolName>' on the registry "
                    "decorator's def line"
                ),
            )
        )
    for directive in minfo.directives:
        if directive.kind != "registers":
            continue
        if directive.line not in minfo.def_lines:
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=directive.line,
                    col=0,
                    code="ELS700",
                    severity=Severity.ERROR,
                    message=(
                        "misplaced '# els: registers=' directive: registry "
                        "declarations attach to a 'def' line"
                    ),
                    hint="move the directive onto the decorator function's def line",
                )
            )


def _public_functions(minfo: ModuleInfo) -> List:
    """Module-level functions exported through a static ``__all__``."""
    entry = extract_api(minfo.tree)
    if entry is None:
        return []
    exported = set(entry.all_names)
    return [
        function
        for function in minfo.functions
        if "." not in function.qualname and function.name in exported
    ]


def _report_escapes(
    minfo: ModuleInfo,
    public: List,
    summaries: Summaries,
    hierarchy: ExceptionHierarchy,
    findings: List[Diagnostic],
) -> None:
    """ELS703: unstructured exceptions escaping the public API."""
    for function in public:
        escaping = summaries.get(
            summary_key(minfo.path, function.qualname), frozenset()
        )
        offending = sorted(
            name
            for name in escaping
            if name in ("Exception", "BaseException")
            or (
                hierarchy.is_analyzed_class(name)
                and not hierarchy.is_repro_error(name)
            )
        )
        if not offending:
            continue
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=function.node.lineno,
                col=0,
                code="ELS703",
                severity=Severity.ERROR,
                message=(
                    f"public function '{function.qualname}' lets "
                    f"{', '.join(offending)} escape; the public API raises "
                    "ReproError subtypes"
                ),
                hint=(
                    "wrap the failure in the matching repro.errors type or "
                    "catch it internally"
                ),
            )
        )


def _report_swallows(
    minfo: ModuleInfo,
    module_name: str,
    program: Program,
    summaries: Summaries,
    hierarchy: ExceptionHierarchy,
    findings: List[Diagnostic],
) -> None:
    """ELS704: broad, silent handlers over provably structured failures."""
    if Path(minfo.path).stem in _CLI_STEMS:
        return
    for function in minfo.functions:
        enclosing = (
            function.qualname.rsplit(".", 1)[0]
            if "." in function.qualname
            else None
        )
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Try):
                continue
            raised = None
            for handler in node.handlers:
                if not handler_is_broad(handler, minfo):
                    continue
                if not handler_is_silent(handler):
                    continue
                if raised is None:
                    raised = try_body_raises(
                        node, program, minfo, enclosing, summaries, hierarchy
                    )
                swallowed = sorted(
                    name for name in raised if hierarchy.is_repro_error(name)
                )
                if not swallowed:
                    continue
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=handler.lineno,
                        col=0,
                        code="ELS704",
                        severity=Severity.ERROR,
                        message=(
                            f"broad handler in '{function.qualname}' silently "
                            f"swallows {', '.join(swallowed)}"
                        ),
                        hint=(
                            "catch the specific ReproError, or use/propagate "
                            "the bound exception"
                        ),
                    )
                )


_RAISES_ENTRY = re.compile(r"^\s+([A-Za-z_][\w.]*):")


def _documented_raises(node: ast.AST) -> Optional[List[str]]:
    """Terminal names of the docstring's ``Raises:`` entries.

    Returns ``None`` when the docstring has no ``Raises:`` section at
    all (which is different from an empty one).
    """
    docstring = ast.get_docstring(node)
    if docstring is None:
        return None
    lines = docstring.splitlines()
    for index, line in enumerate(lines):
        if line.strip() != "Raises:":
            continue
        names: List[str] = []
        for follower in lines[index + 1:]:
            if follower.strip() and not follower[0].isspace():
                break  # a new top-level section
            match = _RAISES_ENTRY.match(follower)
            if match:
                names.append(match.group(1).rsplit(".", 1)[-1])
        return names
    return None


def _report_docstrings(
    minfo: ModuleInfo,
    public: List,
    summaries: Summaries,
    hierarchy: ExceptionHierarchy,
    findings: List[Diagnostic],
) -> None:
    """ELS705 (warning): ``Raises:`` sections vs. computed behavior."""
    for function in public:
        raised_direct = sorted(
            name
            for name in direct_raises(function.node, minfo, hierarchy)
            if hierarchy.is_repro_error(name)
        )
        documented = _documented_raises(function.node)
        problems: List[str] = []
        if documented is None:
            if raised_direct:
                problems.append(
                    "raises " + ", ".join(raised_direct) + " but the "
                    "docstring has no 'Raises:' section"
                )
        else:
            for name in raised_direct:
                if not any(
                    hierarchy.is_subclass(name, doc) for doc in documented
                ):
                    problems.append(f"raises {name} which 'Raises:' omits")
            escaping = summaries.get(
                summary_key(minfo.path, function.qualname), frozenset()
            )
            for doc in documented:
                if not hierarchy.is_repro_error(doc):
                    continue
                if not any(
                    hierarchy.is_subclass(name, doc)
                    or hierarchy.is_subclass(doc, name)
                    for name in escaping
                ):
                    problems.append(
                        f"documents {doc} which the analysis never sees "
                        "escape"
                    )
        if not problems:
            continue
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=function.node.lineno,
                col=0,
                code="ELS705",
                severity=Severity.WARNING,
                message=(
                    f"docstring drift on '{function.qualname}': "
                    + "; ".join(problems)
                ),
                hint="update the 'Raises:' section to match the code",
            )
        )


def _report_drift(
    minfo: ModuleInfo,
    module_name: str,
    baseline: Dict[str, Dict[str, object]],
    findings: List[Diagnostic],
) -> None:
    """ELS707 (per module): the surface vs. the committed baseline."""
    entry = extract_api(minfo.tree)
    if entry is None and module_name not in baseline:
        return
    drifts = compare_module(module_name, entry, baseline)
    if not drifts:
        return
    findings.append(
        Diagnostic(
            file=minfo.path,
            line=entry.all_line if entry is not None else 1,
            col=0,
            code="ELS707",
            severity=Severity.ERROR,
            message=(
                f"public API of '{module_name}' drifted from the baseline: "
                + "; ".join(drifts)
            ),
            hint=(
                "acknowledge intentional changes with "
                "'python -m repro.lint.contracts.baseline'"
            ),
        )
    )


# ---------------------------------------------------------------------------
# The whole-set half
# ---------------------------------------------------------------------------


def analyze_modules_global(
    modules: Sequence,
    max_passes: int = 8,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Contract diagnostics that must see the whole file set at once."""
    return analyze_program_global(
        build_program(modules),
        max_passes=max_passes,
        manifest_path=manifest_path,
        baseline_path=baseline_path,
    )


def analyze_program_global(
    program: Program,
    max_passes: int = 8,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """The whole-set half over a :func:`build_program` index."""
    del max_passes  # conformance and cycles need no fixpoint
    findings: List[Diagnostic] = []
    if not program.modules:
        return findings
    manifest_file = (
        str(DEFAULT_MANIFEST_PATH) if manifest_path is None else manifest_path
    )
    try:
        load_manifest(manifest_path)
    except ManifestError as exc:
        findings.append(
            Diagnostic(
                file=manifest_file,
                line=1,
                col=0,
                code="ELS700",
                severity=Severity.ERROR,
                message=f"unusable layering manifest: {exc}",
                hint="fix layers.toml; see docs/ARCHITECTURE.md for the format",
            )
        )
    baseline = None
    baseline_file = (
        str(DEFAULT_BASELINE_PATH) if baseline_path is None else baseline_path
    )
    try:
        baseline = load_baseline(baseline_path)
    except BaselineError as exc:
        findings.append(
            Diagnostic(
                file=baseline_file,
                line=1,
                col=0,
                code="ELS700",
                severity=Severity.ERROR,
                message=f"unusable API baseline: {exc}",
                hint=(
                    "regenerate it with "
                    "'python -m repro.lint.contracts.baseline'"
                ),
            )
        )
    findings.extend(check_protocols(program))
    named = [
        (name, minfo.path, minfo.tree)
        for minfo in program.modules
        for name in [module_name_of(minfo.path)]
        if name is not None
    ]
    for cycle in find_cycles(named):
        anchor = min(
            path for name, path, _tree in named if name in set(cycle)
        )
        findings.append(
            Diagnostic(
                file=anchor,
                line=1,
                col=0,
                code="ELS706",
                severity=Severity.ERROR,
                message=(
                    "module-level import cycle: " + " -> ".join(cycle)
                ),
                hint="break the cycle with a function-level import",
            )
        )
    if baseline is not None:
        analyzed_names = {name for name, _path, _tree in named}
        if _PACKAGE_NAME in analyzed_names:
            missing = sorted(set(baseline) - analyzed_names)
            if missing:
                anchor = next(
                    path
                    for name, path, _tree in named
                    if name == _PACKAGE_NAME
                )
                findings.append(
                    Diagnostic(
                        file=anchor,
                        line=1,
                        col=0,
                        code="ELS707",
                        severity=Severity.ERROR,
                        message=(
                            "api-baseline.json records modules the package "
                            "no longer contains: " + ", ".join(missing)
                        ),
                        hint=(
                            "acknowledge removals with "
                            "'python -m repro.lint.contracts.baseline'"
                        ),
                    )
                )
    return findings


_PACKAGE_NAME = "repro"


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------


def analyze_modules(
    modules: Sequence,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """The full contract layer: the local and global halves combined."""
    return analyze_program(
        build_program(modules),
        max_passes=max_passes,
        summary_sink=summary_sink,
        manifest_path=manifest_path,
        baseline_path=baseline_path,
    )


def analyze_program(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Both halves over one :func:`build_program` index."""
    findings = analyze_program_local(
        program,
        max_passes=max_passes,
        summary_sink=summary_sink,
        manifest_path=manifest_path,
        baseline_path=baseline_path,
    )
    findings.extend(
        analyze_program_global(
            program,
            max_passes=max_passes,
            manifest_path=manifest_path,
            baseline_path=baseline_path,
        )
    )
    return findings


def analyze_source(
    source: str,
    path: str = "<memory>",
    manifest_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Convenience wrapper: analyze one in-memory module."""

    class _SourceModule:
        def __init__(self) -> None:
            self.path = path
            self.source = source
            self.is_test_file = False
            try:
                self.tree: Optional[ast.Module] = ast.parse(source)
            except SyntaxError:
                self.tree = None

    return analyze_modules(
        [_SourceModule()],
        manifest_path=manifest_path,
        baseline_path=baseline_path,
    )
