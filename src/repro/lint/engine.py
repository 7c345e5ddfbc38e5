"""Layer-1 lint engine: an ``ast``-walking rule framework (pure stdlib).

The engine is deliberately tiny: a rule is a class with a stable ``code``,
a default severity, a fix hint, and a ``check`` method that walks a parsed
:class:`ModuleUnderLint` and yields :class:`~repro.lint.diagnostics.Diagnostic`
findings.  Rules self-register via the :func:`register` decorator, so adding
a rule is one class in :mod:`repro.lint.rules_code` — nothing else to wire.

Two file-level policies the rules share:

* **Test exemption** — rules with ``library_only = True`` skip files named
  ``test_*``, ``conftest.py``, and ``bench_*``: tests legitimately assert
  exact float equalities and build throwaway snippets that library code
  must not contain.
* **Syntax errors** — a file that does not parse yields the reserved
  ``ELS100`` diagnostic instead of crashing the run.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from ..errors import LintError
from .diagnostics import Diagnostic, Severity, filter_diagnostics

__all__ = [
    "ModuleUnderLint",
    "LintRule",
    "register",
    "all_rules",
    "extract_noqa",
    "is_test_path",
    "known_codes",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]

#: Reserved code for files that fail to parse.
SYNTAX_ERROR_CODE = "ELS100"

#: Reserved code for an ``els: noqa`` suppression that matched nothing.
UNUSED_SUPPRESSION_CODE = "ELS199"

#: File-name stems that identify test/bench scaffolding (exempt from
#: ``library_only`` rules).
_TEST_PREFIXES = ("test_", "bench_")
_TEST_NAMES = ("conftest",)


def is_test_path(path: str) -> bool:
    """True for ``test_*``, ``bench_*``, and ``conftest`` file paths."""
    stem = Path(path).stem
    return stem.startswith(_TEST_PREFIXES) or stem in _TEST_NAMES


@dataclass(frozen=True)
class ModuleUnderLint:
    """One parsed source file handed to every rule.

    Attributes:
        path: The path the file was read from (or a synthetic name).
        source: The raw source text.
        tree: The parsed ``ast.Module``.
    """

    path: str
    source: str
    tree: ast.Module

    @property
    def stem(self) -> str:
        """File name without extension (drives per-file rule policies)."""
        return Path(self.path).stem

    @property
    def is_test_file(self) -> bool:
        """True for ``test_*``, ``bench_*``, and ``conftest`` files."""
        return is_test_path(self.path)


class LintRule:
    """Base class for layer-1 rules.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes:
        code: Stable ``ELS1xx`` identifier.
        name: Short kebab-case rule name (shows up in docs).
        severity: Default severity of the rule's findings.
        description: One-line summary for ``docs/LINT.md`` and ``--help``.
        hint: Default fix hint attached to findings.
        library_only: Skip test/bench/conftest files when True.
    """

    code: str = "ELS1XX"
    name: str = "unnamed-rule"
    severity: Severity = Severity.ERROR
    description: str = ""
    hint: Optional[str] = None
    library_only: bool = False

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        """Yield findings for one module (subclasses override)."""
        raise NotImplementedError

    def diagnostic(
        self,
        module: ModuleUnderLint,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a finding anchored at an AST node of the module."""
        return Diagnostic(
            code=self.code,
            message=message,
            severity=severity or self.severity,
            file=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            hint=hint if hint is not None else self.hint,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to the global registry.

    Raises:
        LintError: on a duplicate rule code — codes are the stable public
            interface and must stay unique.
    """
    code = rule_class.code
    if code in _REGISTRY and _REGISTRY[code] is not rule_class:
        raise LintError(f"duplicate lint rule code {code!r}")
    _REGISTRY[code] = rule_class
    return rule_class


def all_rules() -> Tuple[LintRule, ...]:
    """Fresh instances of every registered rule, ordered by code."""
    # Importing the rules module populates the registry on first use.
    from . import rules_code  # noqa: F401  (import for side effect)

    return tuple(_REGISTRY[code]() for code in sorted(_REGISTRY))


def known_codes() -> Tuple[str, ...]:
    """Every diagnostic code any layer can emit (drives CLI validation)."""
    from .concurrency import CONCURRENCY_CODES
    from .contracts import CONTRACT_CODES
    from .dataflow import DATAFLOW_CODES
    from .effects import EFFECT_CODES
    from .perf import PERF_CODES
    from .semantic import SEMANTIC_CODES

    codes = {SYNTAX_ERROR_CODE, UNUSED_SUPPRESSION_CODE}
    codes.update(rule.code for rule in all_rules())
    codes.update(SEMANTIC_CODES)
    codes.update(DATAFLOW_CODES)
    codes.update(EFFECT_CODES)
    codes.update(CONCURRENCY_CODES)
    codes.update(PERF_CODES)
    codes.update(CONTRACT_CODES)
    return tuple(sorted(codes))


def _parse_failure(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        code=SYNTAX_ERROR_CODE,
        message=f"file does not parse: {exc.msg}",
        severity=Severity.ERROR,
        file=path,
        line=exc.lineno or 0,
        col=exc.offset or 0,
        hint="fix the syntax error; no other rule ran on this file",
    )


def _rule_findings(module: ModuleUnderLint) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for rule in all_rules():
        if rule.library_only and module.is_test_file:
            continue
        findings.extend(rule.check(module))
    return findings


def extract_noqa(source: str) -> List[Tuple[int, Optional[Tuple[str, ...]]]]:
    """The ``(line, codes-or-None)`` noqa directives of one source file.

    The shape the incremental cache persists, so warm runs apply
    suppressions without re-tokenizing the source.
    """
    from .dataflow.annotations import parse_directives

    return _noqa_rows(parse_directives(source)[0])


def _noqa_rows(directives) -> List[Tuple[int, Optional[Tuple[str, ...]]]]:
    """:func:`extract_noqa` over already-parsed directives."""
    return [
        (d.line, None if d.codes is None else tuple(sorted(d.codes)))
        for d in directives
        if d.kind == "noqa"
    ]


def _apply_suppressions(
    findings: List[Diagnostic],
    noqa_by_file: Dict[str, Sequence[Tuple[int, Optional[Tuple[str, ...]]]]],
) -> List[Diagnostic]:
    """Drop findings matched by line-scoped ``# els: noqa`` directives.

    ``noqa_by_file`` maps path -> :func:`extract_noqa` rows.  A
    suppression that matches no finding is itself reported (ELS199) —
    stale suppressions hide future regressions.  The ELS199 findings are
    not themselves suppressible, otherwise a blanket ``noqa`` could never
    be reported as unused.
    """
    kept: List[Diagnostic] = []
    suppressions = {}  # (path, line) -> [codes-or-None, used?]
    for path, rows in noqa_by_file.items():
        for line, codes in rows:
            suppressions[(path, line)] = [codes, False]
    if not suppressions:
        return findings
    for diagnostic in findings:
        entry = suppressions.get((diagnostic.file, diagnostic.line))
        if entry is not None:
            codes = entry[0]
            if codes is None or diagnostic.code in codes:
                entry[1] = True
                continue
        kept.append(diagnostic)
    for (path, line), (codes, used) in suppressions.items():
        if used:
            continue
        scope = "all codes" if codes is None else ", ".join(sorted(codes))
        kept.append(
            Diagnostic(
                code=UNUSED_SUPPRESSION_CODE,
                message=f"unused suppression ({scope}): no diagnostic on this line",
                severity=Severity.WARNING,
                file=path,
                line=line,
                col=0,
                hint="remove the stale '# els: noqa' comment",
            )
        )
    return kept


def _dedupe(findings: Iterable[Diagnostic]) -> List[Diagnostic]:
    seen = set()
    result: List[Diagnostic] = []
    for diagnostic in findings:
        key = (diagnostic.file, diagnostic.line, diagnostic.col, diagnostic.code)
        if key in seen:
            continue
        seen.add(key)
        result.append(diagnostic)
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    dataflow: bool = False,
    effects: bool = False,
    concurrency: bool = False,
    perf: bool = False,
    contracts: bool = False,
) -> List[Diagnostic]:
    """Lint one source string and return its (filtered, sorted) findings.

    With ``dataflow=True`` the ELS3xx quantity-dimension pass also runs;
    with ``effects=True`` the ELS4xx effect-and-determinism pass runs;
    with ``concurrency=True`` the ELS5xx concurrency-safety pass runs;
    with ``perf=True`` the ELS6xx hot-path performance pass runs;
    with ``contracts=True`` the ELS7xx contract-and-architecture pass
    runs (function summaries stay within this one module).
    """
    from .dataflow.annotations import parse_directives
    from .dataflow.summaries import build_program

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return filter_diagnostics([_parse_failure(path, exc)], select, ignore)
    module = ModuleUnderLint(path=path, source=source, tree=tree)
    directives = parse_directives(source)
    findings = _rule_findings(module)
    passes = _enabled_passes(dataflow, effects, concurrency, perf, contracts)
    if passes:
        program = build_program([module], {path: directives})
        findings.extend(_run_passes(passes, program))
    findings = _apply_suppressions(
        _dedupe(findings), {path: _noqa_rows(directives[0])}
    )
    return filter_diagnostics(findings, select, ignore)


#: Pass name -> (module, pass body) of each layer's ``analyze_program``,
#: imported lazily.  ``contracts.local`` is the contracts layer's
#: component-sound half and ``contracts.global`` its whole-set half (see
#: :func:`_cached_analysis`).  Pass names double as the cache's pass-key
#: components, so their spelling is part of the cache contract.
_PASS_BODIES = {
    "dataflow": ("dataflow.analysis", "analyze_program"),
    "effects": ("effects.analysis", "analyze_program"),
    "concurrency": ("concurrency.analysis", "analyze_program"),
    "perf": ("perf.analysis", "analyze_program"),
    "contracts": ("contracts.analysis", "analyze_program"),
    "contracts.local": ("contracts.analysis", "analyze_program_local"),
    "contracts.global": ("contracts.analysis", "analyze_program_global"),
}


def _pass_driver(passname: str):
    module, body = _PASS_BODIES[passname]
    return getattr(importlib.import_module(f".{module}", __package__), body)


#: Cache pass tag of the contracts layer's whole-set half.
_CONTRACTS_GLOBAL_TAG = "contracts.global"


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic ``.py`` file stream.

    Raises:
        LintError: for a path that does not exist or a file that is not a
            Python source file (usage errors, exit code 2 at the CLI).
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py"))
        elif path.is_file():
            if path.suffix != ".py":
                raise LintError(f"not a Python source file: {path}")
            yield path
        else:
            raise LintError(f"no such file or directory: {path}")


@dataclass
class _FileRecord:
    """Everything stage 1 (per-file) learned about one file.

    ``tree`` is kept only on the serial fresh-parse path — the whole
    point of the record is that warm cache hits carry everything the
    engine needs *without* a tree, and later stages parse lazily.
    ``directives`` (the full ``(directives, malformed)`` lists) is set by
    stage 1 and, for cache hits, on first use: each file is tokenized at
    most once per run.
    """

    path: str
    source: str
    digest: str
    parsed_ok: bool
    findings: List[Diagnostic]
    noqa: List[Tuple[int, Optional[Tuple[str, ...]]]]
    defined: Tuple[str, ...]
    referenced: Tuple[str, ...]
    tree: Optional[ast.Module] = None
    from_cache: bool = False
    directives: Optional[Tuple[List, List]] = None

    def analysis_module(self) -> ModuleUnderLint:
        """A :class:`ModuleUnderLint`, parsing now if stage 1 did not."""
        if self.tree is None:
            self.tree = ast.parse(self.source, filename=self.path)
        return ModuleUnderLint(
            path=self.path, source=self.source, tree=self.tree
        )

    def directive_lists(self) -> Tuple[List, List]:
        """The file's ``(directives, malformed)``, tokenizing on first use."""
        if self.directives is None:
            from .dataflow.annotations import parse_directives

            self.directives = parse_directives(self.source)
        return self.directives


def _read_file(path_str: str) -> Tuple[str, str]:
    """Read one file; returns ``(source, content-digest)``.

    Raises:
        LintError: when the file cannot be read.
    """
    from .cache import content_digest

    try:
        data = Path(path_str).read_bytes()
    except OSError as exc:
        raise LintError(f"cannot read {path_str}: {exc}") from exc
    return data.decode("utf-8"), content_digest(data)


def _examine_file(path_str: str, source: str, digest: str) -> _FileRecord:
    """Parse, rule-check, tokenize, and interface-index one file (stage 1
    miss)."""
    from .cache import module_interface
    from .dataflow.annotations import parse_directives

    directives = parse_directives(source)
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as exc:
        return _FileRecord(
            path=path_str,
            source=source,
            digest=digest,
            parsed_ok=False,
            findings=[_parse_failure(path_str, exc)],
            noqa=_noqa_rows(directives[0]),
            defined=(),
            referenced=(),
            directives=directives,
        )
    module = ModuleUnderLint(path=path_str, source=source, tree=tree)
    defined, referenced = module_interface(tree)
    return _FileRecord(
        path=path_str,
        source=source,
        digest=digest,
        parsed_ok=True,
        findings=_rule_findings(module),
        noqa=_noqa_rows(directives[0]),
        defined=tuple(defined),
        referenced=tuple(referenced),
        tree=tree,
        directives=directives,
    )


def _file_worker(item: Tuple[str, str, str]) -> _FileRecord:
    """Pool wrapper around :func:`_examine_file` (tree and source dropped:
    ASTs are large to pickle, the parent holds the source, and
    dirty-component analysis re-parses on demand)."""
    path_str, source, digest = item
    record = _examine_file(path_str, source, digest)
    record.tree = None
    record.source = ""
    return record


def _pool_context():
    """A fork-preferred multiprocessing context (same policy as the
    evaluation harness): fork inherits the populated rule registry."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def _resolve_jobs(jobs: int) -> int:
    """``0`` means one job per CPU; negatives are usage errors."""
    if jobs == 0:
        import os

        return os.cpu_count() or 1
    if jobs < 0:
        raise LintError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _enabled_passes(
    dataflow: bool,
    effects: bool,
    concurrency: bool,
    perf: bool,
    contracts: bool,
) -> List[str]:
    names = []
    if dataflow:
        names.append("dataflow")
    if effects:
        names.append("effects")
    if concurrency:
        names.append("concurrency")
    if perf:
        names.append("perf")
    if contracts:
        names.append("contracts")
    return names


def _run_passes(
    passes: Sequence[str], program, summary_sink=None
) -> List[Diagnostic]:
    """Every enabled pass body over one shared program index."""
    findings: List[Diagnostic] = []
    for passname in passes:
        driver = _pass_driver(passname)
        findings.extend(driver(program, summary_sink=summary_sink))
    return findings


def _program_of(records: Sequence[_FileRecord]):
    """The shared front end (:func:`~repro.lint.dataflow.summaries.
    build_program`) over parsed records, reusing their directives."""
    from .dataflow.summaries import build_program

    return build_program(
        [record.analysis_module() for record in records],
        {record.path: record.directive_lists() for record in records},
    )


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    dataflow: bool = False,
    effects: bool = False,
    concurrency: bool = False,
    jobs: int = 1,
    perf: bool = False,
    contracts: bool = False,
    cache=None,
) -> List[Diagnostic]:
    """Lint files and directory trees; returns all findings, sorted.

    With ``dataflow=True`` the ELS3xx pass runs over the *whole* file set
    at once, so function summaries propagate across modules; the same
    holds for the ELS4xx effect pass under ``effects=True``, the ELS5xx
    concurrency pass under ``concurrency=True``, the ELS6xx
    performance pass under ``perf=True``, and the ELS7xx
    contract-and-architecture pass under ``contracts=True``.  With ``jobs > 1`` per-file
    reading/parsing/rule-checking fans out over a process pool — the
    file list is sorted and ``pool.map`` preserves order, so output is
    byte-identical to a serial run; ``jobs=0`` means one job per CPU.

    ``cache`` is an optional :class:`repro.lint.cache.LintCache`.  With a
    cache, per-file results are reused when file bytes and the rule set
    are unchanged, and the interprocedural passes run per dependency
    component with unchanged components replayed from cache — the output
    is byte-identical to an uncached run, only faster.

    Raises:
        LintError: for unusable paths (see :func:`iter_python_files`),
            unreadable files, or negative ``jobs``.
    """
    jobs = _resolve_jobs(jobs)
    file_paths = [str(p) for p in iter_python_files(paths)]
    records: Dict[str, _FileRecord] = {}
    pending: List[Tuple[str, str, str]] = []
    for path_str in file_paths:
        source, digest = _read_file(path_str)
        entry = cache.load_file(path_str, digest) if cache is not None else None
        if entry is not None:
            records[path_str] = _FileRecord(
                path=path_str,
                source=source,
                digest=digest,
                parsed_ok=entry.parsed_ok,
                findings=list(entry.findings),
                noqa=list(entry.noqa),
                defined=entry.defined,
                referenced=entry.referenced,
                from_cache=True,
            )
        else:
            pending.append((path_str, source, digest))
    if jobs > 1 and len(pending) > 1:
        context = _pool_context()
        with context.Pool(processes=min(jobs, len(pending))) as pool:
            examined = pool.map(_file_worker, pending)
        for (path_str, source, _), record in zip(pending, examined):
            record.source = source
            records[path_str] = record
    else:
        for path_str, source, digest in pending:
            records[path_str] = _examine_file(path_str, source, digest)
    if cache is not None:
        from .cache import FileEntry

        for path_str, _, _ in pending:
            record = records[path_str]
            cache.store_file(
                FileEntry(
                    path=record.path,
                    digest=record.digest,
                    parsed_ok=record.parsed_ok,
                    findings=tuple(record.findings),
                    noqa=tuple(record.noqa),
                    defined=record.defined,
                    referenced=record.referenced,
                )
            )
    findings: List[Diagnostic] = []
    for path_str in file_paths:
        findings.extend(records[path_str].findings)
    passes = _enabled_passes(dataflow, effects, concurrency, perf, contracts)
    if passes:
        if cache is not None:
            findings.extend(
                _cached_analysis(cache, passes, file_paths, records)
            )
        else:
            program = _program_of([
                records[path_str]
                for path_str in file_paths
                if records[path_str].parsed_ok
            ])
            findings.extend(_run_passes(passes, program))
    noqa_by_file = {
        path_str: records[path_str].noqa for path_str in file_paths
    }
    findings = _apply_suppressions(_dedupe(findings), noqa_by_file)
    return filter_diagnostics(findings, select, ignore)


def _cached_analysis(
    cache,
    passes: Sequence[str],
    file_paths: Sequence[str],
    records: Dict[str, _FileRecord],
) -> List[Diagnostic]:
    """Run the interprocedural passes per dependency component.

    Unchanged components replay their cached findings; dirty components
    are analyzed in isolation — sound because a component closes over
    every shared-name channel the analyses can see through (see
    :mod:`repro.lint.cache`), so analyzing it alone equals the
    whole-program run restricted to its members.

    The contracts layer is the one exception: its ``registers=``
    directive and whole-graph rules (protocol conformance, import
    cycles, removed-module drift) are invisible to the component
    interface, so only its *local* half runs per component; the global
    half runs once over every eligible file, cached under its own
    pseudo-component entry keyed by the full member list.  When one
    component holds every eligible file, the global half reuses that
    component's program index.
    """
    from .cache import dependency_components

    eligible = [
        path_str
        for path_str in file_paths
        if records[path_str].parsed_ok and not is_test_path(path_str)
    ]
    interfaces = {
        path_str: (records[path_str].defined, records[path_str].referenced)
        for path_str in eligible
    }
    # Component-sound pass list: the contracts pass contributes only its
    # local half per component.
    component_passes = [
        "contracts.local" if name == "contracts" else name for name in passes
    ]
    whole_set_program = None
    findings: List[Diagnostic] = []
    for component in dependency_components(interfaces):
        members = [(p, records[p].digest) for p in component]
        cached = cache.load_component(members, passes)
        if cached is not None:
            findings.extend(cached)
            continue
        program = _program_of([records[p] for p in component])
        sink: Dict[str, Dict[str, Dict[str, object]]] = {}
        component_findings = _run_passes(
            component_passes, program, summary_sink=sink
        )
        cache.store_component(members, passes, component_findings, sink)
        findings.extend(component_findings)
        if component == eligible:
            whole_set_program = program
        del program  # only the whole-set index outlives its component
    if "contracts" in passes and eligible:
        all_members = [(p, records[p].digest) for p in eligible]
        cached = cache.load_component(all_members, [_CONTRACTS_GLOBAL_TAG])
        if cached is not None:
            findings.extend(cached)
        else:
            if whole_set_program is None:
                whole_set_program = _program_of([records[p] for p in eligible])
            global_findings = _pass_driver(_CONTRACTS_GLOBAL_TAG)(
                whole_set_program
            )
            cache.store_component(
                all_members, [_CONTRACTS_GLOBAL_TAG], global_findings, {}
            )
            findings.extend(global_findings)
    return findings
