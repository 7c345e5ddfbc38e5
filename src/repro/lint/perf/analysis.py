"""The ELS6xx performance-hazard diagnostics.

The driver (:func:`analyze_program`) mirrors the ELS3xx–ELS5xx layers:
over the shared index of
:func:`repro.lint.dataflow.summaries.build_program`, run the hotness
fixpoint (:mod:`repro.lint.perf.hotness`), then walk each **hot**
function body once:

========  ==========================================================
ELS600    malformed or misplaced ``# els: hot=`` directive
ELS601    row-at-a-time iteration over ColumnBlock data where
          vectorized block ops exist
ELS602    membership test against a list inside a loop (quadratic)
ELS603    string/sequence ``+``-accumulation inside a loop (quadratic)
ELS604    content digest / fingerprint recomputed inside a loop body
ELS605    allocation-heavy construct (lambda, nested ``def``,
          ``re.compile``, ``ast.parse``, ``copy.deepcopy``) in a loop
ELS606    aggregation over a materialized list comprehension (warning)
ELS607    redundant or stale ``# els: hot=`` pin (warning)
========  ==========================================================

Every loop rule is *gated on hotness*: the same construct in a CLI
parser or a report writer is left alone, because the cost only matters
where it multiplies by rows, blocks, or candidate plans.  Like the other
interprocedural layers the pass is optimistic — a report only fires on
facts the walker actually proved (a list bound in this function, a
digest call by name, a loop the statement textually sits in), so an
unresolvable expression silences a rule rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dataflow.summaries import FunctionInfo, ModuleInfo, Program, build_program
from ..diagnostics import Diagnostic, Severity
from .hotness import HotIndex, compute_hotness, heuristic_root_reason, hot_pin

__all__ = ["PERF_CODES", "analyze_modules", "analyze_program", "analyze_source"]

#: Code -> (summary, severity) for every diagnostic this layer can emit.
PERF_CODES: Dict[str, Tuple[str, Severity]] = {
    "ELS600": ("malformed or misplaced '# els: hot=' directive", Severity.ERROR),
    "ELS601": (
        "row-at-a-time iteration over ColumnBlock data on a hot path",
        Severity.ERROR,
    ),
    "ELS602": (
        "membership test against a list inside a hot loop (quadratic)",
        Severity.ERROR,
    ),
    "ELS603": (
        "string/sequence +-accumulation inside a hot loop (quadratic)",
        Severity.ERROR,
    ),
    "ELS604": (
        "content digest or fingerprint recomputed inside a hot loop",
        Severity.ERROR,
    ),
    "ELS605": (
        "allocation-heavy construct inside a hot loop",
        Severity.ERROR,
    ),
    "ELS606": (
        "aggregation over a materialized list comprehension on a hot path",
        Severity.WARNING,
    ),
    "ELS607": (
        "redundant or stale '# els: hot=' pin",
        Severity.WARNING,
    ),
}

#: Terminal call names that compute a content digest outright.
_DIGEST_EXACT = frozenset({"blake2b", "sha1", "sha256", "sha512", "md5"})

#: Substrings that mark a call as digest/fingerprint computation.
_DIGEST_TOKENS = ("digest", "fingerprint")

#: Builtins that consume an iterable and reduce it to one value.
_AGGREGATORS = frozenset({"sum", "min", "max", "any", "all", "sorted"})

#: Functions exempt from ELS601: their *contract* is row conversion.
_ROW_CONVERTER_NAMES = frozenset({"rows", "tuples", "_materialize"})

#: Value tags the ELS602/ELS603 environment tracks.
_LIST_CALLS = frozenset({"list", "sorted"})


def analyze_modules(
    modules: Sequence,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """Run the performance analysis over parsed modules.

    ``modules`` is duck-typed (``path`` / ``source`` / ``tree`` /
    ``is_test_file`` — the engine's ``ModuleUnderLint`` fits).  Test and
    bench files are skipped: a quadratic loop in a fixture builder costs
    nothing per query.  ``max_passes`` is accepted for driver symmetry
    with the other layers; the two-valued hotness lattice converges in
    one worklist pass regardless.

    When ``summary_sink`` is given, the hotness verdicts are recorded
    into it as ``sink[path][qualname]["hot"]`` (``{"hot": bool,
    "origin": qualname-or-None}``) — this is how the incremental lint
    cache persists per-module interprocedural summaries.
    """
    return analyze_program(build_program(modules), max_passes, summary_sink)


def analyze_program(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """The ELS6xx pass over an already-built :func:`build_program` index."""
    del max_passes  # two-valued lattice: the worklist always converges
    findings: List[Diagnostic] = []
    if not program.modules:
        return findings
    index = compute_hotness(program)
    if summary_sink is not None:
        for minfo in program.modules:
            for function in minfo.functions:
                summary_sink.setdefault(minfo.path, {}).setdefault(
                    function.qualname, {}
                )["hot"] = {
                    "hot": index.is_hot(function),
                    "origin": index.origin(function),
                }
    for minfo in program.modules:
        _report_directives(minfo, findings)
        _report_pins(minfo, index, findings)
        for function in minfo.functions:
            if not index.is_hot(function):
                continue
            origin = index.origin(function)
            suffix = (
                ""
                if origin is None or origin == function.qualname
                else f" (hot via '{origin}')"
            )
            _HotBodyWalker(minfo, function, suffix, findings).run()
    return findings


def analyze_source(source: str, path: str = "<memory>") -> List[Diagnostic]:
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

    return analyze_modules([_SourceModule()])


# ---------------------------------------------------------------------------
# ELS600 / ELS607 — directives
# ---------------------------------------------------------------------------


def _report_directives(minfo: ModuleInfo, findings: List[Diagnostic]) -> None:
    for bad in minfo.malformed:
        if bad.family != "perf":
            continue  # ELS300/ELS400/ELS500 own the other families
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=bad.line,
                col=bad.col,
                code="ELS600",
                severity=Severity.ERROR,
                message=f"malformed '# els:' directive: {bad.reason}",
                hint="use '# els: hot=yes' or '# els: hot=no' on a def line",
            )
        )
    for directive in minfo.directives:
        if directive.kind != "hot":
            continue
        if directive.line not in minfo.def_lines:
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=directive.line,
                    col=0,
                    code="ELS600",
                    severity=Severity.ERROR,
                    message=(
                        "misplaced '# els: hot=' directive: hotness pins "
                        "attach to a 'def' line"
                    ),
                    hint="move the directive onto the function's def line",
                )
            )


def _report_pins(
    minfo: ModuleInfo, index: HotIndex, findings: List[Diagnostic]
) -> None:
    """ELS607: pins that restate what the analysis concludes anyway."""
    for function in minfo.functions:
        pin = hot_pin(function)
        if pin is None:
            continue
        if pin is True:
            reason = heuristic_root_reason(function)
            if reason is not None:
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=function.node.lineno,
                        col=function.node.col_offset,
                        code="ELS607",
                        severity=Severity.WARNING,
                        message=(
                            f"redundant 'hot=yes' pin on "
                            f"'{function.qualname}': the built-in "
                            f"heuristics already mark it hot ({reason})"
                        ),
                        hint="remove the pin; it restates the default",
                    )
                )
        elif id(function) not in index.natural:
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=function.node.lineno,
                    col=function.node.col_offset,
                    code="ELS607",
                    severity=Severity.WARNING,
                    message=(
                        f"stale 'hot=no' pin on '{function.qualname}': "
                        "nothing marks this function hot, so the pin "
                        "suppresses no analysis"
                    ),
                    hint="remove the stale pin",
                )
            )


# ---------------------------------------------------------------------------
# ELS601–ELS606 — hot-body rules
# ---------------------------------------------------------------------------


class _HotBodyWalker:
    """One pass over a hot function body, tracking loops and value tags.

    The environment is a textual-order name -> tag map ("list" / "str" /
    "tuple") seeded from literal and constructor assignments.  Loop depth
    gates the in-loop rules; names assigned anywhere inside the current
    loop are excluded from the loop-invariant rules (ELS602), so a list
    rebuilt per iteration is never misreported as an invariant scan.
    """

    def __init__(
        self,
        minfo: ModuleInfo,
        function: FunctionInfo,
        origin_suffix: str,
        findings: List[Diagnostic],
    ) -> None:
        self.minfo = minfo
        self.function = function
        self.origin_suffix = origin_suffix
        self.findings = findings
        self._env: Dict[str, str] = {}
        #: Names bound from a ``<block>.column(...)`` call (ELS601).
        self._column_names: Set[str] = set()
        self._loop_assigned: List[Set[str]] = []
        #: (code, line) already reported — a chained expression such as
        #: ``blake2b(...).hexdigest()`` is one hazard, not two.
        self._reported: Set[Tuple[str, int]] = set()

    # -- reporting -----------------------------------------------------------

    def _report(
        self,
        node: ast.AST,
        code: str,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        summary, severity = PERF_CODES[code]
        del summary
        line = getattr(node, "lineno", self.function.node.lineno)
        if (code, line) in self._reported:
            return
        self._reported.add((code, line))
        self.findings.append(
            Diagnostic(
                file=self.minfo.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                severity=severity,
                message=message + self.origin_suffix,
                hint=hint,
            )
        )

    # -- environment ---------------------------------------------------------

    def _tag_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, ast.Tuple):
            return "tuple"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "str"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _LIST_CALLS:
                return "list"
            if node.func.id == "tuple":
                return "tuple"
            if node.func.id == "str":
                return "str"
        if isinstance(node, ast.Name):
            return self._env.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._tag_of(node.left)
        return None

    def _bind(self, name: str, value: ast.expr) -> None:
        tag = self._tag_of(value)
        if tag is None:
            self._env.pop(name, None)
        else:
            self._env[name] = tag
        if _is_column_gather(value):
            self._column_names.add(name)
        else:
            self._column_names.discard(name)

    # -- driver --------------------------------------------------------------

    def run(self) -> None:
        self._visit_statements(getattr(self.function.node, "body", []))

    def _visit_statements(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self._visit_statement(statement)

    @property
    def _in_loop(self) -> bool:
        return bool(self._loop_assigned)

    def _visit_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self._in_loop:
                self._report(
                    statement,
                    "ELS605",
                    f"nested 'def {statement.name}' re-created every "
                    "iteration of a hot loop",
                    hint="hoist the function out of the loop",
                )
            return  # nested scopes are opaque beyond the allocation itself
        if isinstance(statement, ast.ClassDef):
            return
        if isinstance(statement, ast.Assign):
            self._scan_expression(statement.value)
            self._check_quadratic_rebind(statement)
            for target in statement.targets:
                self._bind_target(target, statement.value)
            return
        if isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._scan_expression(statement.value)
                self._bind_target(statement.target, statement.value)
            return
        if isinstance(statement, ast.AugAssign):
            self._scan_expression(statement.value)
            self._check_aug_accumulation(statement)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._scan_expression(statement.iter)
            self._check_row_iteration(statement)
            self._enter_loop(statement)
            if isinstance(statement.target, ast.Name):
                self._env.pop(statement.target.id, None)
                self._column_names.discard(statement.target.id)
            self._visit_statements(statement.body)
            self._visit_statements(statement.orelse)
            self._exit_loop()
            return
        if isinstance(statement, ast.While):
            self._scan_expression(statement.test)
            self._enter_loop(statement)
            self._visit_statements(statement.body)
            self._visit_statements(statement.orelse)
            self._exit_loop()
            return
        if isinstance(statement, (ast.If,)):
            self._scan_expression(statement.test)
            self._visit_statements(statement.body)
            self._visit_statements(statement.orelse)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._scan_expression(item.context_expr)
            self._visit_statements(statement.body)
            return
        if isinstance(statement, ast.Try):
            self._visit_statements(statement.body)
            for handler in statement.handlers:
                self._visit_statements(handler.body)
            self._visit_statements(statement.orelse)
            self._visit_statements(statement.finalbody)
            return
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._scan_expression(child)

    def _enter_loop(self, loop: ast.stmt) -> None:
        assigned: Set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.add(node.id)
        self._loop_assigned.append(assigned)

    def _exit_loop(self) -> None:
        self._loop_assigned.pop()

    def _bind_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._env.pop(element.id, None)
                    self._column_names.discard(element.id)

    # -- rules ---------------------------------------------------------------

    def _check_row_iteration(self, statement) -> None:
        """ELS601: per-row loops over ColumnBlock data."""
        if self.function.name in _ROW_CONVERTER_NAMES:
            return  # converting representation is these methods' contract
        iterator = statement.iter
        if (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Attribute)
            and iterator.func.attr == "tuples"
            and not iterator.args
        ):
            self._report(
                statement,
                "ELS601",
                "row-at-a-time iteration over '.tuples()' of a column "
                "block on a hot path",
                hint="operate on the block's columns (gather + compiled "
                "block predicate) instead of materialized rows",
            )
            return
        if isinstance(iterator, ast.Call) and isinstance(iterator.func, ast.Name) \
                and iterator.func.id == "range" and len(iterator.args) == 1:
            argument = iterator.args[0]
            if (
                isinstance(argument, ast.Attribute)
                and argument.attr == "num_rows"
            ):
                self._report(
                    statement,
                    "ELS601",
                    "per-row index loop over 'range(<block>.num_rows)' on "
                    "a hot path",
                    hint="use the vectorized column ops; a Python-level "
                    "row loop forfeits the columnar layout",
                )
                return
            if (
                isinstance(argument, ast.Call)
                and isinstance(argument.func, ast.Name)
                and argument.func.id == "len"
                and len(argument.args) == 1
                and isinstance(argument.args[0], ast.Name)
                and argument.args[0].id in self._column_names
            ):
                self._report(
                    statement,
                    "ELS601",
                    "per-element index loop over a gathered column on a "
                    "hot path",
                    hint="use the vectorized column ops; a Python-level "
                    "row loop forfeits the columnar layout",
                )

    def _check_quadratic_rebind(self, statement: ast.Assign) -> None:
        """ELS603 (assign form): ``xs = xs + <expr>`` inside a loop."""
        if not self._in_loop or len(statement.targets) != 1:
            return
        target = statement.targets[0]
        value = statement.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Name)
            and value.left.id == target.id
            and self._env.get(target.id) in ("list", "tuple", "str")
        ):
            kind = self._env[target.id]
            self._report(
                statement,
                "ELS603",
                f"'{target.id} = {target.id} + ...' rebuilds the whole "
                f"{kind} every iteration of a hot loop (quadratic)",
                hint="append/extend in place, or join parts once after "
                "the loop",
            )

    def _check_aug_accumulation(self, statement: ast.AugAssign) -> None:
        """ELS603 (augmented form): ``s += <expr>`` on a str in a loop."""
        if not self._in_loop or not isinstance(statement.op, ast.Add):
            return
        target = statement.target
        if (
            isinstance(target, ast.Name)
            and self._env.get(target.id) == "str"
        ):
            self._report(
                statement,
                "ELS603",
                f"string accumulation '{target.id} += ...' inside a hot "
                "loop copies the whole prefix every iteration (quadratic)",
                hint="collect parts in a list and ''.join() once after "
                "the loop",
            )

    def _scan_expression(self, node: ast.expr) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._check_call(child)
            elif isinstance(child, ast.Lambda) and self._in_loop:
                self._report(
                    child,
                    "ELS605",
                    "lambda allocated every iteration of a hot loop",
                    hint="hoist the lambda (or a named function) out of "
                    "the loop",
                )
            elif isinstance(child, ast.Compare) and self._in_loop:
                self._check_membership(child)

    def _check_membership(self, node: ast.Compare) -> None:
        """ELS602: ``x in <list>`` inside a loop."""
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            if isinstance(comparator, ast.List):
                self._report(
                    node,
                    "ELS602",
                    "membership test against a list literal inside a hot "
                    "loop allocates and scans it every iteration",
                    hint="hoist the literal into a module-level frozenset",
                )
                continue
            if (
                isinstance(comparator, ast.Name)
                and self._env.get(comparator.id) == "list"
                and not any(
                    comparator.id in assigned
                    for assigned in self._loop_assigned
                )
            ):
                self._report(
                    node,
                    "ELS602",
                    f"membership test against loop-invariant list "
                    f"'{comparator.id}' inside a hot loop scans it every "
                    "iteration (quadratic)",
                    hint=f"build 'set({comparator.id})' once before the "
                    "loop and test against that",
                )

    def _check_call(self, call: ast.Call) -> None:
        name = _terminal_name(call.func)
        if name is None:
            return
        if self._in_loop and self._is_digest_call(name):
            if not _name_has_digest_token(self.function.name):
                self._report(
                    call,
                    "ELS604",
                    f"content digest '{name}()' recomputed inside a hot "
                    "loop body",
                    hint="compute digests once into a keyed index before "
                    "the loop (a comprehension) and look them up",
                )
        if self._in_loop and self._is_alloc_heavy(call, name):
            self._report(
                call,
                "ELS605",
                f"allocation-heavy call '{name}()' inside a hot loop",
                hint="hoist the construction out of the loop",
            )
        if name in _AGGREGATORS and len(call.args) == 1 \
                and isinstance(call.args[0], ast.ListComp):
            self._report(
                call,
                "ELS606",
                f"'{name}([...])' materializes an intermediate list only "
                "to aggregate it on a hot path",
                hint="pass the generator expression directly: "
                f"'{name}(x for ...)'",
            )

    def _is_digest_call(self, name: str) -> bool:
        if name in _DIGEST_EXACT:
            return True
        return _name_has_digest_token(name)

    def _is_alloc_heavy(self, call: ast.Call, name: str) -> bool:
        func = call.func
        if name == "deepcopy":
            return True
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = self.minfo.imports.get(func.value.id, func.value.id)
            if owner == "re" and name == "compile":
                return True
            if owner == "ast" and name == "parse":
                return True
            if owner == "copy" and name == "deepcopy":
                return True
        return False


def _name_has_digest_token(name: str) -> bool:
    lowered = name.lower()
    return any(token in lowered for token in _DIGEST_TOKENS)


def _terminal_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_column_gather(value: ast.expr) -> bool:
    """Did this expression fetch a column from a block (``x.column(i)``)?"""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "column"
    )
