"""The ELS5xx concurrency-safety diagnostics.

The driver (:func:`analyze_program`) mirrors the ELS3xx/ELS4xx layers:
over the shared index of
:func:`repro.lint.dataflow.summaries.build_program`, scan each body
once (:mod:`repro.lint.concurrency.summary`), iterate the blocking/lock
summaries to a fixpoint, then run one reporting pass:

========  ==========================================================
ELS500    malformed or misplaced concurrency directive
ELS501    mutation of ``guarded_by``-declared state without its lock
ELS502    inconsistent lock-acquisition order (potential deadlock)
ELS503    blocking call or deadline busy-wait inside ``async def``
ELS504    lock held across a blocking call or ``await``
ELS505    shared-memory segment not closed/unlinked on every path
ELS506    pool/executor without context manager or terminate+join
ELS507    fork-unsafe module-import state mutated in workers (warning)
========  ==========================================================

Like the other analysis layers the pass is *optimistic*: a report only
fires on a chain the scan actually proved (a declared guard, an
established lock-order edge, a resolved blocking callee), so an
unresolvable expression silences a rule rather than guessing.  The
ELS505/ELS506 lifecycle check walks the statement structure directly —
including ``try/finally`` — so a handle finalized in a ``finally`` block
is clean on *every* exit path, early ``return``s included.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from ..dataflow.summaries import FunctionInfo, ModuleInfo, Program, build_program
from ..effects.summary import provably_mutable
from .summary import (
    POOL_CONSTRUCTORS,
    resolve_confident,
    ConcurrencyScan,
    ConcurrencySummary,
    collect_concurrency_summaries,
    collect_inherited_locks,
    scan_function,
)

__all__ = [
    "CONCURRENCY_CODES",
    "analyze_modules",
    "analyze_program",
    "analyze_source",
]

#: Code -> (summary, severity) for every diagnostic this layer can emit.
CONCURRENCY_CODES: Dict[str, Tuple[str, Severity]] = {
    "ELS500": (
        "malformed or misplaced concurrency directive",
        Severity.ERROR,
    ),
    "ELS501": (
        "mutation of guarded shared state without the declared lock",
        Severity.ERROR,
    ),
    "ELS502": (
        "inconsistent lock-acquisition order (potential deadlock)",
        Severity.ERROR,
    ),
    "ELS503": (
        "blocking call or busy-wait inside an async function",
        Severity.ERROR,
    ),
    "ELS504": (
        "lock held across a blocking call or await",
        Severity.ERROR,
    ),
    "ELS505": (
        "shared-memory segment not closed/unlinked on every exit path",
        Severity.ERROR,
    ),
    "ELS506": (
        "pool/executor without context manager or terminate+join on all paths",
        Severity.ERROR,
    ),
    "ELS507": (
        "fork-unsafe module-import state mutated in a pool worker",
        Severity.WARNING,
    ),
}


def analyze_modules(
    modules: Sequence,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """Run the concurrency analysis over parsed modules.

    ``modules`` is duck-typed (``path`` / ``source`` / ``tree`` /
    ``is_test_file`` — the engine's ``ModuleUnderLint`` fits).  Test
    files are skipped: they legitimately spin up throwaway pools and
    sleep in fixtures.

    When ``summary_sink`` is given, the fixpoint blocking/acquires
    summaries are recorded into it as
    ``sink[path][qualname]["concurrency"]`` (the
    :meth:`~repro.lint.concurrency.summary.ConcurrencySummary.to_dict`
    shape) — this is how the incremental lint cache persists per-module
    interprocedural summaries.
    """
    return analyze_program(build_program(modules), max_passes, summary_sink)


def analyze_program(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """The ELS5xx pass over an already-built :func:`build_program` index."""
    findings: List[Diagnostic] = []
    if not program.modules:
        return findings
    global_names: Dict[str, FrozenSet[str]] = {}
    mutable_globals: Dict[str, Set[str]] = {}
    for minfo in program.modules:
        global_names[minfo.path] = _module_global_names(minfo.tree)
        mutable_globals[minfo.path] = _module_mutable_globals(minfo.tree)
    scans: Dict[int, ConcurrencyScan] = {}
    for minfo in program.modules:
        for function in minfo.functions:
            scans[id(function)] = scan_function(
                function, minfo, global_names[minfo.path]
            )
    summaries = collect_concurrency_summaries(program, scans, max_passes=max_passes)
    if summary_sink is not None:
        for minfo in program.modules:
            for function in minfo.functions:
                summary_sink.setdefault(minfo.path, {}).setdefault(
                    function.qualname, {}
                )["concurrency"] = summaries[id(function)].to_dict()
    inherited = collect_inherited_locks(program, scans, max_passes=max_passes)
    guards = _collect_guards(program, scans, findings)
    for minfo in program.modules:
        for function in minfo.functions:
            scan = scans[id(function)]
            _report_guarded_mutations(minfo, function, scan, guards, inherited, findings)
            _report_async_blocking(program, minfo, function, scan, summaries, findings)
            _report_lock_across_blocking(
                program, minfo, function, scan, summaries, findings
            )
            _report_lifecycles(minfo, function, findings)
    _report_lock_order(program, scans, summaries, findings)
    _report_worker_mutations(program, scans, mutable_globals, findings)
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
# Module-level fact collection
# ---------------------------------------------------------------------------


def _module_global_names(tree: ast.Module) -> FrozenSet[str]:
    """Every module-level assigned name (shared-state root candidates)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


def _module_mutable_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to provably mutable containers (ELS507)."""
    names: Set[str] = set()
    for node in tree.body:
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if isinstance(target, ast.Name) and provably_mutable(value):
            names.add(target.id)
    return names


# ---------------------------------------------------------------------------
# ELS500 — directives; guard-declaration collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Guard:
    """One ``guarded_by`` declaration resolved to its target."""

    #: ("class", class name) or ("module", module path).
    scope: Tuple[str, str]
    #: Attribute name (class scope) or global name (module scope).
    target: str
    #: Qualified lock name mutations must hold ("Cls._lock" or "_LOCK").
    lock: str


def _statement_lines(node: ast.stmt) -> range:
    end = getattr(node, "end_lineno", None) or node.lineno
    return range(node.lineno, end + 1)


def _collect_guards(
    program: Program,
    scans: Dict[int, ConcurrencyScan],
    findings: List[Diagnostic],
) -> List[_Guard]:
    guards: List[_Guard] = []
    for minfo in program.modules:
        for bad in minfo.malformed:
            if bad.family != "concurrency":
                continue  # ELS300/ELS400 own the other families
            findings.append(
                _diag(minfo, bad, "ELS500",
                      f"malformed '# els:' directive: {bad.reason}")
            )
        assignment_targets = _assignment_targets_by_line(minfo)
        for directive in minfo.directives:
            if directive.kind == "blocking":
                if directive.line not in minfo.def_lines:
                    findings.append(
                        _line_diag(
                            minfo, directive.line, "ELS500",
                            "misplaced 'blocking=' directive: it must sit on "
                            "a 'def' line to pin that function's summary",
                        )
                    )
            elif directive.kind == "guarded_by":
                guard = _resolve_guard(
                    minfo, directive, assignment_targets, scans, findings
                )
                if guard is not None:
                    guards.append(guard)
    return guards


def _assignment_targets_by_line(
    minfo: ModuleInfo,
) -> Dict[int, Tuple[str, str, str]]:
    """Line -> (scope kind, scope name, target name) for guardable stores.

    Covers module-level ``NAME = ...``, class-body ``attr = ...``, and
    ``self.attr = ...`` inside any method of a top-level class.
    """
    targets: Dict[int, Tuple[str, str, str]] = {}

    def record(node: ast.stmt, scope: Tuple[str, str], name: str) -> None:
        for line in _statement_lines(node):
            targets.setdefault(line, (scope[0], scope[1], name))

    for node in minfo.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    record(node, ("module", minfo.path), target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            record(node, ("module", minfo.path), node.target.id)
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            record(statement, ("class", node.name), target.id)
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    record(statement, ("class", node.name), statement.target.id)
            for method in ast.walk(node):
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for inner in ast.walk(method):
                    if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                        inner_targets = (
                            inner.targets
                            if isinstance(inner, ast.Assign)
                            else [inner.target]
                        )
                        for target in inner_targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                record(inner, ("class", node.name), target.attr)
    return targets


def _resolve_guard(
    minfo: ModuleInfo,
    directive,
    assignment_targets: Dict[int, Tuple[str, str, str]],
    scans: Dict[int, ConcurrencyScan],
    findings: List[Diagnostic],
) -> Optional[_Guard]:
    resolved = assignment_targets.get(directive.line)
    if resolved is None:
        findings.append(
            _line_diag(
                minfo, directive.line, "ELS500",
                "misplaced 'guarded_by=' directive: it must sit on an "
                "assignment to a self attribute or a module-level name",
            )
        )
        return None
    scope_kind, scope_name, target = resolved
    if scope_kind == "class":
        lock_exists = _class_defines_lock(minfo, scope_name, directive.lock, scans)
        qualified = f"{scope_name}.{directive.lock}"
    else:
        lock_exists = directive.lock in _module_global_names(minfo.tree)
        qualified = directive.lock
    if not lock_exists:
        findings.append(
            _line_diag(
                minfo, directive.line, "ELS500",
                f"'guarded_by={directive.lock}' names a lock that is never "
                f"assigned in this {'class' if scope_kind == 'class' else 'module'}",
            )
        )
        return None
    return _Guard(scope=(scope_kind, scope_name), target=target, lock=qualified)


def _class_defines_lock(
    minfo: ModuleInfo,
    class_name: str,
    lock: str,
    scans: Dict[int, ConcurrencyScan],
) -> bool:
    for function in minfo.functions:
        if not function.qualname.startswith(f"{class_name}."):
            continue
        scan = scans.get(id(function))
        if scan is not None and lock in scan.attr_stores:
            return True
    for node in minfo.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and target.id == lock:
                            return True
    return False


# ---------------------------------------------------------------------------
# ELS501 — guarded mutations
# ---------------------------------------------------------------------------


def _report_guarded_mutations(
    minfo: ModuleInfo,
    function: FunctionInfo,
    scan: ConcurrencyScan,
    guards: List[_Guard],
    inherited: Dict[int, Optional[FrozenSet[str]]],
    findings: List[Diagnostic],
) -> None:
    if not guards:
        return
    enclosing = function.qualname.rsplit(".", 1)
    enclosing_class = enclosing[0] if len(enclosing) == 2 else None
    guaranteed = inherited.get(id(function))
    for site in scan.mutations:
        kind, name = site.root
        for guard in guards:
            if kind == "selfattr":
                if guard.scope != ("class", enclosing_class):
                    continue
            elif guard.scope[0] != "module":
                continue
            if guard.target != name:
                continue
            if guard.lock in site.held:
                continue
            if guaranteed is None or guard.lock in guaranteed:
                # Unconstrained (cycle-only reachability) or provably
                # called under the lock at every resolved call site.
                continue
            what = f"self.{name}" if kind == "selfattr" else name
            findings.append(
                _node_diag(
                    minfo, site.node, "ELS501",
                    f"mutation ({site.op}) of '{what}', declared "
                    f"'guarded_by={guard.lock.rsplit('.', 1)[-1]}', without "
                    f"holding the lock",
                    hint="wrap the mutation in 'with <lock>:' or acquire the "
                    "declared lock on every caller path",
                )
            )
            break


# ---------------------------------------------------------------------------
# ELS502 — lock-order graph
# ---------------------------------------------------------------------------


def _report_lock_order(
    program: Program,
    scans: Dict[int, ConcurrencyScan],
    summaries: Dict[int, ConcurrencySummary],
    findings: List[Diagnostic],
) -> None:
    #: (held, acquired) -> earliest witness (path, line, col, message tail).
    edges: Dict[Tuple[str, str], Tuple[str, int, int, str]] = {}

    def witness(
        held: str, acquired: str, minfo: ModuleInfo, node: ast.AST, tail: str
    ) -> None:
        key = (held, acquired)
        site = (
            minfo.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            tail,
        )
        if key not in edges or site < edges[key]:
            edges[key] = site

    for minfo in program.modules:
        for function in minfo.functions:
            scan = scans[id(function)]
            enclosing = function.qualname.rsplit(".", 1)
            enclosing_class = enclosing[0] if len(enclosing) == 2 else None
            for acquisition in scan.acquisitions:
                for held in acquisition.held_before:
                    if held != acquisition.lock:
                        witness(
                            held,
                            acquisition.lock,
                            minfo,
                            acquisition.node,
                            f"in '{function.qualname}'",
                        )
            for site in scan.calls:
                if not site.held:
                    continue
                callee = resolve_confident(
                    program, site.call, minfo, enclosing_class
                )
                if callee is None:
                    continue
                for acquired in summaries[id(callee)].acquires:
                    for held in site.held:
                        if held != acquired:
                            witness(
                                held,
                                acquired,
                                minfo,
                                site.call,
                                f"via call to '{callee.qualname}' "
                                f"from '{function.qualname}'",
                            )
    adjacency: Dict[str, Set[str]] = {}
    for held, acquired in edges:
        adjacency.setdefault(held, set()).add(acquired)

    def reaches(start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return False

    for (held, acquired), (path, line, col, tail) in sorted(edges.items()):
        if not reaches(acquired, held):
            continue
        findings.append(
            Diagnostic(
                code="ELS502",
                message=(
                    f"lock '{acquired}' acquired while holding '{held}' "
                    f"{tail}, but the reverse order also occurs; "
                    "inconsistent acquisition order can deadlock"
                ),
                severity=Severity.ERROR,
                file=path,
                line=line,
                col=col,
                hint="pick one global acquisition order and use it everywhere",
            )
        )


# ---------------------------------------------------------------------------
# ELS503 — blocking inside async def
# ---------------------------------------------------------------------------


def _report_async_blocking(
    program: Program,
    minfo: ModuleInfo,
    function: FunctionInfo,
    scan: ConcurrencyScan,
    summaries: Dict[int, ConcurrencySummary],
    findings: List[Diagnostic],
) -> None:
    if not scan.is_async:
        return
    for site in scan.blocking_sites:
        findings.append(
            _node_diag(
                minfo, site.node, "ELS503",
                f"blocking call {site.description} inside "
                f"'async def {function.name}' stalls the event loop",
                hint="use the asyncio equivalent or run_in_executor",
            )
        )
    for loop in scan.busy_waits:
        findings.append(
            _node_diag(
                minfo, loop, "ELS503",
                f"busy-wait loop polling a deadline inside "
                f"'async def {function.name}' never yields to the event "
                "loop",
                hint="await asyncio.sleep() inside the loop, or await the "
                "condition directly",
            )
        )
    enclosing = function.qualname.rsplit(".", 1)
    enclosing_class = enclosing[0] if len(enclosing) == 2 else None
    reported: Set[int] = {id(site.node) for site in scan.blocking_sites}
    for site in scan.calls:
        if id(site.call) in reported:
            continue
        callee = resolve_confident(program, site.call, minfo, enclosing_class)
        if callee is None or isinstance(callee.node, ast.AsyncFunctionDef):
            continue  # async callees are flagged on their own bodies
        if summaries[id(callee)].blocking:
            findings.append(
                _node_diag(
                    minfo, site.call, "ELS503",
                    f"call to '{callee.qualname}', which (transitively) "
                    f"blocks, inside 'async def {function.name}'",
                    hint="make the helper non-blocking, pin it with "
                    "'# els: blocking=no', or run_in_executor",
                )
            )


# ---------------------------------------------------------------------------
# ELS504 — lock held across blocking / await
# ---------------------------------------------------------------------------


def _report_lock_across_blocking(
    program: Program,
    minfo: ModuleInfo,
    function: FunctionInfo,
    scan: ConcurrencyScan,
    summaries: Dict[int, ConcurrencySummary],
    findings: List[Diagnostic],
) -> None:
    for site in scan.blocking_sites:
        if site.held:
            lock = sorted(site.held)[0]
            findings.append(
                _node_diag(
                    minfo, site.node, "ELS504",
                    f"blocking call {site.description} while holding lock "
                    f"'{lock}' serializes every waiter",
                    hint="move the blocking work outside the critical section",
                )
            )
    for await_site in scan.await_sites:
        if await_site.held:
            lock = sorted(await_site.held)[0]
            findings.append(
                _node_diag(
                    minfo, await_site.node, "ELS504",
                    f"'await' while holding synchronous lock '{lock}'; the "
                    "lock blocks other event-loop tasks for the whole "
                    "suspension",
                    hint="use asyncio.Lock under 'async with', or release "
                    "before awaiting",
                )
            )
    enclosing = function.qualname.rsplit(".", 1)
    enclosing_class = enclosing[0] if len(enclosing) == 2 else None
    reported: Set[int] = {id(site.node) for site in scan.blocking_sites}
    for site in scan.calls:
        if not site.held or id(site.call) in reported:
            continue
        callee = resolve_confident(program, site.call, minfo, enclosing_class)
        if callee is None:
            continue
        if summaries[id(callee)].blocking:
            lock = sorted(site.held)[0]
            findings.append(
                _node_diag(
                    minfo, site.call, "ELS504",
                    f"call to '{callee.qualname}', which (transitively) "
                    f"blocks, while holding lock '{lock}'",
                    hint="move the blocking call outside the critical "
                    "section or pin the helper '# els: blocking=no'",
                )
            )


# ---------------------------------------------------------------------------
# ELS505 / ELS506 — handle lifecycles on every exit path
# ---------------------------------------------------------------------------

#: Finalizer method names the lifecycle walker records.
_FINALIZER_OPS = frozenset({"close", "terminate", "join", "unlink", "shutdown"})

_EXECUTOR_CONSTRUCTORS = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})


@dataclass
class _Handle:
    name: str
    code: str  # "ELS505" or "ELS506"
    label: str
    node: ast.AST
    #: Required op groups: each group needs at least one performed op.
    groups: Tuple[FrozenSet[str], ...]
    escaped: bool = False
    missing: Set[str] = field(default_factory=set)


def _handle_for(name: str, value: ast.expr, node: ast.AST) -> Optional[_Handle]:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    ctor = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if ctor == "SharedMemory":
        creates = any(
            keyword.arg == "create"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in value.keywords
        )
        groups: Tuple[FrozenSet[str], ...] = (frozenset({"close"}),)
        if creates:
            groups = groups + (frozenset({"unlink"}),)
        label = "created" if creates else "attached"
        return _Handle(name, "ELS505", f"shared-memory segment ({label})", value, groups)
    if ctor in POOL_CONSTRUCTORS and ctor not in _EXECUTOR_CONSTRUCTORS:
        return _Handle(
            name, "ELS506", "worker pool", value,
            (frozenset({"close", "terminate"}), frozenset({"join"})),
        )
    if ctor in _EXECUTOR_CONSTRUCTORS:
        return _Handle(
            name, "ELS506", "executor", value, (frozenset({"shutdown"}),)
        )
    return None


class _LifecycleWalker:
    """Structural all-paths check for handle finalization.

    Tracks, per created handle, the finalizer ops *definitely* performed
    before each exit (``return``, ``raise``, falling off the end).  An
    ``if`` merge keeps only ops both branches performed; a ``finally``
    block's ops count on every exit inside its ``try``.  Handles that
    escape (returned, stored on ``self``, passed to another call) change
    owners and are exempt — the optimistic default.
    """

    def __init__(self) -> None:
        self.handles: List[_Handle] = []
        self.live: Dict[str, _Handle] = {}
        self.ops: Dict[int, Set[str]] = {}
        self.finally_stack: List[Dict[str, Set[str]]] = []

    def run(self, body: Sequence[ast.stmt]) -> List[_Handle]:
        terminated = self._visit_block(body)
        if not terminated:
            self._check_exit()
        return [h for h in self.handles if h.missing and not h.escaped]

    # -- exits ---------------------------------------------------------------

    def _pending_finally_ops(self, name: str) -> Set[str]:
        ops: Set[str] = set()
        for frame in self.finally_stack:
            ops |= frame.get(name, set())
        return ops

    def _check_exit(self) -> None:
        for handle in self.live.values():
            effective = self.ops[id(handle)] | self._pending_finally_ops(handle.name)
            for group in handle.groups:
                if not (group & effective):
                    handle.missing.add("/".join(sorted(group)))

    # -- statement dispatch --------------------------------------------------

    def _visit_block(self, statements: Sequence[ast.stmt]) -> bool:
        for statement in statements:
            if self._visit_statement(statement):
                return True
        return False

    def _visit_statement(self, statement: ast.stmt) -> bool:
        self._note_escapes(statement)
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name):
                self._bind(target.id, statement.value)
            return False
        if isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name) and statement.value is not None:
                self._bind(statement.target.id, statement.value)
            return False
        if isinstance(statement, ast.Expr):
            self._note_finalizer(statement.value)
            return False
        if isinstance(statement, (ast.Return, ast.Raise)):
            self._check_exit()
            return True
        if isinstance(statement, ast.If):
            return self._visit_branches([statement.body, statement.orelse])
        if isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
            # Optimistic: ops inside the body count (the loop that creates
            # a handle also runs the statements finalizing it).
            self._visit_block(statement.body)
            self._visit_block(statement.orelse)
            return False
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if isinstance(item.optional_vars, ast.Name):
                    # Context-managed: the with owns the lifecycle.
                    self.live.pop(item.optional_vars.id, None)
            return self._visit_block(statement.body)
        if isinstance(statement, ast.Try):
            frame: Dict[str, Set[str]] = {}
            for node in ast.walk(ast.Module(body=list(statement.finalbody), type_ignores=[])):
                if isinstance(node, ast.Call):
                    self._collect_finalizer(node, frame)
            self.finally_stack.append(frame)
            body_terminated = self._visit_block(statement.body)
            handlers_terminated = bool(statement.handlers)
            for handler in statement.handlers:
                if not self._visit_block(handler.body):
                    handlers_terminated = False
            self._visit_block(statement.orelse)
            self.finally_stack.pop()
            finally_terminated = self._visit_block(statement.finalbody)
            return finally_terminated or (body_terminated and handlers_terminated)
        return False

    def _visit_branches(self, branches: Sequence[Sequence[ast.stmt]]) -> bool:
        snapshot = {key: set(value) for key, value in self.ops.items()}
        deltas: List[Optional[Dict[int, Set[str]]]] = []
        for branch in branches:
            terminated = self._visit_block(branch)
            if terminated:
                deltas.append(None)  # ended paths do not constrain the merge
            else:
                deltas.append(
                    {
                        key: self.ops[key] - snapshot.get(key, set())
                        for key in self.ops
                    }
                )
            for key in list(self.ops):
                if key in snapshot:
                    self.ops[key] = set(snapshot[key])
                # Branch-created handles keep their recorded ops: they only
                # exist on paths through that branch.
        surviving = [delta for delta in deltas if delta is not None]
        if not surviving:
            return True
        for key in snapshot:
            merged = surviving[0].get(key, set())
            for delta in surviving[1:]:
                merged = merged & delta.get(key, set())
            self.ops[key] = snapshot[key] | merged
        return False

    # -- handle bookkeeping --------------------------------------------------

    def _bind(self, name: str, value: ast.expr) -> None:
        previous = self.live.pop(name, None)
        if previous is not None:
            # Rebinding the only reference before finalizing leaks it.
            effective = self.ops[id(previous)] | self._pending_finally_ops(name)
            for group in previous.groups:
                if not (group & effective):
                    previous.missing.add("/".join(sorted(group)))
        handle = _handle_for(name, value, value)
        if handle is not None:
            self.handles.append(handle)
            self.live[name] = handle
            self.ops[id(handle)] = set()
        elif isinstance(value, ast.Name) and value.id in self.live:
            # Aliased away: ownership is ambiguous, stay silent.
            self.live.pop(value.id).escaped = True

    def _note_finalizer(self, node: ast.expr) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FINALIZER_OPS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.live
        ):
            self.ops[id(self.live[func.value.id])].add(func.attr)

    def _collect_finalizer(self, call: ast.Call, frame: Dict[str, Set[str]]) -> None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FINALIZER_OPS
            and isinstance(func.value, ast.Name)
        ):
            frame.setdefault(func.value.id, set()).add(func.attr)

    def _note_escapes(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Return) and isinstance(
            statement.value, ast.Name
        ):
            handle = self.live.get(statement.value.id)
            if handle is not None:
                handle.escaped = True
            return
        if isinstance(statement, ast.Assign):
            if isinstance(statement.value, ast.Name):
                target = statement.targets[0] if statement.targets else None
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    handle = self.live.get(statement.value.id)
                    if handle is not None:
                        handle.escaped = True
            return
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
            for argument in statement.value.args:
                if isinstance(argument, ast.Name):
                    handle = self.live.get(argument.id)
                    if handle is not None:
                        handle.escaped = True


def _report_lifecycles(
    minfo: ModuleInfo, function: FunctionInfo, findings: List[Diagnostic]
) -> None:
    walker = _LifecycleWalker()
    leaked = walker.run(getattr(function.node, "body", []))
    for handle in leaked:
        missing = ", ".join(sorted(handle.missing))
        if handle.code == "ELS505":
            message = (
                f"{handle.label} '{handle.name}' is not finalized on every "
                f"exit path of '{function.qualname}' (missing: {missing})"
            )
            hint = "close() (and unlink() for the creator) in a finally block"
        else:
            message = (
                f"{handle.label} '{handle.name}' is not shut down on every "
                f"exit path of '{function.qualname}' (missing: {missing})"
            )
            hint = (
                "use a 'with' block, or terminate()+join() (shutdown() for "
                "executors) in a finally block"
            )
        findings.append(
            _node_diag(minfo, handle.node, handle.code, message, hint=hint)
        )


# ---------------------------------------------------------------------------
# ELS507 — fork-unsafe import state mutated in workers
# ---------------------------------------------------------------------------


def _report_worker_mutations(
    program: Program,
    scans: Dict[int, ConcurrencyScan],
    mutable_globals: Dict[str, Set[str]],
    findings: List[Diagnostic],
) -> None:
    workers: List[FunctionInfo] = []
    for minfo in program.modules:
        for function in minfo.functions:
            enclosing = function.qualname.rsplit(".", 1)
            enclosing_class = enclosing[0] if len(enclosing) == 2 else None
            for shipped in scans[id(function)].shipments:
                if isinstance(shipped, ast.Name):
                    target = program.resolve_call(
                        ast.Call(func=shipped, args=[], keywords=[]),
                        minfo,
                        enclosing_class,
                    )
                    if target is not None:
                        workers.append(target)
    if not workers:
        return
    reachable: Dict[int, Tuple[FunctionInfo, str]] = {}
    frontier = [(worker, worker.qualname) for worker in workers]
    while frontier:
        function, entry = frontier.pop()
        if id(function) in reachable:
            continue
        reachable[id(function)] = (function, entry)
        minfo = function.module
        enclosing = function.qualname.rsplit(".", 1)
        enclosing_class = enclosing[0] if len(enclosing) == 2 else None
        for site in scans[id(function)].calls:
            callee = resolve_confident(
                program, site.call, minfo, enclosing_class
            )
            if callee is not None and id(callee) not in reachable:
                frontier.append((callee, entry))
    seen: Set[Tuple[str, int, int]] = set()
    for function, entry in reachable.values():
        minfo = function.module
        module_mutables = mutable_globals.get(minfo.path, set())
        for site in scans[id(function)].mutations:
            kind, name = site.root
            if kind != "global" or name not in module_mutables:
                continue
            line = getattr(site.node, "lineno", function.node.lineno)
            col = getattr(site.node, "col_offset", 0)
            key = (minfo.path, line, col)
            if key in seen:
                continue
            seen.add(key)
            suffix = (
                "" if entry == function.qualname
                else f" (reachable from worker '{entry}')"
            )
            findings.append(
                Diagnostic(
                    code="ELS507",
                    message=(
                        f"pool worker mutates module-import state '{name}'"
                        f"{suffix}; each forked worker mutates its own copy, "
                        "and spawn re-imports, so the update never reaches "
                        "the parent"
                    ),
                    severity=Severity.WARNING,
                    file=minfo.path,
                    line=line,
                    col=col,
                    hint="return the data from the worker instead of "
                    "mutating a global",
                )
            )


# ---------------------------------------------------------------------------
# Diagnostic helpers
# ---------------------------------------------------------------------------


def _diag(minfo: ModuleInfo, bad, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        code=code,
        message=message,
        severity=CONCURRENCY_CODES[code][1],
        file=minfo.path,
        line=bad.line,
        col=bad.col,
    )


def _line_diag(minfo: ModuleInfo, line: int, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        code=code,
        message=message,
        severity=CONCURRENCY_CODES[code][1],
        file=minfo.path,
        line=line,
        col=0,
    )


def _node_diag(
    minfo: ModuleInfo,
    node: ast.AST,
    code: str,
    message: str,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        message=message,
        severity=CONCURRENCY_CODES[code][1],
        file=minfo.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        hint=hint,
    )
