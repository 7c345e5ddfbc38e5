"""Per-function concurrency facts and interprocedural lock/blocking summaries.

One :class:`ConcurrencyScan` walks a single function body in textual
order, threading the set of *currently held locks* through every
statement, and records what the ELS5xx rules need:

* **acquisitions** — every lock acquisition (``with lock:`` items,
  ``lock.acquire()`` statements) together with the locks already held at
  that point — the edges of the lock-order graph (ELS502).
* **blocking sites** — calls that block the calling thread
  (``time.sleep``, ``open``/``Path`` I/O, ``subprocess``, ``os.system``,
  pool ``map``/``join``), each with the locks held at the site (ELS503,
  ELS504).
* **await sites** — every ``await`` with the *synchronous* locks held
  across it; holding an ``async with`` lock across an await is that
  lock's purpose and is never recorded here (ELS504).
* **shared mutations** — in-place mutations rooted at a ``self``
  attribute or a module-level global, with the locks held at the site
  (ELS501, ELS507).
* **calls** — every call site with its held-lock snapshot, for the
  interprocedural propagation.
* **busy waits** — ``while`` loops inside ``async def`` bodies that spin
  on a deadline without awaiting (ELS503).

Lock identity is *qualified*: ``self._lock`` inside class ``C`` becomes
``"C._lock"`` so two classes with a ``_lock`` attribute never share a
graph node; module-level locks keep their bare name.  A name counts as a
lock when it contains ``lock`` or ``mutex`` — the same optimistic
philosophy as the effect layer: an expression the scan cannot prove to
be a lock contributes nothing, so every report rests on an established
chain.

Two fixpoints then run over the resolved call graph:

* :func:`collect_concurrency_summaries` — bottom-up: a function is
  *blocking* when it (transitively) reaches a blocking site, and its
  *acquires* set is the union of every lock it may (transitively)
  acquire.  A ``# els: blocking=yes|no`` directive on the ``def`` line
  pins the blocking component.
* :func:`collect_inherited_locks` — top-down: the locks a function is
  *guaranteed* to be called with (the intersection over all resolved
  call sites of held-at-site ∪ caller's own guarantee), so a private
  helper that is only ever invoked under the cache lock is not flagged
  for mutating guarded state (ELS501).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dataflow.summaries import FunctionInfo, ModuleInfo, Program

__all__ = [
    "AcquisitionSite",
    "AwaitSite",
    "BlockingSite",
    "CallSite",
    "ConcurrencyScan",
    "ConcurrencySummary",
    "SharedMutation",
    "collect_concurrency_summaries",
    "collect_inherited_locks",
    "is_lock_name",
    "resolve_confident",
    "scan_function",
]


def resolve_confident(
    program: Program,
    call: ast.Call,
    module: ModuleInfo,
    enclosing_class: Optional[str],
) -> Optional[FunctionInfo]:
    """Resolve a call only when the receiver cannot be a plain object.

    The dataflow resolver falls back to a globally *unique* terminal name
    for any attribute call — fine for quantity summaries (an unknown
    summary is TOP), but poisonous for lock inheritance: ``entries.get``
    must never resolve to a method that happens to be named ``get``, or
    the phantom edge turns the inheritance lattice cyclic and silences
    real reports.  Attribute calls resolve only on ``self``/``cls`` or a
    module-level import alias; bare-name calls resolve as usual.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if not (
            isinstance(receiver, ast.Name)
            and (
                receiver.id in ("self", "cls")
                or receiver.id in module.imports
            )
        ):
            return None
    return program.resolve_call(call, module, enclosing_class)

#: Methods that mutate their receiver in place (mirrors the effect layer).
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "difference_update",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "intersection_update",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "symmetric_difference_update",
        "update",
    }
)

#: ``subprocess`` members that block on a child process.
_SUBPROCESS_CALLS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)

#: ``pathlib.Path`` convenience I/O methods (blocking file access).
_PATH_IO_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Pool/executor methods that block until workers deliver.
_POOL_BLOCKING_METHODS = frozenset(
    {"apply", "imap", "imap_unordered", "join", "map", "starmap"}
)

#: Pool/executor methods that ship a callable to worker processes.
_POOL_SHIP_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "submit",
    }
)

#: Constructors whose result is a pool/executor handle.
POOL_CONSTRUCTORS = frozenset(
    {"Pool", "ThreadPool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Deadline-observing calls that turn an await-free ``while`` into a spin
#: wait when polled from an ``async def`` (ELS503).
_DEADLINE_POLL_METHODS = frozenset({"check", "expired", "remaining_s"})


def is_lock_name(name: str) -> bool:
    """Heuristic: does this identifier denote a lock object?"""
    lowered = name.lower()
    return "lock" in lowered or "mutex" in lowered


@dataclass(frozen=True)
class AcquisitionSite:
    """One lock acquisition with the locks already held at that point."""

    lock: str
    held_before: FrozenSet[str]
    node: ast.AST
    is_async: bool = False


@dataclass(frozen=True)
class BlockingSite:
    """One call that blocks the calling thread."""

    node: ast.AST
    description: str
    held: FrozenSet[str]


@dataclass(frozen=True)
class AwaitSite:
    """One ``await`` expression with the sync locks held across it."""

    node: ast.AST
    held: FrozenSet[str]


@dataclass(frozen=True)
class SharedMutation:
    """One in-place mutation rooted at shared state.

    ``root`` is ``("selfattr", attr)`` or ``("global", name)``; ``depth``
    0 mutates the container itself, >= 1 a value reached through it.
    """

    root: Tuple[str, str]
    depth: int
    op: str
    node: ast.AST
    held: FrozenSet[str]


@dataclass(frozen=True)
class CallSite:
    """One call site with the sync locks held around it."""

    call: ast.Call
    held: FrozenSet[str]


@dataclass
class ConcurrencyScan:
    """Everything one pass over a function body collected."""

    function: FunctionInfo
    acquisitions: List[AcquisitionSite] = field(default_factory=list)
    blocking_sites: List[BlockingSite] = field(default_factory=list)
    await_sites: List[AwaitSite] = field(default_factory=list)
    mutations: List[SharedMutation] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: ``while`` loops in an ``async def`` that poll a deadline with no
    #: ``await`` anywhere in the loop.
    busy_waits: List[ast.AST] = field(default_factory=list)
    #: Self attributes assigned anywhere in the body (lock existence check).
    attr_stores: Set[str] = field(default_factory=set)
    #: Callable expressions shipped to a pool/executor (ELS507 roots).
    shipments: List[ast.expr] = field(default_factory=list)

    @property
    def is_async(self) -> bool:
        return isinstance(self.function.node, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class ConcurrencySummary:
    """The caller-visible concurrency behaviour of one function.

    Attributes:
        blocking: The function (transitively) reaches a blocking call.
        acquires: Locks the function may (transitively) acquire.
        declared: ``# els: blocking=`` pin on the ``def`` line, if any.
    """

    blocking: bool = False
    acquires: FrozenSet[str] = frozenset()
    declared: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable mapping (for the incremental lint cache)."""
        return {
            "blocking": self.blocking,
            "acquires": sorted(self.acquires),
            "declared": self.declared,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "ConcurrencySummary":
        """Rebuild a summary from :meth:`to_dict` (inverse round-trip).

        Raises:
            KeyError, ValueError, TypeError: on a malformed mapping (the
                cache treats these as a corrupt entry = cold miss).
        """
        declared = row.get("declared")
        return cls(
            blocking=bool(row["blocking"]),
            acquires=frozenset(
                str(name) for name in row["acquires"]  # type: ignore[union-attr]
            ),
            declared=None if declared is None else bool(declared),
        )


class _Scanner:
    """Textual-order walker threading the held-lock set through a body."""

    def __init__(
        self,
        function: FunctionInfo,
        module: ModuleInfo,
        module_globals: FrozenSet[str],
    ) -> None:
        self.function = function
        self.module = module
        self.module_globals = module_globals
        self.scan = ConcurrencyScan(function)
        enclosing = function.qualname.rsplit(".", 1)
        self.enclosing_class = enclosing[0] if len(enclosing) == 2 else None
        self._held: Set[str] = set()
        self._async_held: Set[str] = set()
        self._pool_names: Set[str] = set()
        #: Local name -> shared root it aliases (one level, optimistic).
        self._aliases: Dict[str, Tuple[Tuple[str, str], int]] = {}

    # -- lock identity -------------------------------------------------------

    def _lock_target(self, node: ast.expr) -> Optional[str]:
        """The qualified lock name an expression denotes, or ``None``."""
        if isinstance(node, ast.Name) and is_lock_name(node.id):
            return node.id
        if isinstance(node, ast.Attribute) and is_lock_name(node.attr):
            if isinstance(node.value, ast.Name):
                if node.value.id in ("self", "cls"):
                    if self.enclosing_class is not None:
                        return f"{self.enclosing_class}.{node.attr}"
                    return node.attr
                # module.LOCK / shard.lock: keep the terminal name.
                return node.attr
        return None

    def qualify_lock(self, lock: str) -> str:
        """Qualify a bare directive lock name against the enclosing class."""
        if "." in lock or self.enclosing_class is None:
            return lock
        return f"{self.enclosing_class}.{lock}"

    # -- shared roots --------------------------------------------------------

    def _root_of(self, node: ast.expr) -> Optional[Tuple[Tuple[str, str], int]]:
        if isinstance(node, ast.Name):
            if node.id in self._aliases:
                return self._aliases[node.id]
            if node.id in self.module_globals:
                return (("global", node.id), 0)
            return None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                return (("selfattr", node.attr), 0)
            inner = self._root_of(node.value)
            if inner is not None:
                return (inner[0], inner[1] + 1)
            return None
        if isinstance(node, ast.Subscript):
            inner = self._root_of(node.value)
            if inner is not None:
                return (inner[0], inner[1] + 1)
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault"):
                inner = self._root_of(func.value)
                if inner is not None:
                    return (inner[0], inner[1] + 1)
            return None
        return None

    def _held_now(self) -> FrozenSet[str]:
        return frozenset(self._held)

    def _ordering_held(self) -> FrozenSet[str]:
        """Locks relevant to acquisition ordering (sync and async)."""
        return frozenset(self._held | self._async_held)

    # -- driver --------------------------------------------------------------

    def run(self) -> ConcurrencyScan:
        self._visit_statements(getattr(self.function.node, "body", []))
        return self.scan

    def _visit_statements(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self._visit_statement(statement)

    def _visit_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested scopes run later, under unknown locks
        if isinstance(statement, ast.ClassDef):
            return
        if isinstance(statement, ast.Assign):
            self._scan_expression(statement.value)
            for target in statement.targets:
                self._bind_target(target, statement.value, statement)
            return
        if isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._scan_expression(statement.value)
                self._bind_target(statement.target, statement.value, statement)
            return
        if isinstance(statement, ast.AugAssign):
            self._scan_expression(statement.value)
            target = statement.target
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                rooted = self._root_of(target)
                if rooted is not None:
                    # Augmented assignment through an attribute/subscript
                    # rewrites shared state in place.
                    self._record_mutation(rooted, "augassign", statement)
            return
        if isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Subscript):
                    rooted = self._root_of(target.value)
                    if rooted is not None:
                        self._record_mutation(rooted, "subscript-delete", statement)
                elif isinstance(target, ast.Name):
                    self._aliases.pop(target.id, None)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self._scan_expression(statement.value)
            return
        if isinstance(statement, ast.Expr):
            self._scan_expression(statement.value)
            self._track_acquire_release(statement.value)
            return
        if isinstance(statement, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self._scan_expression(child)
            return
        if isinstance(statement, (ast.If, ast.While)):
            self._scan_expression(statement.test)
            if isinstance(statement, ast.While):
                self._check_busy_wait(statement)
            self._visit_branch(statement.body)
            self._visit_branch(statement.orelse)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._scan_expression(statement.iter)
            self._visit_branch(statement.body)
            self._visit_branch(statement.orelse)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            self._visit_with(statement)
            return
        if isinstance(statement, ast.Try):
            self._visit_branch(statement.body)
            for handler in statement.handlers:
                self._visit_branch(handler.body)
            self._visit_branch(statement.orelse)
            self._visit_branch(statement.finalbody)
            return
        # pass / break / continue / global / import: no concurrency facts.

    def _visit_branch(self, statements: Sequence[ast.stmt]) -> None:
        """Visit a conditional body, restoring the held set afterwards.

        Acquire/release tracked inside one branch never leaks past it —
        optimistic for ELS501 (a leaked "held" would hide reports is the
        direction we refuse) and conservative against false ELS504 fires.
        """
        saved_held = set(self._held)
        saved_async = set(self._async_held)
        self._visit_statements(statements)
        self._held = saved_held
        self._async_held = saved_async

    def _visit_with(self, statement: ast.stmt) -> None:
        is_async = isinstance(statement, ast.AsyncWith)
        entered: List[Tuple[str, bool]] = []
        for item in statement.items:
            self._scan_expression(item.context_expr)
            lock = self._lock_target(item.context_expr)
            if lock is not None:
                self.scan.acquisitions.append(
                    AcquisitionSite(
                        lock, self._ordering_held(), item.context_expr, is_async
                    )
                )
                if is_async:
                    self._async_held.add(lock)
                else:
                    self._held.add(lock)
                entered.append((lock, is_async))
            elif isinstance(item.optional_vars, ast.Name):
                if _terminal_call_name(item.context_expr) in POOL_CONSTRUCTORS:
                    self._pool_names.add(item.optional_vars.id)
        self._visit_statements(statement.body)
        for lock, was_async in entered:
            if was_async:
                self._async_held.discard(lock)
            else:
                self._held.discard(lock)

    def _track_acquire_release(self, node: ast.expr) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        lock = self._lock_target(func.value)
        if lock is None:
            return
        if func.attr == "acquire":
            self.scan.acquisitions.append(
                AcquisitionSite(lock, self._ordering_held(), node, False)
            )
            self._held.add(lock)
        elif func.attr == "release":
            self._held.discard(lock)

    # -- binding -------------------------------------------------------------

    def _bind_target(
        self, target: ast.expr, value: ast.expr, statement: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            rooted = self._root_of(value)
            if rooted is not None:
                self._aliases[target.id] = rooted
            else:
                self._aliases.pop(target.id, None)
            if _terminal_call_name(value) in POOL_CONSTRUCTORS:
                self._pool_names.add(target.id)
            else:
                self._pool_names.discard(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._aliases.pop(element.id, None)
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id in (
                "self",
                "cls",
            ):
                self.scan.attr_stores.add(target.attr)
                self._record_mutation(
                    (("selfattr", target.attr), 0), "attr-store", statement
                )
                return
            rooted = self._root_of(target.value)
            if rooted is not None:
                self._record_mutation(
                    (rooted[0], rooted[1] + 1), "attr-store", statement
                )
            return
        if isinstance(target, ast.Subscript):
            rooted = self._root_of(target.value)
            if rooted is not None:
                self._record_mutation(rooted, "subscript-store", statement)

    def _record_mutation(
        self,
        rooted: Tuple[Tuple[str, str], int],
        op: str,
        node: ast.AST,
    ) -> None:
        (kind, name), depth = rooted
        if op == "attr-store" and kind == "selfattr" and depth == 0:
            # Rebinding self.attr itself is initialization, not container
            # mutation; the guarded contract covers the stored container.
            return
        self.scan.mutations.append(
            SharedMutation((kind, name), depth, op, node, self._held_now())
        )

    # -- expressions ---------------------------------------------------------

    def _scan_expression(self, node: ast.expr) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Await):
                self.scan.await_sites.append(AwaitSite(child, self._held_now()))
            elif isinstance(child, ast.Call):
                self._scan_call(child)

    def _scan_call(self, call: ast.Call) -> None:
        self.scan.calls.append(CallSite(call, self._held_now()))
        self._check_mutator(call)
        description = self._blocking_description(call)
        if description is not None:
            self.scan.blocking_sites.append(
                BlockingSite(call, description, self._held_now())
            )
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_SHIP_METHODS
            and self._is_pool(func.value)
            and call.args
        ):
            self.scan.shipments.append(call.args[0])

    def _check_mutator(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATOR_METHODS:
            return
        rooted = self._root_of(func.value)
        if rooted is not None:
            self._record_mutation(rooted, func.attr, call)

    def _blocking_description(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in ("open", "input"):
                return f"{func.id}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = _attribute_owner_name(func.value, self.module)
        if owner == "time" and func.attr == "sleep":
            return "time.sleep()"
        if owner == "os" and func.attr == "system":
            return "os.system()"
        if owner == "subprocess" and func.attr in _SUBPROCESS_CALLS:
            return f"subprocess.{func.attr}()"
        if func.attr in _PATH_IO_METHODS:
            return f".{func.attr}() file I/O"
        if func.attr in _POOL_BLOCKING_METHODS and self._is_pool(func.value):
            return f"pool.{func.attr}()"
        return None

    def _is_pool(self, receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name):
            if receiver.id in self._pool_names:
                return True
            return "pool" in receiver.id.lower()
        if isinstance(receiver, ast.Attribute):
            return "pool" in receiver.attr.lower()
        return _terminal_call_name(receiver) in POOL_CONSTRUCTORS

    # -- busy waits ----------------------------------------------------------

    def _check_busy_wait(self, loop: ast.While) -> None:
        if not self.scan.is_async:
            return
        for node in ast.walk(loop):
            if isinstance(node, ast.Await):
                return
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DEADLINE_POLL_METHODS
            ):
                self.scan.busy_waits.append(loop)
                return


def scan_function(
    function: FunctionInfo,
    module: ModuleInfo,
    module_globals: FrozenSet[str],
) -> ConcurrencyScan:
    """Scan one function body for concurrency facts."""
    return _Scanner(function, module, module_globals).run()


# ---------------------------------------------------------------------------
# Bottom-up summaries: blocking-ness and acquired locks
# ---------------------------------------------------------------------------


def _declared_blocking(function: FunctionInfo) -> Optional[bool]:
    directive = function.module.directive_on_line(function.node.lineno, "blocking")
    return None if directive is None else directive.blocking


def collect_concurrency_summaries(
    program: Program,
    scans: Dict[int, ConcurrencyScan],
    max_passes: int = 8,
) -> Dict[int, ConcurrencySummary]:
    """Iterate blocking/acquires summaries over the call graph to a fixpoint.

    Keys are ``id(FunctionInfo)``.  A ``blocking=`` directive pins the
    blocking component in both directions; the acquires component always
    accumulates (a pinned-nonblocking function can still take locks).
    """
    summaries: Dict[int, ConcurrencySummary] = {}
    for module in program.modules:
        for function in module.functions:
            scan = scans.get(id(function))
            declared = _declared_blocking(function)
            blocking = (
                declared
                if declared is not None
                else bool(scan and scan.blocking_sites)
            )
            acquires = frozenset(
                site.lock for site in (scan.acquisitions if scan else [])
            )
            summaries[id(function)] = ConcurrencySummary(
                blocking=blocking, acquires=acquires, declared=declared
            )
    for _ in range(max_passes):
        changed = False
        for module in program.modules:
            for function in module.functions:
                scan = scans.get(id(function))
                if scan is None:
                    continue
                current = summaries[id(function)]
                blocking = current.blocking
                acquires = set(current.acquires)
                enclosing = function.qualname.rsplit(".", 1)
                enclosing_class = enclosing[0] if len(enclosing) == 2 else None
                for site in scan.calls:
                    callee = resolve_confident(
                        program, site.call, module, enclosing_class
                    )
                    if callee is None:
                        continue
                    callee_summary = summaries.get(id(callee))
                    if callee_summary is None:
                        continue
                    if callee_summary.blocking and current.declared is None:
                        blocking = True
                    acquires |= callee_summary.acquires
                updated = ConcurrencySummary(
                    blocking=blocking,
                    acquires=frozenset(acquires),
                    declared=current.declared,
                )
                if updated != current:
                    summaries[id(function)] = updated
                    changed = True
        if not changed:
            break
    return summaries


# ---------------------------------------------------------------------------
# Top-down guarantee: locks every resolved caller holds at the call site
# ---------------------------------------------------------------------------


def collect_inherited_locks(
    program: Program,
    scans: Dict[int, ConcurrencyScan],
    max_passes: int = 8,
) -> Dict[int, Optional[FrozenSet[str]]]:
    """The locks each function is *guaranteed* to run under.

    ``inherited(f)`` is the intersection, over every resolved call site
    of ``f``, of the locks held at the site plus the caller's own
    guarantee.  Functions with no resolved caller (entry points) have an
    empty guarantee.  ``None`` means *unconstrained* (the function is
    only reachable through cycles the iteration never grounded) — the
    caller must treat that optimistically and stay silent.
    """
    call_sites: List[Tuple[FunctionInfo, FunctionInfo, FrozenSet[str]]] = []
    for module in program.modules:
        for function in module.functions:
            scan = scans.get(id(function))
            if scan is None:
                continue
            enclosing = function.qualname.rsplit(".", 1)
            enclosing_class = enclosing[0] if len(enclosing) == 2 else None
            for site in scan.calls:
                callee = resolve_confident(
                    program, site.call, module, enclosing_class
                )
                if callee is not None:
                    call_sites.append((function, callee, site.held))
    incoming: Dict[int, int] = {}
    for _, callee, _ in call_sites:
        incoming[id(callee)] = incoming.get(id(callee), 0) + 1
    inherited: Dict[int, Optional[FrozenSet[str]]] = {}
    for module in program.modules:
        for function in module.functions:
            if incoming.get(id(function), 0) == 0:
                inherited[id(function)] = frozenset()
            else:
                inherited[id(function)] = None  # top: not yet constrained
    for _ in range(max_passes):
        changed = False
        meets: Dict[int, Optional[FrozenSet[str]]] = {}
        for caller, callee, held in call_sites:
            caller_guarantee = inherited.get(id(caller))
            if caller_guarantee is None:
                contribution: Optional[FrozenSet[str]] = None  # still top
            else:
                contribution = held | caller_guarantee
            key = id(callee)
            if key not in meets:
                meets[key] = contribution
            elif contribution is not None:
                current = meets[key]
                meets[key] = (
                    contribution if current is None else current & contribution
                )
        for key, value in meets.items():
            if value is not None and inherited.get(key) != value:
                previous = inherited.get(key)
                if previous is None or value < previous:
                    inherited[key] = value
                    changed = True
        if not changed:
            break
    return inherited


# ---------------------------------------------------------------------------
# Shared AST helpers (kept local: the layer must stay import-light)
# ---------------------------------------------------------------------------


def _terminal_call_name(node: ast.expr) -> Optional[str]:
    """The rightmost name of a call expression (``ctx.Pool`` -> ``Pool``)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attribute_owner_name(node: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Resolve the module an attribute call is made on, via import aliases."""
    if isinstance(node, ast.Name):
        return module.imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
