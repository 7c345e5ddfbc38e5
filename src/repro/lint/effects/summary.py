"""Per-function effect facts and bottom-up effect summaries.

One :class:`FunctionScan` walks a single function body in textual order
and records, with a lightweight alias analysis, everything the ELS4xx
rules need:

* **mutations** — every in-place mutation site (mutator method call,
  subscript store/delete, attribute store, augmented assignment on a
  container), attributed to the *root* object it reaches: a parameter, a
  ``self`` attribute, or nothing provable.  Each site carries a *depth*:
  ``0`` mutates the root object itself (``self._cache[k] = v`` fills the
  cache), ``>= 1`` mutates a value *reached through* it
  (``self._cache[k].append(x)`` corrupts a cached value).
* **nondeterminism sites** — ambient module-level RNG calls
  (``random.shuffle(...)``), unseeded ``Random()`` / ``default_rng()``
  constructions, and entropy sources (``os.urandom``, ``uuid4``,
  ``secrets``).
* **returns** — every ``return`` whose value aliases a root, for the
  copy-on-return rule.
* **pool shipments** — callables and arguments handed to
  ``multiprocessing.Pool`` / ``ProcessPoolExecutor`` methods.
* **calls** — every call site, for interprocedural propagation.

The alias tracking is deliberately optimistic: an expression whose root
cannot be proven contributes nothing, so every ELS4xx report rests on a
chain the scan actually established.  :func:`collect_effect_summaries`
then iterates :class:`EffectSummary` values bottom-up over the resolved
call graph (the same scheme as the ELS3xx quantity fixpoint), so a
function that mutates its argument three calls deep still taints the
top-level call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dataflow.summaries import FunctionInfo, ModuleInfo, Program

__all__ = [
    "EffectSummary",
    "FunctionScan",
    "MutationSite",
    "NondetSite",
    "PoolShipment",
    "ReturnSite",
    "MUTATOR_METHODS",
    "collect_effect_summaries",
    "is_cache_attr",
    "provably_mutable",
    "scan_function",
]

#: Methods that mutate their receiver in place (lists, sets, dicts,
#: OrderedDict, deque).
MUTATOR_METHODS = frozenset(
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

#: Attribute names treated as memoization storage even without a
#: ``cache``/``memo`` token in the name (the repo's established caches).
_CACHE_EXACT_NAMES = frozenset({"_entries", "_materialized", "_tuples"})

#: ``random`` module members that read or advance the *ambient* global
#: RNG state (``seed`` excluded: calling it is a determinism decision).
RNG_MODULE_CALLS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
        "rand",
        "randn",
    }
)

#: ``secrets`` module members (all of them are entropy reads).
_SECRETS_CALLS = frozenset(
    {"token_bytes", "token_hex", "token_urlsafe", "randbelow", "randbits", "choice"}
)

#: Constructors that return a *fresh* container (break an alias chain).
_FRESH_CALLS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "sorted", "copy", "deepcopy"}
)

#: Pool/executor methods that ship a callable to worker processes.
POOL_SHIP_METHODS = frozenset(
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

#: Constructors whose result is a process pool handle.
_POOL_CONSTRUCTORS = frozenset({"Pool", "ProcessPoolExecutor"})

#: A root: ("param", name) or ("selfattr", attribute).
Root = Tuple[str, str]


def is_cache_attr(name: str) -> bool:
    """Heuristic: does this attribute name denote memoization storage?"""
    lowered = name.lower()
    return "cache" in lowered or "memo" in lowered or name in _CACHE_EXACT_NAMES


@dataclass(frozen=True)
class EffectSummary:
    """The caller-visible effects of one function.

    Attributes:
        mutates_params: Parameter names the function (transitively)
            mutates in place.
        reads_nondeterminism: True when the function (transitively) reads
            ambient or unseeded randomness.
        declared: Canonical ``# els: effect=`` override on the ``def``
            line (``"pure"``, ``"mutates"``, ``"nondet"``), if any.
    """

    mutates_params: FrozenSet[str] = frozenset()
    reads_nondeterminism: bool = False
    declared: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable mapping (for the incremental lint cache)."""
        return {
            "mutates_params": sorted(self.mutates_params),
            "reads_nondeterminism": self.reads_nondeterminism,
            "declared": self.declared,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "EffectSummary":
        """Rebuild a summary from :meth:`to_dict` (inverse round-trip).

        Raises:
            KeyError, ValueError, TypeError: on a malformed mapping (the
                cache treats these as a corrupt entry = cold miss).
        """
        declared = row.get("declared")
        return cls(
            mutates_params=frozenset(
                str(name) for name in row["mutates_params"]  # type: ignore[union-attr]
            ),
            reads_nondeterminism=bool(row["reads_nondeterminism"]),
            declared=None if declared is None else str(declared),
        )


@dataclass(frozen=True)
class MutationSite:
    """One in-place mutation, attributed to a proven root."""

    root: Root
    depth: int
    op: str
    node: ast.AST


@dataclass(frozen=True)
class NondetSite:
    """One read of ambient or unseeded randomness."""

    node: ast.AST
    description: str


@dataclass(frozen=True)
class ReturnSite:
    """One ``return`` whose value aliases a proven root."""

    root: Root
    depth: int
    node: ast.AST


@dataclass(frozen=True)
class PoolShipment:
    """One callable-plus-arguments handoff to a process pool."""

    call: ast.Call
    method: str
    callable_node: Optional[ast.AST]
    data_args: Tuple[ast.AST, ...]


@dataclass
class FunctionScan:
    """Everything one pass over a function body collected."""

    function: FunctionInfo
    mutations: List[MutationSite] = field(default_factory=list)
    nondet_sites: List[NondetSite] = field(default_factory=list)
    returns: List[ReturnSite] = field(default_factory=list)
    shipments: List[PoolShipment] = field(default_factory=list)
    calls: List[ast.Call] = field(default_factory=list)
    #: Attribute stores ``self.X = expr`` outside nothing — (attr, value
    #: expr, node, local env snapshot) for store-site mutability checks.
    attr_stores: List[Tuple[str, ast.expr, ast.AST, Dict[str, ast.expr]]] = field(
        default_factory=list
    )
    #: Subscript stores ``self.X[k] = expr`` at depth 0 (cache fills).
    subscript_stores: List[Tuple[str, ast.expr, ast.AST, Dict[str, ast.expr]]] = field(
        default_factory=list
    )
    #: Names of functions/lambda-holding defs nested inside this body.
    nested_defs: Set[str] = field(default_factory=set)
    #: ``id(call)`` -> (positional arg roots, keyword arg roots), each an
    #: optional ``(root, depth)`` as proven at the call site.
    call_arg_roots: Dict[
        int,
        Tuple[
            Tuple[Optional[Tuple[Root, int]], ...],
            Dict[str, Optional[Tuple[Root, int]]],
        ],
    ] = field(default_factory=dict)


class _Scanner:
    """Textual-order statement walker building a :class:`FunctionScan`."""

    def __init__(self, function: FunctionInfo, module: ModuleInfo) -> None:
        self.function = function
        self.module = module
        self.scan = FunctionScan(function)
        self._aliases: Dict[str, Tuple[Root, int]] = {}
        self._locals: Dict[str, ast.expr] = {}
        self._pool_names: Set[str] = set()
        args = function.node.args
        self._params = {
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if a.arg not in ("self", "cls")
        }

    # -- roots ---------------------------------------------------------------

    def _root_of(self, node: ast.expr) -> Optional[Tuple[Root, int]]:
        """The proven (root, depth) an expression's value is reached by."""
        if isinstance(node, ast.Name):
            if node.id in self._aliases:
                return self._aliases[node.id]
            if node.id in self._params:
                return (("param", node.id), 0)
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
            if isinstance(func, ast.Name) and func.id in _FRESH_CALLS:
                return None
            if isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault"):
                inner = self._root_of(func.value)
                if inner is not None:
                    return (inner[0], inner[1] + 1)
            return None
        if isinstance(node, ast.IfExp):
            body = self._root_of(node.body)
            orelse = self._root_of(node.orelse)
            return body if body == orelse else (body or orelse)
        if hasattr(ast, "NamedExpr") and isinstance(node, ast.NamedExpr):
            return self._root_of(node.value)
        if isinstance(node, ast.Starred):
            return self._root_of(node.value)
        return None

    # -- driver --------------------------------------------------------------

    def run(self) -> FunctionScan:
        body = getattr(self.function.node, "body", [])
        self._visit_statements(body)
        return self.scan

    def _visit_statements(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self._visit_statement(statement)

    def _visit_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scan.nested_defs.add(statement.name)
            return  # nested scopes are opaque to the alias analysis
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
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                self.scan.attr_stores.append(
                    (target.attr, statement.value, statement, dict(self._locals))
                )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_store_mutation(target, statement, "augassign")
            return
        if isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Subscript):
                    rooted = self._root_of(target.value)
                    if rooted is not None:
                        self.scan.mutations.append(
                            MutationSite(rooted[0], rooted[1], "subscript-delete", statement)
                        )
                elif isinstance(target, ast.Name):
                    self._aliases.pop(target.id, None)
                    self._locals.pop(target.id, None)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self._scan_expression(statement.value)
                rooted = self._root_of(statement.value)
                if rooted is not None:
                    self.scan.returns.append(
                        ReturnSite(rooted[0], rooted[1], statement)
                    )
            return
        if isinstance(statement, (ast.Expr, ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self._scan_expression(child)
            return
        if isinstance(statement, (ast.If, ast.While)):
            self._scan_expression(statement.test)
            self._visit_statements(statement.body)
            self._visit_statements(statement.orelse)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._scan_expression(statement.iter)
            rooted = self._root_of(statement.iter)
            if isinstance(statement.target, ast.Name):
                if rooted is not None:
                    self._aliases[statement.target.id] = (rooted[0], rooted[1] + 1)
                else:
                    self._aliases.pop(statement.target.id, None)
            self._visit_statements(statement.body)
            self._visit_statements(statement.orelse)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._scan_expression(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind_from_value(
                        item.optional_vars.id, item.context_expr
                    )
            self._visit_statements(statement.body)
            return
        if isinstance(statement, ast.Try):
            self._visit_statements(statement.body)
            for handler in statement.handlers:
                self._visit_statements(handler.body)
            self._visit_statements(statement.orelse)
            self._visit_statements(statement.finalbody)
            return
        # Everything else (pass, break, continue, global, import, ...) is
        # effect-free at this level.

    # -- binding -------------------------------------------------------------

    def _bind_target(
        self, target: ast.expr, value: ast.expr, statement: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind_from_value(target.id, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._aliases.pop(element.id, None)
                    self._locals.pop(element.id, None)
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id in (
                "self",
                "cls",
            ):
                self.scan.attr_stores.append(
                    (target.attr, value, statement, dict(self._locals))
                )
                return
            self._record_store_mutation(target, statement, "attr-store")
            return
        if isinstance(target, ast.Subscript):
            rooted = self._root_of(target.value)
            if rooted is not None and rooted[1] == 0 and rooted[0][0] == "selfattr":
                self.scan.subscript_stores.append(
                    (rooted[0][1], value, statement, dict(self._locals))
                )
            self._record_store_mutation(target, statement, "subscript-store")

    def _bind_from_value(self, name: str, value: ast.expr) -> None:
        self._locals[name] = value
        rooted = self._root_of(value)
        if rooted is not None:
            self._aliases[name] = rooted
        else:
            self._aliases.pop(name, None)
        if _terminal_call_name(value) in _POOL_CONSTRUCTORS:
            self._pool_names.add(name)
        elif name in self._pool_names:
            self._pool_names.discard(name)

    def _record_store_mutation(
        self, target: ast.expr, statement: ast.stmt, op: str
    ) -> None:
        if isinstance(target, ast.Subscript):
            rooted = self._root_of(target.value)
        elif isinstance(target, ast.Attribute):
            rooted = self._root_of(target.value)
        else:  # pragma: no cover - callers pass Subscript/Attribute only
            rooted = None
        if rooted is not None:
            self.scan.mutations.append(
                MutationSite(rooted[0], rooted[1], op, statement)
            )

    # -- expressions ---------------------------------------------------------

    def _scan_expression(self, node: ast.expr) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._scan_call(child)
            elif isinstance(child, ast.Lambda):
                pass  # body belongs to another scope; handled at ship sites

    def _scan_call(self, call: ast.Call) -> None:
        self.scan.calls.append(call)
        self.scan.call_arg_roots[id(call)] = (
            tuple(
                None if isinstance(argument, ast.Starred) else self._root_of(argument)
                for argument in call.args
            ),
            {
                keyword.arg: self._root_of(keyword.value)
                for keyword in call.keywords
                if keyword.arg is not None
            },
        )
        self._check_mutator(call)
        self._check_nondeterminism(call)
        self._check_pool_shipment(call)

    def _check_mutator(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return
        rooted = self._root_of(func.value)
        if rooted is not None:
            self.scan.mutations.append(
                MutationSite(rooted[0], rooted[1], func.attr, call)
            )

    def _check_nondeterminism(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            owner = _attribute_owner_name(func.value, self.module)
            if owner == "random" and func.attr in RNG_MODULE_CALLS:
                self.scan.nondet_sites.append(
                    NondetSite(call, f"ambient RNG call random.{func.attr}()")
                )
                return
            if owner == "secrets" and func.attr in _SECRETS_CALLS:
                self.scan.nondet_sites.append(
                    NondetSite(call, f"entropy read secrets.{func.attr}()")
                )
                return
            if owner == "os" and func.attr == "urandom":
                self.scan.nondet_sites.append(
                    NondetSite(call, "entropy read os.urandom()")
                )
                return
        name = _terminal_call_name(call)
        if name == "uuid4":
            self.scan.nondet_sites.append(NondetSite(call, "entropy read uuid4()"))
            return
        if name in ("Random", "default_rng") and not call.args and not call.keywords:
            self.scan.nondet_sites.append(
                NondetSite(call, f"unseeded {name}() construction")
            )

    def _check_pool_shipment(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in POOL_SHIP_METHODS:
            return
        receiver = func.value
        is_pool = (
            isinstance(receiver, ast.Name) and receiver.id in self._pool_names
        ) or _terminal_call_name(receiver) in _POOL_CONSTRUCTORS
        if not is_pool:
            return
        callable_node = call.args[0] if call.args else None
        self.scan.shipments.append(
            PoolShipment(
                call=call,
                method=func.attr,
                callable_node=callable_node,
                data_args=tuple(call.args[1:]),
            )
        )


def scan_function(function: FunctionInfo, module: ModuleInfo) -> FunctionScan:
    """Scan one function body for effect facts."""
    return _Scanner(function, module).run()


# ---------------------------------------------------------------------------
# Stored-value mutability
# ---------------------------------------------------------------------------


def provably_mutable(
    node: Optional[ast.expr], local_env: Optional[Dict[str, ast.expr]] = None
) -> bool:
    """True when an expression *provably* evaluates to a mutable container
    (or an immutable container holding one).

    The check is optimistic: anything unresolvable is treated as
    immutable, so the copy-on-return rule (ELS406) only fires on stores
    whose mutability is established from literals, ``list``/``dict``/
    ``set`` constructions, or single-assignment locals.
    """
    env = local_env or {}
    return _mutable(node, env, depth=0)


def _mutable(node: Optional[ast.expr], env: Dict[str, ast.expr], depth: int) -> bool:
    if node is None or depth > 8:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Tuple):
        return any(_mutable(element, env, depth + 1) for element in node.elts)
    if isinstance(node, ast.Name):
        assigned = env.get(node.id)
        if assigned is not None and assigned is not node:
            return _mutable(assigned, env, depth + 1)
        return False
    if isinstance(node, ast.Call):
        name = _terminal_call_name(node)
        if name in ("list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque"):
            return True
        if name in ("tuple", "frozenset", "sorted"):
            if name == "sorted":
                return True  # sorted() always builds a fresh *list*
            return any(_element_mutable(arg, env, depth + 1) for arg in node.args)
        return False
    if isinstance(node, ast.GeneratorExp):
        return _mutable(node.elt, env, depth + 1)
    return False


def _element_mutable(node: ast.expr, env: Dict[str, ast.expr], depth: int) -> bool:
    """Would the *elements* produced by iterating ``node`` be mutable?"""
    if isinstance(node, ast.GeneratorExp):
        return _mutable(node.elt, env, depth)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return any(_mutable(element, env, depth) for element in node.elts)
    if isinstance(node, ast.Call) and _terminal_call_name(node) == "zip":
        return False  # zip() yields tuples
    if isinstance(node, ast.Name):
        assigned = env.get(node.id)
        if assigned is not None and assigned is not node:
            return _element_mutable(assigned, env, depth)
    return False


# ---------------------------------------------------------------------------
# Interprocedural summaries
# ---------------------------------------------------------------------------


def _declared_effect(function: FunctionInfo) -> Optional[str]:
    directive = function.module.directive_on_line(function.node.lineno, "effect")
    return None if directive is None else directive.effect


def _map_arguments(
    call: ast.Call, callee: FunctionInfo
) -> List[Tuple[str, ast.expr]]:
    """Pair call argument expressions with callee parameter names."""
    callee_args = callee.node.args
    parameters = [
        parameter.arg
        for parameter in list(callee_args.posonlyargs) + list(callee_args.args)
        if parameter.arg not in ("self", "cls")
    ]
    pairs: List[Tuple[str, ast.expr]] = []
    for index, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            continue
        if index < len(parameters):
            pairs.append((parameters[index], argument))
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in parameters:
            pairs.append((keyword.arg, keyword.value))
    return pairs


def collect_effect_summaries(
    program: Program,
    scans: Dict[int, FunctionScan],
    max_passes: int = 8,
) -> Dict[int, EffectSummary]:
    """Iterate effect summaries over the call graph to a fixpoint.

    Keys are ``id(FunctionInfo)``.  A declared ``effect=pure`` pins a
    function to the empty effect; ``effect=mutates`` marks every
    parameter mutated; ``effect=nondet`` marks it nondeterministic.
    """
    summaries: Dict[int, EffectSummary] = {}
    for module in program.modules:
        for function in module.functions:
            declared = _declared_effect(function)
            summaries[id(function)] = _base_summary(
                function, scans.get(id(function)), declared
            )
    for _ in range(max_passes):
        changed = False
        for module in program.modules:
            for function in module.functions:
                current = summaries[id(function)]
                if current.declared in ("pure", "mutates"):
                    continue  # declarations pin the mutation component
                updated = _propagate_one(
                    program, module, function, scans, summaries, current
                )
                if updated != current:
                    summaries[id(function)] = updated
                    changed = True
        if not changed:
            break
    return summaries


def _base_summary(
    function: FunctionInfo,
    scan: Optional[FunctionScan],
    declared: Optional[str],
) -> EffectSummary:
    if declared == "pure":
        return EffectSummary(declared="pure")
    if declared == "mutates":
        args = function.node.args
        params = frozenset(
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if a.arg not in ("self", "cls")
        )
        return EffectSummary(mutates_params=params, declared="mutates")
    mutated = frozenset(
        site.root[1]
        for site in (scan.mutations if scan else [])
        if site.root[0] == "param"
    )
    nondet = bool(scan and scan.nondet_sites) or declared == "nondet"
    return EffectSummary(
        mutates_params=mutated, reads_nondeterminism=nondet, declared=declared
    )


def _propagate_one(
    program: Program,
    module: ModuleInfo,
    function: FunctionInfo,
    scans: Dict[int, FunctionScan],
    summaries: Dict[int, EffectSummary],
    current: EffectSummary,
) -> EffectSummary:
    scan = scans.get(id(function))
    if scan is None:
        return current
    enclosing = function.qualname.rsplit(".", 1)
    enclosing_class = enclosing[0] if len(enclosing) == 2 else None
    mutated = set(current.mutates_params)
    nondet = current.reads_nondeterminism
    for call in scan.calls:
        callee = program.resolve_call(call, module, enclosing_class)
        if callee is None:
            continue
        callee_summary = summaries.get(id(callee))
        if callee_summary is None or callee_summary.declared == "pure":
            continue
        if callee_summary.reads_nondeterminism and current.declared != "pure":
            nondet = True
        if callee_summary.mutates_params:
            for parameter, argument in _map_arguments(call, callee):
                if parameter not in callee_summary.mutates_params:
                    continue
                if isinstance(argument, ast.Name):
                    # The caller's own parameter handed through: the
                    # mutation escapes another level up.
                    args = function.node.args
                    caller_params = {
                        a.arg
                        for a in list(args.posonlyargs)
                        + list(args.args)
                        + list(args.kwonlyargs)
                    }
                    if argument.id in caller_params:
                        mutated.add(argument.id)
    return EffectSummary(
        mutates_params=frozenset(mutated),
        reads_nondeterminism=nondet,
        declared=current.declared,
    )


# ---------------------------------------------------------------------------
# Shared AST helpers
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
    """Resolve the module an attribute call is made on, via import aliases.

    ``random.shuffle`` -> ``"random"`` (also under ``import random as rnd``);
    ``np.random.shuffle`` -> ``"random"`` (the trailing ``.random`` chain).
    """
    if isinstance(node, ast.Name):
        return module.imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
