"""Bottom-up raised-exception summaries for the contract layer.

Each analyzed function gets one summary: the set of exception *class
names* that may escape a call to it, computed as raises-in-body, union
callee summaries at resolved call sites, minus whatever enclosing
``try`` blocks provably catch.  Mutual recursion converges because the
summaries only grow on a finite name set, so the driver iterates to a
fixpoint exactly like the quantity lattice in
:mod:`repro.lint.dataflow.analysis`.

The analysis is optimistic on purpose: an unresolvable call, a
dynamically computed exception, or a bare ``raise`` under a broad
handler contributes nothing.  Every name in a summary traces back to a
literal ``raise SomeName(...)`` somewhere in the analyzed set, which is
what keeps ELS703–ELS705 free of false positives at the price of
missing exotic escapes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..dataflow.summaries import ModuleInfo, Program

__all__ = [
    "ExceptionHierarchy",
    "collect_hierarchy",
    "compute_raise_summaries",
    "direct_raises",
    "handler_is_broad",
    "handler_is_silent",
    "summary_key",
    "try_body_raises",
]

#: Partial parent map of the builtin exception tree — enough to filter
#: ``except`` clauses over the exceptions this codebase actually raises.
_BUILTIN_PARENTS: Dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "JSONDecodeError": "ValueError",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}

#: Summary key: stable across re-analysis of the same file set.
SummaryKey = Tuple[str, str]

#: The summaries table threaded through the walkers.
Summaries = Dict[SummaryKey, FrozenSet[str]]


def summary_key(path: str, qualname: str) -> SummaryKey:
    """The table key of one analyzed function."""
    return (path, qualname)


@dataclass(frozen=True)
class ExceptionHierarchy:
    """Name-level class hierarchy: builtins plus analyzed ``ClassDef``s.

    Attributes:
        parents: child class name -> first-base class name.
        analyzed: names defined by a ``ClassDef`` in the analyzed set.
    """

    parents: Dict[str, str]
    analyzed: FrozenSet[str]

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """Whether ``name`` is ``ancestor`` or a (known) descendant."""
        seen: Set[str] = set()
        current: Optional[str] = name
        while current is not None and current not in seen:
            if current == ancestor:
                return True
            seen.add(current)
            current = self.parents.get(current)
        return False

    def is_repro_error(self, name: str) -> bool:
        """Whether ``name`` descends from the package's ``ReproError``."""
        return self.is_subclass(name, "ReproError")

    def is_analyzed_class(self, name: str) -> bool:
        """Whether the analyzed file set defines a class called ``name``."""
        return name in self.analyzed


def collect_hierarchy(program: Program) -> ExceptionHierarchy:
    """Merge the builtin parent map with every analyzed ``ClassDef``.

    Only the first base matters (the error taxonomy is single
    inheritance) and builtin entries win on a name collision, so a
    shadowing class cannot silently rewire the builtin tree.
    """
    parents = dict(_BUILTIN_PARENTS)
    analyzed: Set[str] = set()
    for module in program.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            analyzed.add(node.name)
            if not node.bases:
                continue
            base = node.bases[0]
            if isinstance(base, ast.Name):
                parent = module.imports.get(base.id, base.id)
            elif isinstance(base, ast.Attribute):
                parent = base.attr
            else:
                continue
            if node.name not in _BUILTIN_PARENTS:
                parents.setdefault(node.name, parent)
    return ExceptionHierarchy(parents=parents, analyzed=frozenset(analyzed))


# ---------------------------------------------------------------------------
# The raise-set walker
# ---------------------------------------------------------------------------

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Handler context sentinel: a broad/bare handler — a bare ``raise``
#: under it re-raises something we cannot name, so it contributes
#: nothing (optimistic).
_UNKNOWN_HANDLER = None


@dataclass
class _Context:
    """Everything the walker needs; ``program=None`` ignores calls."""

    program: Optional[Program]
    module: ModuleInfo
    enclosing_class: Optional[str]
    hierarchy: ExceptionHierarchy


class _CallSite(NamedTuple):
    """A resolved call: its callee's summary escapes unless caught.

    ``guards`` are the enclosing ``try`` statements whose *body* holds
    the call (innermost first); a name escapes only when no handler of
    any of them catches it.
    """

    key: SummaryKey
    guards: Tuple[ast.Try, ...] = ()


#: What the walker yields: a literal exception name, or a call site
#: whose names are read from the summary table when it is evaluated.
_Raised = Union[str, _CallSite]


def _exception_terminal(node: ast.expr, module: ModuleInfo) -> Optional[str]:
    """The class name a ``raise`` operand denotes, or ``None``.

    ``raise E``, ``raise E(...)``, ``raise errors.E`` and
    ``raise errors.E(...)`` all resolve to the terminal ``E``; anything
    dynamic (``raise make_error()``, ``raise exc_var``) stays unknown.
    """
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        name = module.imports.get(node.id, node.id)
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    if not name or not name[0].isupper():
        return None
    return name


def _handler_type_names(
    handler: ast.ExceptHandler, module: ModuleInfo
) -> Optional[Tuple[str, ...]]:
    """Declared exception names of a handler; ``None`` when it is broad.

    Broad means bare ``except:``, ``except Exception``/``BaseException``
    (possibly inside a tuple), or an undecipherable type expression —
    all of which catch more than any specific name set can describe.
    """
    if handler.type is None:
        return _UNKNOWN_HANDLER
    elements: Sequence[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        elements = handler.type.elts
    else:
        elements = [handler.type]
    names: List[str] = []
    for element in elements:
        name = _exception_terminal(element, module)
        if name is None:
            return _UNKNOWN_HANDLER
        if name in ("Exception", "BaseException"):
            return _UNKNOWN_HANDLER
        names.append(name)
    return tuple(names)


def handler_is_broad(handler: ast.ExceptHandler, module: ModuleInfo) -> bool:
    """Whether the handler catches ``Exception``-or-wider."""
    return _handler_type_names(handler, module) is _UNKNOWN_HANDLER


def handler_is_silent(handler: ast.ExceptHandler) -> bool:
    """Whether the handler discards the exception it caught.

    Silent means the body never re-``raise``s and, when the exception is
    bound (``as exc``), never reads the bound name — so the caught error
    cannot influence anything downstream.
    """
    for stmt in handler.body:
        for node in _walk_skipping_defs(stmt):
            if isinstance(node, ast.Raise):
                return False
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
            ):
                return False
    return True


def _walk_skipping_defs(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs or lambdas."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF_NODES + (ast.Lambda,)):
                continue
            stack.append(child)


def _calls_in_expression(node: ast.AST) -> Iterator[ast.Call]:
    for child in _walk_skipping_defs(node):
        if isinstance(child, ast.Call):
            yield child


def _raised_by_calls(node: ast.AST, ctx: _Context) -> Set[_Raised]:
    if ctx.program is None:
        return set()
    raised: Set[_Raised] = set()
    for call in _calls_in_expression(node):
        callee = ctx.program.resolve_call(call, ctx.module, ctx.enclosing_class)
        if callee is not None:
            raised.add(_CallSite(summary_key(callee.module.path, callee.qualname)))
    return raised


def _try_catches(
    node: ast.Try,
    name: str,
    module: ModuleInfo,
    hierarchy: ExceptionHierarchy,
) -> bool:
    """Whether some handler of ``node`` catches ``name``."""
    for handler in node.handlers:
        declared = _handler_type_names(handler, module)
        if declared is _UNKNOWN_HANDLER:
            return True
        if any(hierarchy.is_subclass(name, caught) for caught in declared):
            return True
    return False


def _raised_in_try(
    node: ast.Try,
    ctx: _Context,
    handler_types: Optional[Tuple[str, ...]],
) -> Set[_Raised]:
    body_raised = _raised_in_statements(node.body, ctx, handler_types)
    escaping: Set[_Raised] = set()
    for item in body_raised:
        if isinstance(item, _CallSite):
            escaping.add(item._replace(guards=item.guards + (node,)))
        elif not _try_catches(node, item, ctx.module, ctx.hierarchy):
            escaping.add(item)
    for handler in node.handlers:
        declared = _handler_type_names(handler, ctx.module)
        escaping |= _raised_in_statements(handler.body, ctx, declared)
    # ``else`` and ``finally`` raise past the handlers of this ``try``.
    escaping |= _raised_in_statements(node.orelse, ctx, handler_types)
    escaping |= _raised_in_statements(node.finalbody, ctx, handler_types)
    return escaping


def _raised_in_statements(
    stmts: Sequence[ast.stmt],
    ctx: _Context,
    handler_types: Optional[Tuple[str, ...]],
) -> Set[_Raised]:
    """Escaping raise-set of a statement block, calls left symbolic.

    ``handler_types`` is the declared type tuple of the innermost
    enclosing ``except`` clause (for resolving bare ``raise``), or
    ``None`` outside handlers and under broad ones.
    """
    raised: Set[_Raised] = set()
    for stmt in stmts:
        if isinstance(stmt, _DEF_NODES):
            continue
        if isinstance(stmt, ast.Try):
            raised |= _raised_in_try(stmt, ctx, handler_types)
            continue
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                if handler_types is not _UNKNOWN_HANDLER:
                    raised.update(handler_types)
            else:
                name = _exception_terminal(stmt.exc, ctx.module)
                if name is not None:
                    raised.add(name)
                raised |= _raised_by_calls(stmt.exc, ctx)
            continue
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                raised |= _raised_in_statements(value, ctx, handler_types)
            elif isinstance(value, ast.ExceptHandler):  # pragma: no cover
                continue
            elif isinstance(value, ast.AST):
                raised |= _raised_by_calls(value, ctx)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        raised |= _raised_by_calls(item, ctx)
    return raised


# ---------------------------------------------------------------------------
# Fixpoint driver and rule-facing helpers
# ---------------------------------------------------------------------------


def _evaluate(
    raised: Set[_Raised],
    summaries: Summaries,
    module: ModuleInfo,
    hierarchy: ExceptionHierarchy,
) -> Set[str]:
    """The names a symbolic raise-set stands for under ``summaries``."""
    names: Set[str] = set()
    for item in raised:
        if not isinstance(item, _CallSite):
            names.add(item)
        elif not item.guards:
            names |= summaries.get(item.key, frozenset())
        else:
            names.update(
                name
                for name in summaries.get(item.key, frozenset())
                if not any(
                    _try_catches(guard, name, module, hierarchy)
                    for guard in item.guards
                )
            )
    return names


def compute_raise_summaries(
    program: Program,
    hierarchy: ExceptionHierarchy,
    max_passes: int = 8,
) -> Summaries:
    """Iterate per-function raise-sets to a fixpoint.

    Each body is walked once, up front: literal raises are filtered
    through their enclosing handlers right away, and call sites are
    resolved to summary keys under their ``try`` guards.  An iteration
    then only reads callee summaries back through those guards.
    Summaries only grow, so convergence is guaranteed; ``max_passes``
    merely bounds pathological call-chain depth the same way the
    quantity fixpoint does.
    """
    summaries: Summaries = {}
    plans = []
    for module in program.modules:
        for function in module.functions:
            key = summary_key(module.path, function.qualname)
            summaries[key] = frozenset()
            enclosing = (
                function.qualname.rsplit(".", 1)[0]
                if "." in function.qualname
                else None
            )
            ctx = _Context(program, module, enclosing, hierarchy)
            raised = _raised_in_statements(function.node.body, ctx, _UNKNOWN_HANDLER)
            plans.append((key, module, raised))
    for _ in range(max_passes):
        changed = False
        for key, module, raised in plans:
            names = frozenset(_evaluate(raised, summaries, module, hierarchy))
            if names != summaries[key]:
                summaries[key] = names
                changed = True
        if not changed:
            break
    return summaries


def direct_raises(
    function_node: ast.AST,
    module: ModuleInfo,
    hierarchy: ExceptionHierarchy,
) -> Set[str]:
    """Exception names the function itself raises *and lets escape*.

    Callee propagation is deliberately excluded: this is the set the
    docstring rule (ELS705) holds the author responsible for
    documenting.
    """
    ctx = _Context(
        program=None,
        module=module,
        enclosing_class=None,
        hierarchy=hierarchy,
    )
    raised = _raised_in_statements(function_node.body, ctx, _UNKNOWN_HANDLER)
    return {item for item in raised if isinstance(item, str)}


def try_body_raises(
    node: ast.Try,
    program: Program,
    module: ModuleInfo,
    enclosing_class: Optional[str],
    summaries: Summaries,
    hierarchy: ExceptionHierarchy,
) -> Set[str]:
    """The computed raise-set of one ``try`` body (for ELS704)."""
    ctx = _Context(program, module, enclosing_class, hierarchy)
    raised = _raised_in_statements(node.body, ctx, _UNKNOWN_HANDLER)
    return _evaluate(raised, summaries, module, hierarchy)
