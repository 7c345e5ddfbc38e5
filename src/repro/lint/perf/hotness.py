"""The "hotness" fixpoint: which functions sit on estimation hot paths.

The ELS6xx performance rules only make sense on code that runs once per
row, per block, or per candidate plan — a quadratic membership test in a
CLI argument parser is noise, the same test inside a join loop erases
the columnar engine's speedup.  Hotness is therefore computed first and
every other rule in :mod:`repro.lint.perf.analysis` is gated on it.

A function is a **hot root** when any of these hold:

* it carries an explicit ``# els: hot=yes`` directive on its ``def`` line;
* its module lives in the execution engine (``repro/execution/``), where
  every operator body is by construction per-row or per-block code;
* it is a method of a class whose name ends in ``Estimator`` or
  ``Operator``/``Op``, or its name starts with ``estimate`` — the
  estimator entry points the paper's Table 1 experiment sweeps;
* its name is one of the known evaluation entry points
  (``true_join_size``, ``execute``).

Hotness then propagates **down the call graph to a fixpoint**: every
function a hot function (transitively) calls is itself hot, because it
inherits its caller's invocation frequency.  The propagation uses the
same resolved call edges the ELS3xx–ELS5xx layers use
(:meth:`repro.lint.dataflow.summaries.Program.resolve_call`), so a
helper three calls below an operator body is still guarded.

``# els: hot=no`` pins a function cold: it is never reported on and
hotness does not propagate *through* it — the directive marks deliberate
cold paths (setup, error formatting, once-per-run preparation) reachable
from hot entry points.  A pin that changes nothing (``hot=yes`` where a
heuristic already fires, ``hot=no`` where nothing would have been hot)
is itself reported as ELS607, mirroring the ELS199 stale-suppression
contract.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..dataflow.summaries import FunctionInfo, Program

__all__ = [
    "HOT_ENTRY_NAMES",
    "HotIndex",
    "compute_hotness",
    "heuristic_root_reason",
    "hot_pin",
]

#: Function names that are evaluation entry points wherever they live.
HOT_ENTRY_NAMES = frozenset({"true_join_size", "execute"})

#: Class-name suffixes whose methods are hot roots (operator and
#: estimator protocols).
_HOT_CLASS_SUFFIXES = ("Estimator", "Operator", "Op")

#: Path fragment identifying the execution engine's modules.
_EXECUTION_TOKEN = "/execution/"


def hot_pin(function: FunctionInfo) -> Optional[bool]:
    """The ``# els: hot=`` pin on the function's ``def`` line, if any."""
    directive = function.module.directive_on_line(function.node.lineno, "hot")
    return None if directive is None else directive.hot


def heuristic_root_reason(function: FunctionInfo) -> Optional[str]:
    """Why the built-in heuristics make this function a hot root, or None.

    Pins are deliberately ignored here: the caller decides whether a pin
    overrides (:class:`HotIndex` construction) or duplicates (ELS607)
    the heuristic verdict.
    """
    path = function.module.path.replace("\\", "/").lower()
    if _EXECUTION_TOKEN in path:
        return "execution-engine module"
    name = function.name
    if name.startswith("estimate") or name in HOT_ENTRY_NAMES:
        return f"entry-point name {name!r}"
    if "." in function.qualname:
        class_name = function.qualname.rsplit(".", 1)[0]
        if class_name.endswith(_HOT_CLASS_SUFFIXES):
            return f"method of {class_name!r}"
    return None


class HotIndex:
    """The result of the hotness fixpoint over one program.

    Attributes:
        hot: ``id(FunctionInfo)`` of every effectively hot function
            (pins respected).
        roots: The subset that is hot by itself (not via propagation).
        natural: The hot set with every ``hot=`` pin ignored — what the
            heuristics alone would conclude (drives ELS607).
        reached_from: For each hot function, the qualname of the hot
            root whose call chain first reached it (for messages).
    """

    def __init__(self) -> None:
        self.hot: Set[int] = set()
        self.roots: Set[int] = set()
        self.natural: Set[int] = set()
        self.reached_from: Dict[int, str] = {}

    def is_hot(self, function: FunctionInfo) -> bool:
        return id(function) in self.hot

    def origin(self, function: FunctionInfo) -> Optional[str]:
        """The entry qualname a hot function is reached from."""
        return self.reached_from.get(id(function))


def _call_edges(program: Program) -> Dict[int, List[FunctionInfo]]:
    """Resolved callee lists per function, nested scopes included.

    Calls made inside nested functions and lambdas are attributed to the
    enclosing indexed function: a closure defined in a hot body runs at
    the body's frequency, so its callees inherit the hotness.
    """
    edges: Dict[int, List[FunctionInfo]] = {}
    for module in program.modules:
        for function in module.functions:
            enclosing = function.qualname.rsplit(".", 1)
            enclosing_class = enclosing[0] if len(enclosing) == 2 else None
            callees: List[FunctionInfo] = []
            for node in ast.walk(function.node):
                if isinstance(node, ast.Call):
                    callee = program.resolve_call(node, module, enclosing_class)
                    if callee is not None:
                        callees.append(callee)
            edges[id(function)] = callees
    return edges


def _propagate(
    program: Program,
    edges: Dict[int, List[FunctionInfo]],
    respect_pins: bool,
) -> Dict[int, str]:
    """One worklist fixpoint; returns ``id -> reaching-root qualname``.

    The lattice is two-valued and propagation monotone, so each function
    is enqueued at most once and the loop terminates.
    """
    reached: Dict[int, str] = {}
    frontier: List[FunctionInfo] = []
    for module in program.modules:
        for function in module.functions:
            pin = hot_pin(function) if respect_pins else None
            is_root = pin if pin is not None else (
                heuristic_root_reason(function) is not None
            )
            if is_root:
                reached[id(function)] = function.qualname
                frontier.append(function)
    while frontier:
        function = frontier.pop()
        origin = reached[id(function)]
        for callee in edges.get(id(function), []):
            if id(callee) in reached:
                continue
            if respect_pins and hot_pin(callee) is False:
                continue
            reached[id(callee)] = origin
            frontier.append(callee)
    return reached


def compute_hotness(program: Program) -> HotIndex:
    """Run the hotness fixpoints and return the hot-function index.

    Two worklist passes over the same resolved call edges: the effective
    pass (pins respected) drives every gated rule; the natural pass
    (pins ignored) exists only so ELS607 can tell a pin that *changes*
    the verdict from one that merely restates it.
    """
    index = HotIndex()
    edges = _call_edges(program)
    effective = _propagate(program, edges, respect_pins=True)
    index.hot = set(effective)
    index.reached_from = effective
    index.natural = set(_propagate(program, edges, respect_pins=False))
    for module in program.modules:
        for function in module.functions:
            pin = hot_pin(function)
            is_root = pin if pin is not None else (
                heuristic_root_reason(function) is not None
            )
            if is_root:
                index.roots.add(id(function))
    return index
