"""The worklist fixpoint solver and the ELS3xx diagnostics.

One :class:`_FunctionAnalyzer` abstractly interprets a single function
over its CFG (:mod:`repro.lint.dataflow.cfg`): every basic block's input
environment is the join of its predecessors' outputs, statements are
folded through the transfer rules of
:mod:`repro.lint.dataflow.lattice`, and blocks re-enter the worklist
until nothing changes.  The interprocedural driver
(:func:`analyze_modules`) first iterates function summaries bottom-up to
their fixpoint, then runs one reporting pass that emits diagnostics:

========  ========================================================
ELS300    malformed ``# els:`` directive
ELS301    dimension-mismatched additive arithmetic
ELS302    selectivity may escape ``[0, 1]`` without a clamp
ELS303    cardinality/distinct count returned without int coercion
ELS304    distinct count combined with cardinality outside the urn model
ELS305    dead clamp (warning)
ELS306    call argument quantity mismatch
========  ========================================================

The pass is *optimistic*: TOP and unresolved values never fire a
diagnostic, so every report rests on a quantity the analysis actually
proved (from a literal, a naming-convention seed, a directive, or a
function summary).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from .annotations import quantity_from_name
from .cfg import ControlFlowGraph, build_cfg, _ForHeader
from .lattice import (
    AbstractValue,
    BOTTOM,
    Quantity,
    TOP,
    binary_transfer,
    constant_value,
    join_values,
    min_max_transfer,
    seeded,
    unary_transfer,
)
from .summaries import FunctionInfo, ModuleInfo, Program, build_program

__all__ = [
    "DATAFLOW_CODES",
    "analyze_modules",
    "analyze_program",
    "analyze_source",
]

#: Code -> (summary, severity) for every diagnostic this layer can emit.
DATAFLOW_CODES: Dict[str, Tuple[str, Severity]] = {
    "ELS300": ("malformed '# els:' directive", Severity.ERROR),
    "ELS301": ("dimension-mismatched additive arithmetic", Severity.ERROR),
    "ELS302": ("selectivity may escape [0, 1] without a clamp", Severity.ERROR),
    "ELS303": ("cardinality returned without integer coercion", Severity.ERROR),
    "ELS304": (
        "distinct count combined with cardinality outside the urn model",
        Severity.ERROR,
    ),
    "ELS305": ("dead clamp", Severity.WARNING),
    "ELS306": ("call argument quantity mismatch", Severity.ERROR),
}

_QUANTITY_LABEL = {
    Quantity.SELECTIVITY: "selectivity",
    Quantity.CARDINALITY: "cardinality",
    Quantity.DISTINCT_COUNT: "distinct count",
    Quantity.RATIO: "ratio",
    Quantity.COUNT: "count",
    Quantity.CONSTANT: "constant",
    Quantity.TOP: "unknown",
    Quantity.BOTTOM: "unreachable",
}

#: Calls that coerce to an integer while preserving the quantity.
_COERCING_CALLS = frozenset({"ceil", "floor", "round", "int", "trunc"})
#: ``math`` members that destroy any dimensional reading.
_OPAQUE_MATH = frozenset(
    {"exp", "expm1", "log", "log1p", "log2", "log10", "sqrt", "pow", "e", "pi"}
)

_MAX_BLOCK_VISITS = 64


def _op_symbol(op: ast.operator) -> str:
    return {
        ast.Add: "+",
        ast.Sub: "-",
        ast.Mult: "*",
        ast.Div: "/",
        ast.FloorDiv: "//",
        ast.Pow: "**",
        ast.Mod: "%",
    }.get(type(op), "?")


class _Env:
    """A mutable variable -> :class:`AbstractValue` environment."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[Dict[str, AbstractValue]] = None) -> None:
        self.values: Dict[str, AbstractValue] = dict(values or {})

    def copy(self) -> "_Env":
        return _Env(self.values)

    def join_into(self, other: "_Env") -> bool:
        """Join ``other`` into this env; True when anything changed.

        A name bound on only one side keeps its binding: the unbound side
        either cannot reach the use at runtime (``UnboundLocalError``) or
        re-seeds from the naming convention anyway.
        """
        changed = False
        for name, incoming in other.values.items():
            existing = self.values.get(name)
            if existing is None:
                self.values[name] = incoming
                changed = True
            else:
                joined = join_values(existing, incoming)
                if joined != existing:
                    self.values[name] = joined
                    changed = True
        return changed


class _FunctionAnalyzer:
    """Abstractly interpret one function body to a fixpoint."""

    def __init__(
        self,
        program: Program,
        summaries: Dict[int, AbstractValue],
        module: ModuleInfo,
        function: FunctionInfo,
        emit: bool,
    ) -> None:
        self.program = program
        self.summaries = summaries
        self.module = module
        self.function = function
        self.emit = emit
        self.diagnostics: List[Diagnostic] = []
        self._reported: Set[Tuple[int, int, str]] = set()
        #: Names bound through an explicit ``quantity=`` directive: the
        #: naming-convention fallback must not override the declaration
        #: (in particular ``quantity=any``, which *silences* a name).
        self._pinned: Set[str] = set()
        self.return_value: AbstractValue = BOTTOM
        enclosing = function.qualname.rsplit(".", 1)
        self._enclosing_class = enclosing[0] if len(enclosing) == 2 else None

    # -- driver ------------------------------------------------------------

    def run(self) -> AbstractValue:
        """Solve the CFG; returns the joined abstract return value."""
        cfg: ControlFlowGraph = build_cfg(self.function.node)
        env_in: Dict[int, _Env] = {cfg.entry: _Env(self.function.param_seeds())}
        visits: Dict[int, int] = {}
        worklist: List[int] = [cfg.entry]
        while worklist:
            block_id = worklist.pop(0)
            visits[block_id] = visits.get(block_id, 0) + 1
            if visits[block_id] > _MAX_BLOCK_VISITS:
                continue  # termination backstop; the lattice is finite
            block = cfg.blocks[block_id]
            env = env_in.get(block_id, _Env()).copy()
            # Only the final visit of each block should report; clear and
            # re-derive instead of tracking per-visit provenance.
            for element in block.elements:
                self._transfer(element, env)
            for successor in block.successors:
                if successor not in env_in:
                    env_in[successor] = env.copy()
                    worklist.append(successor)
                elif env_in[successor].join_into(env):
                    if successor not in worklist:
                        worklist.append(successor)
        return self.return_value

    # -- statement transfer ------------------------------------------------

    def _transfer(self, element: object, env: _Env) -> None:
        if isinstance(element, _ForHeader):
            self._bind_for_header(element.statement, env)
            return
        if isinstance(element, ast.withitem):
            self._eval(element.context_expr, env)
            if isinstance(element.optional_vars, ast.Name):
                env.values[element.optional_vars.id] = TOP
            return
        if isinstance(element, ast.expr):
            self._eval(element, env)
            return
        if isinstance(element, ast.Assign):
            value = self._eval(element.value, env)
            declared = self._declared_quantity(element.lineno)
            for target in element.targets:
                self._bind_target(target, value, env, declared, element.value)
        elif isinstance(element, ast.AnnAssign):
            value = TOP if element.value is None else self._eval(element.value, env)
            if _is_int_name(element.annotation):
                value = AbstractValue(
                    value.quantity, nonneg=value.nonneg, le_one=value.le_one,
                    coerced=True, const=value.const,
                )
            declared = self._declared_quantity(element.lineno)
            self._bind_target(element.target, value, env, declared, element.value)
        elif isinstance(element, ast.AugAssign):
            if isinstance(element.target, ast.Name):
                current = self._read_name(element.target.id, env)
                operand = self._eval(element.value, env)
                result, code = binary_transfer(element.op, current, operand)
                if code:
                    self._report_binop(code, element, current, element.op, operand)
                env.values[element.target.id] = result
            else:
                self._eval(element.value, env)
        elif isinstance(element, ast.Return):
            value = BOTTOM if element.value is None \
                else self._eval(element.value, env)
            if element.value is not None:
                self._check_return(element, value)
                self.return_value = join_values(self.return_value, value)
        elif isinstance(element, ast.Expr):
            self._eval(element.value, env)
        elif isinstance(element, ast.Assert):
            self._eval(element.test, env)
        elif isinstance(element, ast.Raise):
            if element.exc is not None:
                self._eval(element.exc, env)
        elif isinstance(element, ast.Delete):
            for target in element.targets:
                if isinstance(target, ast.Name):
                    env.values.pop(target.id, None)
        elif isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env.values[element.name] = TOP

    def _bind_for_header(self, statement: ast.stmt, env: _Env) -> None:
        iterable = self._eval(statement.iter, env)
        element_value = TOP
        if isinstance(statement.iter, ast.Call) and _call_name(statement.iter) == "range":
            element_value = AbstractValue(Quantity.COUNT, nonneg=True, coerced=True)
        elif iterable.quantity.is_concrete or iterable.quantity in (
            Quantity.COUNT, Quantity.RATIO
        ):
            # Containers collapse to their element quantity, so iterating
            # a list of selectivities yields a selectivity.
            element_value = AbstractValue(
                iterable.quantity, nonneg=iterable.nonneg,
                le_one=iterable.le_one, coerced=iterable.coerced,
            )
        target = statement.target
        if isinstance(target, ast.Name):
            env.values[target.id] = element_value
        else:
            for name in _target_names(target):
                env.values[name] = TOP

    def _bind_target(
        self,
        target: ast.expr,
        value: AbstractValue,
        env: _Env,
        declared: Optional[Quantity],
        value_node: Optional[ast.expr],
    ) -> None:
        if isinstance(target, ast.Name):
            if declared is not None:
                env.values[target.id] = seeded(declared, coerced=value.coerced)
                self._pinned.add(target.id)
            else:
                env.values[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value_node, (ast.Tuple, ast.List)) \
                    and len(value_node.elts) == len(target.elts):
                elements = [self._eval(e, env) for e in value_node.elts]
            for index, sub in enumerate(target.elts):
                sub_value = elements[index] if elements is not None else TOP
                self._bind_target(sub, sub_value, env, declared, None)
            return
        # Attribute / Subscript targets: the store is opaque.

    def _declared_quantity(self, line: int) -> Optional[Quantity]:
        directive = self.module.directive_on_line(line)
        return directive.quantity if directive is not None else None

    # -- expression evaluation ---------------------------------------------

    def _eval(self, node: ast.expr, env: _Env) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return TOP
            return constant_value(node.value)
        if isinstance(node, ast.Name):
            return self._read_name(node.id, env)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            result, code = binary_transfer(node.op, left, right)
            if code:
                self._report_binop(code, node, left, node.op, right)
            return result
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                self._eval(node.operand, env)
                return TOP
            return unary_transfer(node.op, self._eval(node.operand, env))
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            self._eval_opaque_children(node.value, env)
            quantity = quantity_from_name(node.attr)
            return seeded(quantity) if quantity is not None else TOP
        if isinstance(node, ast.Subscript):
            container = self._eval(node.value, env)
            self._eval_opaque_children(node.slice, env)
            return AbstractValue(
                container.quantity, nonneg=container.nonneg,
                le_one=container.le_one, coerced=container.coerced,
            )
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return join_values(self._eval(node.body, env), self._eval(node.orelse, env))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return TOP
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            folded = BOTTOM
            for element in node.elts:
                folded = join_values(folded, self._eval(element, env))
            return folded if folded is not BOTTOM else TOP
        if isinstance(node, ast.Dict):
            folded = BOTTOM
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            for value in node.values:
                folded = join_values(folded, self._eval(value, env))
            return folded if folded is not BOTTOM else TOP
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, node.elt, env)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node, node.value, env)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if hasattr(ast, "NamedExpr") and isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env.values[node.target.id] = value
            return value
        return TOP

    def _eval_comprehension(
        self, node: ast.expr, element: ast.expr, env: _Env
    ) -> AbstractValue:
        inner = env.copy()
        for generator in node.generators:
            iterable = self._eval(generator.iter, inner)
            for name in _target_names(generator.target):
                if iterable.quantity.is_concrete:
                    inner.values[name] = AbstractValue(
                        iterable.quantity, nonneg=iterable.nonneg,
                        le_one=iterable.le_one, coerced=iterable.coerced,
                    )
                else:
                    inner.values[name] = TOP
            for condition in generator.ifs:
                self._eval(condition, inner)
        return self._eval(element, inner)

    def _eval_opaque_children(self, node: ast.expr, env: _Env) -> None:
        """Evaluate for side diagnostics only; the result is discarded."""
        if isinstance(node, ast.expr):
            self._eval(node, env)

    def _read_name(self, name: str, env: _Env) -> AbstractValue:
        value = env.values.get(name)
        if value is not None and (value != TOP or name in self._pinned):
            return value
        if name in self.module.constants:
            return constant_value(self.module.constants[name])
        quantity = quantity_from_name(name)
        if quantity is not None:
            return seeded(quantity)
        return value if value is not None else TOP

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env: _Env) -> AbstractValue:
        args = [self._eval(argument, env) for argument in node.args]
        keyword_args = {
            keyword.arg: self._eval(keyword.value, env)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        for keyword in node.keywords:
            if keyword.arg is None:
                self._eval(keyword.value, env)
        name = _call_name(node)

        if name in ("min", "max") and not node.keywords:
            return self._eval_min_max(node, name, args)
        if name in _COERCING_CALLS and len(args) >= 1:
            base = args[0]
            return AbstractValue(
                base.quantity, nonneg=base.nonneg, le_one=base.le_one,
                coerced=True, clamp_result=base.clamp_result,
            )
        if name == "float" and len(args) == 1:
            return args[0]
        if name == "abs" and len(args) == 1:
            base = args[0]
            return AbstractValue(
                base.quantity, nonneg=True, le_one=base.bounded,
                coerced=base.coerced,
            )
        if name == "len":
            return AbstractValue(Quantity.COUNT, nonneg=True, coerced=True)
        if name == "sum" and args:
            element = args[0]
            if element.quantity in (Quantity.SELECTIVITY, Quantity.RATIO):
                return AbstractValue(Quantity.RATIO, nonneg=element.nonneg)
            return AbstractValue(
                element.quantity, nonneg=element.nonneg, coerced=element.coerced
            )
        if name in ("prod", "product") and args:
            element = args[0]
            return AbstractValue(
                element.quantity,
                nonneg=element.nonneg,
                le_one=element.bounded,
                coerced=element.coerced,
            )
        if name == "sorted" and args:
            return args[0]
        if _is_math_attribute(node.func) and node.func.attr in _OPAQUE_MATH:
            return TOP

        callee = self.program.resolve_call(
            node, self.module, self._enclosing_class, self.summaries
        )
        if callee is not None:
            self._check_call_arguments(node, callee, args, keyword_args)
            return self.summaries[id(callee)]
        quantity = quantity_from_name(name) if name else None
        if quantity is not None:
            return seeded(quantity)
        return TOP

    def _eval_min_max(
        self, node: ast.Call, name: str, args: Sequence[AbstractValue]
    ) -> AbstractValue:
        if not args:
            return TOP
        if len(args) == 1:
            # min(iterable): collapse to the element quantity.
            base = args[0]
            return AbstractValue(
                base.quantity, nonneg=base.nonneg, le_one=base.le_one,
                coerced=base.coerced,
            )
        base = min_max_transfer(list(args))
        has_const_bound = any(a.const is not None for a in args)
        if name == "min":
            # min is <= every argument, so any proven bound survives.
            nonneg = all(a.nonneg for a in args)
            le_one = any(a.le_one for a in args)
        else:
            nonneg = any(a.nonneg for a in args)
            le_one = all(a.le_one for a in args)
        self._check_dead_clamp(node, name, args)
        return AbstractValue(
            base.quantity,
            nonneg=nonneg,
            le_one=le_one,
            coerced=all(a.coerced for a in args),
            clamp_result=has_const_bound,
        )

    def _check_call_arguments(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        args: Sequence[AbstractValue],
        keyword_args: Dict[str, AbstractValue],
    ) -> None:
        callee_args = callee.node.args
        if callee_args.vararg is not None or any(
            isinstance(argument, ast.Starred) for argument in node.args
        ):
            return
        parameters = [
            parameter.arg
            for parameter in list(callee_args.posonlyargs) + list(callee_args.args)
            if parameter.arg not in ("self", "cls")
        ]
        pairs: List[Tuple[str, AbstractValue, ast.AST]] = []
        for index, value in enumerate(args):
            if index < len(parameters):
                pairs.append((parameters[index], value, node.args[index]))
        for keyword in node.keywords:
            if keyword.arg in keyword_args and keyword.arg in parameters:
                pairs.append((keyword.arg, keyword_args[keyword.arg], keyword.value))
        for parameter, value, arg_node in pairs:
            expected = quantity_from_name(parameter)
            if expected is None or not expected.is_concrete:
                continue
            if not value.quantity.is_concrete or value.quantity is expected:
                continue
            self._report(
                "ELS306",
                f"argument for parameter {parameter!r} of "
                f"{callee.qualname}() is a {_QUANTITY_LABEL[value.quantity]}, "
                f"but the parameter expects a {_QUANTITY_LABEL[expected]}",
                arg_node,
                hint="convert the value to the expected quantity or rename "
                "the parameter if the convention mislabels it",
            )

    # -- diagnostics ---------------------------------------------------------

    def _check_dead_clamp(
        self, node: ast.Call, name: str, args: Sequence[AbstractValue]
    ) -> None:
        """ELS305: a bound that provably cannot bind.

        Two shapes are reported: a constant operand already inside the
        bound (``min(1.0, 0.5)``), and a same-direction clamp immediately
        re-applied (``min(1.0, min(1.0, x))``).  Defensive clamps of
        merely *assumed*-bounded values stay silent.
        """
        bounds = [a.const for a in args if a.const is not None]
        operands = [
            (value, arg_node)
            for value, arg_node in zip(args, node.args)
            if value.const is None
        ]
        if not bounds or not operands:
            # All-constant clamps (min(1.0, 0.5)) fold; flag when one
            # constant makes the others unreachable.
            if len(bounds) >= 2:
                chosen = min(bounds) if name == "min" else max(bounds)
                if all(b == chosen for b in bounds):
                    return
                self._report(
                    "ELS305",
                    f"{name}() over constants always picks {chosen}",
                    node,
                    severity=Severity.WARNING,
                    hint="drop the redundant bound",
                )
            return
        bound = min(bounds) if name == "min" else max(bounds)
        for value, arg_node in operands:
            redundant_const = value.const is not None and (
                (name == "min" and value.const <= bound)
                or (name == "max" and value.const >= bound)
            )
            nested_same_clamp = (
                isinstance(arg_node, ast.Call)
                and _call_name(arg_node) == name
                and value.clamp_result
                and (
                    (name == "min" and value.le_one and bound >= 1)
                    or (name == "max" and value.nonneg and bound <= 0)
                )
            )
            if redundant_const or nested_same_clamp:
                self._report(
                    "ELS305",
                    f"clamp {name}(..., {bound:g}) is dead: the operand is "
                    "already within the bound",
                    node,
                    severity=Severity.WARNING,
                    hint="remove the redundant clamp",
                )

    def _check_return(self, node: ast.Return, value: AbstractValue) -> None:
        expected = self.function.expected_return
        if expected is Quantity.SELECTIVITY:
            out_of_range_const = value.const is not None and not (
                0 <= value.const <= 1
            )
            suspicious = (
                value.quantity in (Quantity.SELECTIVITY, Quantity.RATIO)
                and not value.bounded
                and not value.clamp_result
            )
            if out_of_range_const or suspicious:
                self._report(
                    "ELS302",
                    f"{self.function.qualname}() promises a selectivity but "
                    "this return value is not proven to stay in [0, 1]",
                    node,
                    hint="clamp with max(0.0, min(1.0, value)) or combine "
                    "via the sanctioned selectivity rules",
                )
        if (
            self.function.returns_int
            and expected in (Quantity.CARDINALITY, Quantity.DISTINCT_COUNT)
            and value.quantity in (Quantity.CARDINALITY, Quantity.DISTINCT_COUNT)
            and not value.coerced
        ):
            self._report(
                "ELS303",
                f"{self.function.qualname}() is annotated '-> int' but "
                f"returns a {_QUANTITY_LABEL[value.quantity]} that was never "
                "integer-coerced",
                node,
                hint="wrap the expression in int(math.ceil(...)) — the "
                "paper rounds estimated cardinalities up",
            )

    def _report_binop(
        self,
        code: str,
        node: ast.AST,
        left: AbstractValue,
        op: ast.operator,
        right: AbstractValue,
    ) -> None:
        symbol = _op_symbol(op)
        left_label = _QUANTITY_LABEL[left.quantity]
        right_label = _QUANTITY_LABEL[right.quantity]
        if code == "ELS304":
            message = (
                f"'{left_label} {symbol} {right_label}' combines a distinct "
                "count with a cardinality; derive surviving distinct counts "
                "through the urn model (repro.core.urn) instead"
            )
            hint = "use urn_distinct()/expected_distinct() or divide the " \
                   "cardinality by the distinct count (Eq. 3)"
        else:
            message = (
                f"'{left_label} {symbol} {right_label}' has no dimensionally "
                "valid reading in the estimation algebra"
            )
            hint = "check which quantity each operand carries; selectivities " \
                   "scale (multiply) cardinalities, they are never added to them"
        self._report(code, message, node, hint=hint)

    def _report(
        self,
        code: str,
        message: str,
        node: ast.AST,
        severity: Optional[Severity] = None,
        hint: Optional[str] = None,
    ) -> None:
        if not self.emit:
            return
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        key = (line, col, code)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                severity=severity or DATAFLOW_CODES[code][1],
                file=self.module.path,
                line=line,
                col=col,
                hint=hint,
            )
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_math_attribute(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
    )


def _is_int_name(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _refined_summary(function: FunctionInfo, computed: AbstractValue) -> AbstractValue:
    """The summary exposed to callers after one analysis of ``function``.

    Declared/named functions are pinned to their promise — producers are
    checked at their return sites (ELS302/ELS303), consumers get to
    assume the promise holds.  Undeclared functions propagate whatever
    the analysis computed (BOTTOM, i.e. no return statement, reads as
    TOP for callers).
    """
    expected = function.expected_return
    if expected is not None:
        return seeded(expected, coerced=function.returns_int or computed.coerced)
    if computed.quantity is Quantity.BOTTOM:
        return TOP
    return computed


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def analyze_modules(
    modules: Iterable[object],
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """Run the interprocedural ELS3xx pass over a set of modules.

    ``modules`` are duck-typed: each needs ``path``, ``source``, ``tree``,
    and optionally ``is_test_file`` (test files and unparsed modules are
    skipped — tests intentionally construct invalid quantities).
    Summaries are iterated across the whole set before the single
    reporting pass, so a quantity bug only visible through a call chain
    is still found.

    When ``summary_sink`` is given, the fixpoint return summaries are
    recorded into it as ``sink[path][qualname]["quantity"]`` (the
    :meth:`~repro.lint.dataflow.lattice.AbstractValue.to_dict` shape) —
    this is how the incremental lint cache persists per-module
    interprocedural summaries.
    """
    return analyze_program(build_program(modules), max_passes, summary_sink)


def analyze_program(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """The ELS3xx pass over an already-built :func:`build_program` index."""
    diagnostics: List[Diagnostic] = []
    for module_info in program.modules:
        for bad in module_info.malformed:
            if bad.family in ("effect", "concurrency", "perf"):
                # The effects layer owns the 'effect=' family (ELS400); the
                # concurrency layer owns 'guarded_by='/'blocking=' (ELS500);
                # the perf layer owns 'hot=' (ELS600).
                continue
            diagnostics.append(
                Diagnostic(
                    code="ELS300",
                    message=f"malformed '# els:' directive: {bad.reason}",
                    severity=Severity.ERROR,
                    file=module_info.path,
                    line=bad.line,
                    col=bad.col,
                    hint="use '# els: noqa', '# els: noqa[ELS...]', or "
                    "'# els: quantity=<name>'",
                )
            )

    summaries: Dict[int, AbstractValue] = {
        id(function): function.initial_summary()
        for module_info in program.modules
        for function in module_info.functions
    }
    for _ in range(max_passes):
        changed = False
        for module_info in program.modules:
            for function in module_info.functions:
                computed = _FunctionAnalyzer(
                    program, summaries, module_info, function, emit=False
                ).run()
                summary = _refined_summary(function, computed)
                if summary != summaries[id(function)]:
                    summaries[id(function)] = summary
                    changed = True
        if not changed:
            break

    for module_info in program.modules:
        for function in module_info.functions:
            analyzer = _FunctionAnalyzer(
                program, summaries, module_info, function, emit=True
            )
            analyzer.run()
            diagnostics.extend(analyzer.diagnostics)
            if summary_sink is not None:
                summary_sink.setdefault(module_info.path, {}).setdefault(
                    function.qualname, {}
                )["quantity"] = summaries[id(function)].to_dict()
    return diagnostics


class _SourceModule:
    """Minimal duck-typed module for :func:`analyze_source`."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.is_test_file = False


def analyze_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Analyze one source string (test/tooling convenience wrapper)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    return analyze_modules([_SourceModule(path, source, tree)])
