"""The shared front end of the interprocedural passes: one program index.

Every interprocedural layer (ELS3xx-ELS7xx) works over the same
:class:`Program`: every function and method of the analyzed file set is
indexed, calls are resolved by name (same module first, then a unique
global match, then ``self.method`` within the enclosing class), and each
module carries its ``# els:`` directives, tokenized once.
:func:`build_program` is the single entry: it applies the one eligibility
filter (test/bench files and unparsed modules are skipped) and builds
the index once, so a lint run hands the same facts to all five passes.

The index is read-only once built.  Per-pass results live in dicts the
pass owns — the quantity layer's return summaries included: they start
from the declared quantity (an ``# els: quantity=...`` directive on the
``def`` line, else the naming convention applied to the function name,
see :meth:`FunctionInfo.initial_summary`) and are refined by the fixpoint
driver in :mod:`repro.lint.dataflow.analysis`, which re-analyzes callers
whenever a callee's summary changes — the classic bottom-up scheme,
iterated so mutual recursion converges on the finite lattice.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .annotations import (
    Directive,
    MalformedDirective,
    parse_directives,
    quantity_from_name,
)
from .lattice import AbstractValue, Quantity, TOP, join_values, seeded

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "build_program",
    "collect_program",
]

#: Per-path ``(directives, malformed)`` lists, as :func:`parse_directives`
#: returns them.
DirectiveLists = Tuple[List[Directive], List[MalformedDirective]]

#: A function's return summary, keyed by ``id(function)`` (the index is
#: read-only; each pass owns its summary table).
SummaryTable = Mapping[int, AbstractValue]


def _is_int_annotation(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


class FunctionInfo:
    """One analyzable function or method.

    Attributes:
        module: The owning :class:`ModuleInfo`.  It is held weakly, so
            the index stays a tree (program -> modules -> functions) and
            a dropped index, parse trees included, is freed at once by
            reference counting instead of waiting for the cycle
            collector.
        qualname: ``name`` for module-level functions, ``Class.name`` for
            methods (one level of nesting — deeper nesting is opaque).
        node: The ``FunctionDef``/``AsyncFunctionDef`` node.
        declared: Quantity pinned by a ``def``-line directive, if any.
        name_quantity: Quantity suggested by the naming convention.
        returns_int: True when the return annotation is literally ``int``
            (drives the ELS303 coercion requirement).
    """

    __slots__ = (
        "_module", "qualname", "node", "declared", "name_quantity", "returns_int"
    )

    def __init__(
        self,
        module: "ModuleInfo",
        qualname: str,
        node: ast.AST,
        declared: Optional[Quantity] = None,
        name_quantity: Optional[Quantity] = None,
        returns_int: bool = False,
    ) -> None:
        self._module = weakref.ref(module)
        self.qualname = qualname
        self.node = node
        self.declared = declared
        self.name_quantity = name_quantity
        self.returns_int = returns_int

    @property
    def module(self) -> "ModuleInfo":
        return self._module()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def expected_return(self) -> Optional[Quantity]:
        """The quantity the function *promises* (declaration over naming)."""
        if self.declared is not None:
            return self.declared
        return self.name_quantity

    def initial_summary(self) -> AbstractValue:
        """The return summary before any body is analyzed."""
        expected = self.expected_return
        if expected is None:
            return TOP
        return seeded(expected, coerced=self.returns_int)

    def param_seeds(self) -> Dict[str, AbstractValue]:
        """Abstract values of the parameters, from hints and naming."""
        args = self.node.args
        parameters: List[ast.arg] = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        seeds: Dict[str, AbstractValue] = {}
        for parameter in parameters:
            if parameter.arg in ("self", "cls"):
                continue
            quantity = quantity_from_name(parameter.arg)
            coerced = _is_int_annotation(parameter.annotation)
            if quantity is None:
                seeds[parameter.arg] = AbstractValue(Quantity.TOP, coerced=coerced)
            else:
                seeds[parameter.arg] = seeded(quantity, coerced=coerced)
        return seeds


@dataclass
class ModuleInfo:
    """One parsed module plus everything the analysis needs from it."""

    path: str
    tree: ast.Module
    directives: List[Directive] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)
    #: Module-level ``NAME = <number literal>`` constants.
    constants: Dict[str, float] = field(default_factory=dict)
    #: Local alias -> imported terminal name (``from m import a as b``,
    #: ``import m.sub as s`` both land here keyed by the local alias).
    imports: Dict[str, str] = field(default_factory=dict)
    #: ``# els:`` comments that failed to parse (each layer reports its
    #: own family).
    malformed: List[MalformedDirective] = field(default_factory=list)

    @cached_property
    def _directive_by_line(self) -> Dict[int, Directive]:
        # A line holds at most one comment, hence at most one directive.
        by_line: Dict[int, Directive] = {}
        for directive in self.directives:
            by_line.setdefault(directive.line, directive)
        return by_line

    def directive_on_line(
        self, line: int, kind: str = "quantity"
    ) -> Optional[Directive]:
        """The ``kind`` directive on ``line``, if any."""
        directive = self._directive_by_line.get(line)
        if directive is not None and directive.kind == kind:
            return directive
        return None

    @cached_property
    def def_lines(self) -> FrozenSet[int]:
        """Lines of every ``def`` in the module (directive placement)."""
        return frozenset(
            node.lineno
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )


@dataclass
class Program:
    """The whole analyzed file set with its cross-module function index."""

    modules: List[ModuleInfo]
    #: Terminal function name -> every function carrying it.
    by_name: Dict[str, List[FunctionInfo]] = field(default_factory=dict)

    def resolve_call(
        self,
        call: ast.Call,
        module: ModuleInfo,
        enclosing_class: Optional[str],
        summaries: Optional[SummaryTable] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call to an analyzed function, or ``None``.

        Resolution order: ``self.method`` in the enclosing class; a
        same-module function; an imported name; a globally *unique*
        terminal name.  Ambiguous names stay unresolved — the caller
        falls back to the naming convention, which cannot produce false
        violations (unknown summaries are TOP-or-declared).

        Same-named twins resolve when their return summaries agree:
        ``summaries`` (the quantity layer's table) when given, else each
        function's :meth:`~FunctionInfo.initial_summary`.
        """
        func = call.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and enclosing_class is not None
            ):
                return self._lookup(module, f"{enclosing_class}.{func.attr}")
            return self._global_unique(func.attr, summaries)
        if isinstance(func, ast.Name):
            local = self._lookup(module, func.id)
            if local is not None:
                return local
            target = module.imports.get(func.id, func.id)
            return self._global_unique(target, summaries)
        return None

    def _lookup(self, module: ModuleInfo, qualname: str) -> Optional[FunctionInfo]:
        for function in module.functions:
            if function.qualname == qualname:
                return function
        return None

    def _global_unique(
        self, name: str, summaries: Optional[SummaryTable]
    ) -> Optional[FunctionInfo]:
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            return None
        if summaries is None:
            return self._unique_by_initial_summary.get(name)
        return _agreeing_twin(
            candidates, [summaries[id(c)] for c in candidates]
        )

    @cached_property
    def _unique_by_initial_summary(self) -> Dict[str, Optional[FunctionInfo]]:
        """Twin resolution under initial summaries, for every shared name."""
        return {
            name: _agreeing_twin(
                candidates, [c.initial_summary() for c in candidates]
            )
            for name, candidates in self.by_name.items()
            if len(candidates) > 1
        }

    def callers_of(self, function: FunctionInfo) -> List[FunctionInfo]:
        """Every analyzed function whose body calls ``function``."""
        result = []
        for module in self.modules:
            for candidate in module.functions:
                enclosing = (
                    candidate.qualname.rsplit(".", 1)[0]
                    if "." in candidate.qualname
                    else None
                )
                for node in ast.walk(candidate.node):
                    if isinstance(node, ast.Call):
                        if self.resolve_call(node, module, enclosing) is function:
                            result.append(candidate)
                            break
        return result


def _agreeing_twin(
    candidates: Sequence[FunctionInfo], summaries: Sequence[AbstractValue]
) -> Optional[FunctionInfo]:
    """The first candidate when joining every summary leaves its own.

    Identical twins (e.g. re-exported wrappers) with agreeing summaries
    are safe to merge; disagreement means unresolved.
    """
    merged = summaries[0]
    for summary in summaries[1:]:
        merged = join_values(merged, summary)
    return candidates[0] if merged == summaries[0] else None


def _collect_functions(module: ModuleInfo) -> None:
    """Index module-level functions and one level of class methods."""
    function_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes: List[Tuple[Optional[str], Sequence[ast.stmt]]] = [(None, module.tree.body)]
    for class_name, body in list(scopes):
        for node in body:
            if isinstance(node, ast.ClassDef) and class_name is None:
                scopes.append((node.name, node.body))
            elif isinstance(node, function_types):
                qualname = f"{class_name}.{node.name}" if class_name else node.name
                directive = module.directive_on_line(node.lineno)
                info = FunctionInfo(
                    module=module,
                    qualname=qualname,
                    node=node,
                    declared=directive.quantity if directive else None,
                    name_quantity=quantity_from_name(node.name),
                    returns_int=_is_int_annotation(node.returns),
                )
                module.functions.append(info)
    # Process class bodies appended during the first sweep.
    for class_name, body in scopes[1:]:
        for node in body:
            if isinstance(node, function_types):
                qualname = f"{class_name}.{node.name}"
                if any(f.qualname == qualname for f in module.functions):
                    continue
                directive = module.directive_on_line(node.lineno)
                info = FunctionInfo(
                    module=module,
                    qualname=qualname,
                    node=node,
                    declared=directive.quantity if directive else None,
                    name_quantity=quantity_from_name(node.name),
                    returns_int=_is_int_annotation(node.returns),
                )
                module.functions.append(info)


def _collect_module_facts(module: ModuleInfo) -> None:
    """Record module-level numeric constants and import aliases."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                literal = _numeric_literal(value)
                if literal is not None:
                    module.constants[target.id] = literal
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                module.imports[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.imports[local] = alias.name.rsplit(".", 1)[-1]


def _numeric_literal(node: ast.AST) -> Optional[float]:
    """Evaluate a constant numeric expression (literals and + - * /)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _numeric_literal(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
    ):
        left = _numeric_literal(node.left)
        right = _numeric_literal(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            return left / right
        except ZeroDivisionError:
            return None
    return None


def collect_program(
    parsed: Sequence[Tuple[str, ast.Module, List[Directive]]]
) -> Program:
    """Build the :class:`Program` index from parsed (path, tree, directives)."""
    return _index([
        ModuleInfo(path=path, tree=tree, directives=list(directives))
        for path, tree, directives in parsed
    ])


def _index(modules: List[ModuleInfo]) -> Program:
    for module in modules:
        _collect_module_facts(module)
        _collect_functions(module)
    program = Program(modules=modules)
    for module in modules:
        for function in module.functions:
            program.by_name.setdefault(function.name, []).append(function)
    return program


def _eligible(modules: Sequence) -> List:
    """The modules every interprocedural pass analyzes.

    Test/bench/conftest files are skipped (tests construct invalid
    quantities, mutate fixtures, and spin up throwaway pools on purpose)
    and so are modules without a parse tree.  ``modules`` is duck-typed:
    each needs ``path``, ``source`` and ``tree``, and optionally
    ``is_test_file`` — the engine's ``ModuleUnderLint`` fits.
    """
    return [
        module
        for module in modules
        if not getattr(module, "is_test_file", False) and module.tree is not None
    ]


def build_program(
    modules: Sequence,
    directives: Optional[Mapping[str, DirectiveLists]] = None,
) -> Program:
    """The shared front end: one :class:`Program` over the eligible modules.

    ``directives`` maps a path to its already-tokenized ``(directives,
    malformed)`` lists; a module missing from it is tokenized here, so
    each file is tokenized at most once per run.
    """
    infos: List[ModuleInfo] = []
    for module in _eligible(modules):
        found = None if directives is None else directives.get(module.path)
        parsed, malformed = (
            parse_directives(module.source) if found is None else found
        )
        infos.append(
            ModuleInfo(
                path=module.path,
                tree=module.tree,
                directives=list(parsed),
                malformed=list(malformed),
            )
        )
    return _index(infos)
