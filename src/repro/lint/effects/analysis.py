"""The ELS4xx effect-and-determinism diagnostics.

The driver (:func:`analyze_program`) mirrors the ELS3xx quantity layer:
over the shared index of
:func:`repro.lint.dataflow.summaries.build_program`, scan each body
once (:mod:`repro.lint.effects.summary`), iterate effect summaries
bottom-up to a fixpoint, then run one reporting pass:

========  ==========================================================
ELS400    malformed or misplaced ``# els: effect=`` directive
ELS401    in-place mutation of an object reachable from a cache
ELS402    ambient/unseeded RNG reachable from an evaluation entry point
ELS403    callable or shared-mutable argument shipped to a process pool
ELS404    mutation of a cached-digest input the cache cannot observe
ELS405    set iteration flowing into ordered output without ``sorted``
ELS406    cached mutable container returned without a defensive copy
ELS407    ``__hash__``/``__eq__`` defined on a mutable class (warning)
========  ==========================================================

Like the quantity layer the pass is *optimistic*: a report only fires on
a chain the alias analysis actually proved, so an unresolvable
expression silences the rule rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from ..dataflow.summaries import FunctionInfo, ModuleInfo, Program, build_program
from .summary import (
    EffectSummary,
    FunctionScan,
    MutationSite,
    collect_effect_summaries,
    is_cache_attr,
    provably_mutable,
    scan_function,
)

__all__ = ["EFFECT_CODES", "analyze_modules", "analyze_program", "analyze_source"]

#: Code -> (summary, severity) for every diagnostic this layer can emit.
EFFECT_CODES: Dict[str, Tuple[str, Severity]] = {
    "ELS400": ("malformed or misplaced '# els: effect=' directive", Severity.ERROR),
    "ELS401": (
        "in-place mutation of an object reachable from a cache",
        Severity.ERROR,
    ),
    "ELS402": (
        "ambient or unseeded RNG reachable from an evaluation entry point",
        Severity.ERROR,
    ),
    "ELS403": (
        "callable or shared-mutable argument shipped to a process pool",
        Severity.ERROR,
    ),
    "ELS404": (
        "mutation of a cached-digest input the cache cannot observe",
        Severity.ERROR,
    ),
    "ELS405": (
        "set iteration flows into ordered output without sorted()",
        Severity.ERROR,
    ),
    "ELS406": (
        "cached mutable container returned without a defensive copy",
        Severity.ERROR,
    ),
    "ELS407": (
        "__hash__/__eq__ defined on a mutable class used as a cache key",
        Severity.WARNING,
    ),
}

#: Length-changing growth mutators: a digest cache keyed on
#: ``len(rows)`` observes these, so they are exempt from ELS404 at the
#: attribute itself (depth 0).
_GROWTH_OPS = frozenset({"append", "extend"})

#: Set-consuming constructs that preserve iteration order into an
#: ordered result (ELS405).
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


def analyze_modules(
    modules: Sequence,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """Run the effect analysis over parsed modules.

    ``modules`` is duck-typed (``path`` / ``source`` / ``tree`` /
    ``is_test_file`` — the engine's ``ModuleUnderLint`` fits).  Test
    files are skipped: they routinely mutate fixtures and call ambient
    RNG on purpose.

    When ``summary_sink`` is given, the fixpoint effect summaries are
    recorded into it as ``sink[path][qualname]["effect"]`` (the
    :meth:`~repro.lint.effects.summary.EffectSummary.to_dict` shape) —
    this is how the incremental lint cache persists per-module
    interprocedural summaries.
    """
    return analyze_program(build_program(modules), max_passes, summary_sink)


def analyze_program(
    program: Program,
    max_passes: int = 8,
    summary_sink: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None,
) -> List[Diagnostic]:
    """The ELS4xx pass over an already-built :func:`build_program` index."""
    findings: List[Diagnostic] = []
    if not program.modules:
        return findings
    scans: Dict[int, FunctionScan] = {}
    for minfo in program.modules:
        for function in minfo.functions:
            scans[id(function)] = scan_function(function, minfo)
    summaries = collect_effect_summaries(program, scans, max_passes=max_passes)
    if summary_sink is not None:
        for minfo in program.modules:
            for function in minfo.functions:
                summary_sink.setdefault(minfo.path, {}).setdefault(
                    function.qualname, {}
                )["effect"] = summaries[id(function)].to_dict()
    for minfo in program.modules:
        _report_directives(minfo, findings)
        module_globals = _module_mutable_globals(minfo.tree)
        for function in minfo.functions:
            scan = scans[id(function)]
            _report_cache_mutations(program, minfo, function, scan, summaries, findings)
            _report_pool_shipments(minfo, function, scan, module_globals, findings)
            _report_set_order(minfo, function, findings)
        _report_class_rules(minfo, scans, findings)
    _report_nondeterminism(program, scans, summaries, findings)
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
# ELS400 — directives
# ---------------------------------------------------------------------------


def _report_directives(minfo: ModuleInfo, findings: List[Diagnostic]) -> None:
    for bad in minfo.malformed:
        if bad.family != "effect":
            continue  # ELS300 (dataflow layer) owns the other families
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=bad.line,
                col=bad.col,
                code="ELS400",
                severity=Severity.ERROR,
                message=f"malformed '# els:' directive: {bad.reason}",
            )
        )
    for directive in minfo.directives:
        if directive.kind != "effect":
            continue
        if directive.line not in minfo.def_lines:
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=directive.line,
                    col=0,
                    code="ELS400",
                    severity=Severity.ERROR,
                    message=(
                        "misplaced 'effect=' directive: it must sit on a "
                        "'def' line to declare that function's effect"
                    ),
                )
            )


# ---------------------------------------------------------------------------
# ELS401 — cache mutation
# ---------------------------------------------------------------------------


def _report_cache_mutations(
    program: Program,
    minfo: ModuleInfo,
    function: FunctionInfo,
    scan: FunctionScan,
    summaries: Dict[int, EffectSummary],
    findings: List[Diagnostic],
) -> None:
    declared = summaries[id(function)].declared
    if declared in ("pure", "mutates"):
        return  # the author pinned the effect; trust the declaration
    for site in scan.mutations:
        kind, name = site.root
        if kind == "selfattr" and is_cache_attr(name) and site.depth >= 1:
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=getattr(site.node, "lineno", function.node.lineno),
                    col=getattr(site.node, "col_offset", 0),
                    code="ELS401",
                    severity=Severity.ERROR,
                    message=(
                        f"in-place mutation ({site.op}) of a value reachable "
                        f"through cache attribute 'self.{name}'; cached "
                        "objects must stay frozen once stored"
                    ),
                )
            )
    enclosing = function.qualname.rsplit(".", 1)
    enclosing_class = enclosing[0] if len(enclosing) == 2 else None
    for call in scan.calls:
        callee = program.resolve_call(call, minfo, enclosing_class)
        if callee is None:
            continue
        callee_summary = summaries.get(id(callee))
        if callee_summary is None or not callee_summary.mutates_params:
            continue
        positional, keywords = scan.call_arg_roots.get(id(call), ((), {}))
        for parameter, rooted in _paired_arg_roots(
            call, callee, positional, keywords
        ):
            if parameter not in callee_summary.mutates_params or rooted is None:
                continue
            (kind, name), depth = rooted
            if kind == "selfattr" and is_cache_attr(name) and depth >= 1:
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=call.lineno,
                        col=call.col_offset,
                        code="ELS401",
                        severity=Severity.ERROR,
                        message=(
                            f"call to '{callee.name}' mutates its parameter "
                            f"'{parameter}', which aliases a value cached in "
                            f"'self.{name}'"
                        ),
                    )
                )


def _paired_arg_roots(
    call: ast.Call,
    callee: FunctionInfo,
    positional,
    keywords,
) -> Iterable[Tuple[str, Optional[Tuple[Tuple[str, str], int]]]]:
    callee_args = callee.node.args
    parameters = [
        parameter.arg
        for parameter in list(callee_args.posonlyargs) + list(callee_args.args)
        if parameter.arg not in ("self", "cls")
    ]
    for index in range(min(len(positional), len(parameters))):
        yield parameters[index], positional[index]
    for name, rooted in keywords.items():
        if name in parameters:
            yield name, rooted


# ---------------------------------------------------------------------------
# ELS402 — nondeterminism reachability
# ---------------------------------------------------------------------------


def _is_entry(function: FunctionInfo) -> bool:
    name = function.name.lower()
    if "evaluate_workload" in name or "bench" in name:
        return True
    path = function.module.path.replace("\\", "/").lower()
    stem = path.rsplit("/", 1)[-1]
    return (
        "/workloads/" in path
        or "/benchmarks/" in path
        or stem in ("harness.py", "generator.py", "generators.py")
    )


def _report_nondeterminism(
    program: Program,
    scans: Dict[int, FunctionScan],
    summaries: Dict[int, EffectSummary],
    findings: List[Diagnostic],
) -> None:
    edges: Dict[int, List[FunctionInfo]] = {}
    for minfo in program.modules:
        for function in minfo.functions:
            enclosing = function.qualname.rsplit(".", 1)
            enclosing_class = enclosing[0] if len(enclosing) == 2 else None
            callees = []
            for call in scans[id(function)].calls:
                callee = program.resolve_call(call, minfo, enclosing_class)
                if callee is not None:
                    callees.append(callee)
            edges[id(function)] = callees
    reachable: Dict[int, str] = {}
    frontier: List[FunctionInfo] = []
    for minfo in program.modules:
        for function in minfo.functions:
            if _is_entry(function) and summaries[id(function)].declared != "pure":
                reachable[id(function)] = function.qualname
                frontier.append(function)
    while frontier:
        function = frontier.pop()
        entry = reachable[id(function)]
        for callee in edges.get(id(function), []):
            if id(callee) in reachable:
                continue
            if summaries.get(id(callee), EffectSummary()).declared == "pure":
                continue
            reachable[id(callee)] = entry
            frontier.append(callee)
    seen: Set[Tuple[str, int, int]] = set()
    for minfo in program.modules:
        for function in minfo.functions:
            entry = reachable.get(id(function))
            if entry is None or summaries[id(function)].declared == "pure":
                continue
            for site in scans[id(function)].nondet_sites:
                line = getattr(site.node, "lineno", function.node.lineno)
                col = getattr(site.node, "col_offset", 0)
                key = (minfo.path, line, col)
                if key in seen:
                    continue
                seen.add(key)
                suffix = (
                    ""
                    if entry == function.qualname
                    else f" (reachable from '{entry}')"
                )
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=line,
                        col=col,
                        code="ELS402",
                        severity=Severity.ERROR,
                        message=(
                            f"{site.description} on an evaluation path"
                            f"{suffix}; thread a seeded Random through "
                            "instead"
                        ),
                    )
                )


# ---------------------------------------------------------------------------
# ELS403 — process-pool shipments
# ---------------------------------------------------------------------------


def _module_mutable_globals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and provably_mutable(node.value):
                names.add(target.id)
    return names


def _report_pool_shipments(
    minfo: ModuleInfo,
    function: FunctionInfo,
    scan: FunctionScan,
    module_globals: Set[str],
    findings: List[Diagnostic],
) -> None:
    for shipment in scan.shipments:
        callable_node = shipment.callable_node
        if isinstance(callable_node, ast.Lambda):
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=shipment.call.lineno,
                    col=shipment.call.col_offset,
                    code="ELS403",
                    severity=Severity.ERROR,
                    message=(
                        f"lambda shipped to pool.{shipment.method}() is "
                        "unpicklable; use a module-level function"
                    ),
                )
            )
        elif (
            isinstance(callable_node, ast.Name)
            and callable_node.id in scan.nested_defs
        ):
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=shipment.call.lineno,
                    col=shipment.call.col_offset,
                    code="ELS403",
                    severity=Severity.ERROR,
                    message=(
                        f"nested function '{callable_node.id}' shipped to "
                        f"pool.{shipment.method}() is unpicklable and "
                        "captures enclosing state; use a module-level "
                        "function"
                    ),
                )
            )
        for argument in shipment.data_args:
            if isinstance(argument, ast.Name) and argument.id in module_globals:
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=argument.lineno,
                        col=argument.col_offset,
                        code="ELS403",
                        severity=Severity.ERROR,
                        message=(
                            f"module-level mutable '{argument.id}' shipped to "
                            f"pool.{shipment.method}(); workers receive a "
                            "pickled copy, so mutations silently diverge "
                            "between processes"
                        ),
                    )
                )


# ---------------------------------------------------------------------------
# ELS405 — set iteration order
# ---------------------------------------------------------------------------


def _report_set_order(
    minfo: ModuleInfo, function: FunctionInfo, findings: List[Diagnostic]
) -> None:
    set_names: Set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, set_names):
                    set_names.add(target.id)
                else:
                    set_names.discard(target.id)

    def emit(node: ast.AST, what: str) -> None:
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=getattr(node, "lineno", function.node.lineno),
                col=getattr(node, "col_offset", 0),
                code="ELS405",
                severity=Severity.ERROR,
                message=(
                    f"{what} iterates a set in hash order into an ordered "
                    "result; wrap the set in sorted() for deterministic "
                    "output"
                ),
            )
        )

    for node in ast.walk(function.node):
        if isinstance(node, ast.ListComp):
            if any(
                _is_set_expr(generator.iter, set_names)
                for generator in node.generators
            ):
                emit(node, "list comprehension")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDERED_CONSUMERS
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                emit(node, f"{func.id}()")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and _is_set_expr(node.args[0], set_names)
            ):
                emit(node, "str.join()")
        elif isinstance(node, ast.For):
            if _is_set_expr(node.iter, set_names) and _loop_orders_output(node):
                emit(node, "for loop")


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) and _is_set_expr(
            node.right, set_names
        )
    return False


def _loop_orders_output(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("append", "extend"):
                return True
    return False


# ---------------------------------------------------------------------------
# ELS404 / ELS406 / ELS407 — per-class rules
# ---------------------------------------------------------------------------


def _report_class_rules(
    minfo: ModuleInfo,
    scans: Dict[int, FunctionScan],
    findings: List[Diagnostic],
) -> None:
    for node in minfo.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            function
            for function in minfo.functions
            if function.qualname.startswith(f"{node.name}.")
        ]
        if not methods:
            continue
        _report_stale_digest(minfo, node, methods, scans, findings)
        _report_uncopied_returns(minfo, node, methods, scans, findings)
        _report_mutable_hash_eq(minfo, node, methods, scans, findings)


def _digest_inputs(
    digest_method: FunctionInfo, scan: FunctionScan
) -> Tuple[Set[str], bool]:
    """(self attrs read by the digest, does it memoize into a cache attr)."""
    stored = {attr for attr, _, _, _ in scan.attr_stores}
    read: Set[str] = set()
    for node in ast.walk(digest_method.node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            read.add(node.attr)
    memoizes = any(is_cache_attr(attr) for attr in stored)
    return read - stored, memoizes


def _report_stale_digest(
    minfo: ModuleInfo,
    class_node: ast.ClassDef,
    methods: List[FunctionInfo],
    scans: Dict[int, FunctionScan],
    findings: List[Diagnostic],
) -> None:
    digest_methods = [
        method
        for method in methods
        if method.name == "fingerprint" or "digest" in method.name.lower()
    ]
    guarded: Set[str] = set()
    digest_names: Set[str] = set()
    for method in digest_methods:
        inputs, memoizes = _digest_inputs(method, scans[id(method)])
        if memoizes:
            guarded |= inputs
            digest_names.add(method.name)
    if not guarded:
        return
    label = " / ".join(sorted(digest_names))
    for method in methods:
        if method.name == "__init__" or method in digest_methods:
            continue
        scan = scans[id(method)]
        for site in scan.mutations:
            kind, name = site.root
            if kind != "selfattr" or name not in guarded:
                continue
            if site.op in _GROWTH_OPS and site.depth == 0:
                continue  # length-changing: the digest cache observes it
            findings.append(
                Diagnostic(
                    file=minfo.path,
                    line=getattr(site.node, "lineno", method.node.lineno),
                    col=getattr(site.node, "col_offset", 0),
                    code="ELS404",
                    severity=Severity.ERROR,
                    message=(
                        f"in-place mutation ({site.op}) of 'self.{name}', an "
                        f"input of the cached digest '{label}()'; the memo "
                        "only invalidates on length changes, so this serves "
                        "a stale digest"
                    ),
                )
            )
        for attr, _, store_node, _ in scan.attr_stores:
            if attr in guarded:
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=getattr(store_node, "lineno", method.node.lineno),
                        col=getattr(store_node, "col_offset", 0),
                        code="ELS404",
                        severity=Severity.ERROR,
                        message=(
                            f"rebinding 'self.{attr}', an input of the cached "
                            f"digest '{label}()', outside __init__ can serve "
                            "a stale digest"
                        ),
                    )
                )


def _report_uncopied_returns(
    minfo: ModuleInfo,
    class_node: ast.ClassDef,
    methods: List[FunctionInfo],
    scans: Dict[int, FunctionScan],
    findings: List[Diagnostic],
) -> None:
    mutable_stores: Set[str] = set()
    cache_attrs: Set[str] = set()
    for method in methods:
        scan = scans[id(method)]
        for attr, value, _, env in scan.attr_stores:
            if is_cache_attr(attr):
                cache_attrs.add(attr)
                if method.name != "__init__" and provably_mutable(value, env):
                    mutable_stores.add(attr)
        for attr, value, _, env in scan.subscript_stores:
            if is_cache_attr(attr):
                cache_attrs.add(attr)
                if method.name != "__init__" and provably_mutable(value, env):
                    mutable_stores.add(attr)
    if not mutable_stores:
        return
    for method in methods:
        for site in scans[id(method)].returns:
            kind, name = site.root
            if kind == "selfattr" and name in mutable_stores:
                findings.append(
                    Diagnostic(
                        file=minfo.path,
                        line=getattr(site.node, "lineno", method.node.lineno),
                        col=getattr(site.node, "col_offset", 0),
                        code="ELS406",
                        severity=Severity.ERROR,
                        message=(
                            f"'{method.name}' returns mutable state cached in "
                            f"'self.{name}' without a copy; freeze the cached "
                            "value (tuple) or return a copy"
                        ),
                    )
                )


def _report_mutable_hash_eq(
    minfo: ModuleInfo,
    class_node: ast.ClassDef,
    methods: List[FunctionInfo],
    scans: Dict[int, FunctionScan],
    findings: List[Diagnostic],
) -> None:
    identity_defs = [
        method for method in methods if method.name in ("__hash__", "__eq__")
    ]
    if not identity_defs:
        return
    for statement in class_node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__hash__":
                    return  # __hash__ = None: explicitly unhashable
    mutable = False
    for method in methods:
        if method.name in ("__init__", "__post_init__"):
            continue
        scan = scans[id(method)]
        if scan.attr_stores:
            mutable = True
            break
        if any(
            site.root[0] == "selfattr" and site.depth == 0
            for site in scan.mutations
        ):
            mutable = True
            break
    if not mutable:
        return
    for method in identity_defs:
        findings.append(
            Diagnostic(
                file=minfo.path,
                line=method.node.lineno,
                col=method.node.col_offset,
                code="ELS407",
                severity=Severity.WARNING,
                message=(
                    f"'{class_node.name}.{method.name}' defines value "
                    "identity on a class that mutates its own state; using "
                    "instances as cache keys risks silent key drift"
                ),
            )
        )
