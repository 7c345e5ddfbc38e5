"""Quantity seeding and ``# els:`` directive parsing.

Two cooperating conventions feed the dataflow analysis:

* **Naming** — the repository's identifiers already encode their
  dimension (``n_rows``, ``selected_rows``, ``d_x``, ``sel_eq``,
  ``left_distinct`` ...).  :func:`quantity_from_name` maps an identifier
  to a :class:`~repro.lint.dataflow.lattice.Quantity` by token, and the
  same mapping seeds parameters, attribute reads, and the summaries of
  functions the call graph cannot resolve.
* **Directives** — an explicit trailing comment overrides inference:

  .. code-block:: python

      def scale(raw):  # els: quantity=selectivity
          ...
      weight = lookup(x)  # els: quantity=cardinality
      risky_line()  # els: noqa
      other_line()  # els: noqa[ELS101,ELS303]

  ``quantity=...`` on a ``def`` line declares the function's *return*
  quantity; on any other line it declares the quantity of the assigned
  name(s).  ``noqa`` suppresses all (or the listed) diagnostics on its
  line; a suppression that matches nothing is itself reported (ELS199).
  ``effect=...`` on a ``def`` line overrides the effect summary inferred
  by :mod:`repro.lint.effects` (``pure``, ``mutates``, ``nondet``).
  ``guarded_by=<lock>`` on an attribute or module-global assignment
  declares that the stored state must only be mutated while holding the
  named lock (enforced as ELS501 by :mod:`repro.lint.concurrency`);
  ``blocking=yes|no`` on a ``def`` line pins the blocking-ness summary
  the same layer infers for ELS503/ELS504.
  ``hot=yes|no`` on a ``def`` line pins the hotness the ELS6xx
  performance layer (:mod:`repro.lint.perf`) infers: ``hot=yes`` makes
  the function a hot root, ``hot=no`` pins it cold and stops hotness
  propagating through it.
  ``registers=<Protocol>`` on a ``def`` line declares that the function
  is a registry decorator: classes decorated with it are registered
  against the named ``typing.Protocol`` and checked for structural
  conformance by the ELS7xx contract layer
  (:mod:`repro.lint.contracts`).

Directives are extracted with :mod:`tokenize`, so the marker inside a
string literal is never mistaken for a directive.  A comment that starts
with the ``els:`` marker but does not parse yields an ELS300 diagnostic
(ELS400 for the ``effect=`` family, ELS500 for the ``guarded_by=`` /
``blocking=`` family, ELS600 for the ``hot=`` family, ELS700 for the
``registers=`` family) — a silently ignored annotation would be worse
than none.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .lattice import Quantity

__all__ = [
    "Directive",
    "MalformedDirective",
    "parse_directives",
    "quantity_from_name",
    "BLOCKING_ALIASES",
    "EFFECT_ALIASES",
    "HOT_ALIASES",
    "QUANTITY_ALIASES",
]

#: Accepted spellings on the right of ``quantity=``.
QUANTITY_ALIASES: Dict[str, Quantity] = {
    "cardinality": Quantity.CARDINALITY,
    "rows": Quantity.CARDINALITY,
    "selectivity": Quantity.SELECTIVITY,
    "distinct": Quantity.DISTINCT_COUNT,
    "distinct_count": Quantity.DISTINCT_COUNT,
    "ratio": Quantity.RATIO,
    "count": Quantity.COUNT,
    "any": Quantity.TOP,
    "top": Quantity.TOP,
}

#: Accepted spellings on the right of ``effect=`` -> canonical effect name.
EFFECT_ALIASES: Dict[str, str] = {
    "pure": "pure",
    "mutates": "mutates",
    "mutating": "mutates",
    "nondet": "nondet",
    "nondeterministic": "nondet",
}

#: Anchored at the start of the comment so prose that merely *mentions*
#: the marker (docs, examples) is never parsed as a directive.
_DIRECTIVE_RE = re.compile(r"^#\s*els:\s*(?P<body>.*)$")
#: Every directive comment contains this text.
_MARKER = "els:"
_NOQA_RE = re.compile(r"^noqa(?:\[(?P<codes>[^\]]*)\])?$")
_QUANTITY_RE = re.compile(r"^quantity\s*=\s*(?P<name>[A-Za-z_]+)$")
_EFFECT_RE = re.compile(r"^effect\s*=\s*(?P<name>[A-Za-z_]+)$")
_GUARDED_RE = re.compile(r"^guarded_by\s*=\s*(?P<name>\S+)$")
_BLOCKING_RE = re.compile(r"^blocking\s*=\s*(?P<name>[A-Za-z_]+)$")
_HOT_RE = re.compile(r"^hot\s*=\s*(?P<name>[A-Za-z_]+)$")
_REGISTERS_RE = re.compile(r"^registers\s*=\s*(?P<name>\S+)$")
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_CODE_RE = re.compile(r"^ELS\d{3}$")

#: Accepted spellings on the right of ``blocking=`` -> pinned value.
BLOCKING_ALIASES: Dict[str, bool] = {
    "yes": True,
    "true": True,
    "no": False,
    "false": False,
}

#: Accepted spellings on the right of ``hot=`` -> pinned value.
HOT_ALIASES: Dict[str, bool] = dict(BLOCKING_ALIASES)


@dataclass(frozen=True)
class Directive:
    """One parsed ``# els:`` comment.

    Attributes:
        line: 1-based source line the comment sits on.
        kind: ``"noqa"``, ``"quantity"``, ``"effect"``, ``"guarded_by"``,
            ``"blocking"``, ``"hot"``, or ``"registers"``.
        codes: For ``noqa``: the exact codes suppressed (``None`` means a
            blanket suppression of every code on the line).
        quantity: For ``quantity``: the declared dimension.
        effect: For ``effect``: the canonical declared effect
            (``"pure"``, ``"mutates"``, or ``"nondet"``).
        lock: For ``guarded_by``: the declared lock attribute/global name.
        blocking: For ``blocking``: the pinned blocking-ness.
        hot: For ``hot``: the pinned hotness.
        protocol: For ``registers``: the protocol class registrees of the
            decorated-with function must structurally satisfy.
    """

    line: int
    kind: str
    codes: Optional[FrozenSet[str]] = None
    quantity: Optional[Quantity] = None
    effect: Optional[str] = None
    lock: Optional[str] = None
    blocking: Optional[bool] = None
    hot: Optional[bool] = None
    protocol: Optional[str] = None


@dataclass(frozen=True)
class MalformedDirective:
    """An ``# els:`` comment that failed to parse.

    ``family`` routes the report to the owning layer: ``"effect"``
    directives are reported as ELS400 by :mod:`repro.lint.effects`,
    ``"concurrency"`` directives as ELS500 by
    :mod:`repro.lint.concurrency`, ``"perf"`` directives as ELS600 by
    :mod:`repro.lint.perf`, ``"contracts"`` directives as ELS700 by
    :mod:`repro.lint.contracts`, everything else as ELS300 by
    :mod:`repro.lint.dataflow`.
    """

    line: int
    col: int
    reason: str
    family: str = "general"


def parse_directives(
    source: str,
) -> Tuple[List[Directive], List[MalformedDirective]]:
    """Extract all ``# els:`` directives from one source file.

    Only genuine comment tokens are considered; the marker inside string
    literals is ignored.  A file that fails to tokenize (already reported
    as ELS100 by the engine) yields no directives, and so does a file
    that never spells the marker (it is not tokenized at all).
    """
    directives: List[Directive] = []
    malformed: List[MalformedDirective] = []
    if _MARKER not in source:
        return directives, malformed
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.match(token.string)
        if match is None:
            continue
        body = match.group("body").strip()
        line, col = token.start
        parsed = _parse_body(line, body)
        if isinstance(parsed, Directive):
            directives.append(parsed)
        else:
            family, reason = parsed
            malformed.append(MalformedDirective(line, col, reason, family))
    return directives, malformed


def _parse_body(line: int, body: str):
    """Parse one directive body.

    Returns a :class:`Directive`, or a ``(family, reason)`` error pair.
    """
    noqa = _NOQA_RE.match(body)
    if noqa is not None:
        raw_codes = noqa.group("codes")
        if raw_codes is None:
            return Directive(line, "noqa")
        codes = [c.strip().upper() for c in raw_codes.split(",") if c.strip()]
        if not codes:
            return ("noqa", "empty code list in 'noqa[...]'")
        bad = [c for c in codes if not _CODE_RE.match(c)]
        if bad:
            return (
                "noqa",
                f"invalid code(s) {', '.join(sorted(bad))} in 'noqa[...]'",
            )
        return Directive(line, "noqa", codes=frozenset(codes))
    quantity = _QUANTITY_RE.match(body)
    if quantity is not None:
        name = quantity.group("name").lower()
        if name not in QUANTITY_ALIASES:
            known = ", ".join(sorted(QUANTITY_ALIASES))
            return (
                "quantity",
                f"unknown quantity {name!r} (expected one of: {known})",
            )
        return Directive(line, "quantity", quantity=QUANTITY_ALIASES[name])
    effect = _EFFECT_RE.match(body)
    if effect is not None:
        name = effect.group("name").lower()
        if name not in EFFECT_ALIASES:
            known = ", ".join(sorted(set(EFFECT_ALIASES)))
            return (
                "effect",
                f"unknown effect {name!r} (expected one of: {known})",
            )
        return Directive(line, "effect", effect=EFFECT_ALIASES[name])
    guarded = _GUARDED_RE.match(body)
    if guarded is not None:
        name = guarded.group("name")
        if not _IDENTIFIER_RE.match(name):
            return (
                "concurrency",
                f"invalid lock name {name!r} in 'guarded_by=' "
                "(expected a bare identifier such as '_lock')",
            )
        return Directive(line, "guarded_by", lock=name)
    blocking = _BLOCKING_RE.match(body)
    if blocking is not None:
        name = blocking.group("name").lower()
        if name not in BLOCKING_ALIASES:
            known = ", ".join(sorted(BLOCKING_ALIASES))
            return (
                "concurrency",
                f"unknown blocking value {name!r} (expected one of: {known})",
            )
        return Directive(line, "blocking", blocking=BLOCKING_ALIASES[name])
    hot = _HOT_RE.match(body)
    if hot is not None:
        name = hot.group("name").lower()
        if name not in HOT_ALIASES:
            known = ", ".join(sorted(HOT_ALIASES))
            return (
                "perf",
                f"unknown hot value {name!r} (expected one of: {known})",
            )
        return Directive(line, "hot", hot=HOT_ALIASES[name])
    registers = _REGISTERS_RE.match(body)
    if registers is not None:
        name = registers.group("name")
        if not _IDENTIFIER_RE.match(name):
            return (
                "contracts",
                f"invalid protocol name {name!r} in 'registers=' "
                "(expected a bare class identifier such as "
                "'CardinalityEstimator')",
            )
        return Directive(line, "registers", protocol=name)
    return (
        "general",
        f"unrecognized directive {body!r} (expected 'noqa', 'noqa[...]', "
        "'quantity=...', 'effect=...', 'guarded_by=...', 'blocking=...', "
        "'hot=...', or 'registers=...')",
    )


# ---------------------------------------------------------------------------
# Naming convention
# ---------------------------------------------------------------------------

#: Substring tokens checked in order — first hit wins.  ``selectivit``
#: covers both ``selectivity`` and ``selectivities``.
_NAME_TOKENS: Tuple[Tuple[str, Quantity], ...] = (
    ("selectivit", Quantity.SELECTIVITY),
    ("distinct", Quantity.DISTINCT_COUNT),
    ("cardinalit", Quantity.CARDINALITY),
    ("row_count", Quantity.CARDINALITY),
    ("rows", Quantity.CARDINALITY),
    ("fraction", Quantity.SELECTIVITY),
)

#: Exact identifiers and prefix/suffix conventions from the paper's
#: notation: ``d_x`` distinct counts, ``sel_*`` selectivities.
_EXACT_NAMES: Dict[str, Quantity] = {
    "sel": Quantity.SELECTIVITY,
    "d": Quantity.DISTINCT_COUNT,
    "dx": Quantity.DISTINCT_COUNT,
}


def quantity_from_name(name: str) -> Optional[Quantity]:
    """Infer a quantity from an identifier, or ``None`` for no opinion."""
    lowered = name.lower().lstrip("_")
    if lowered in _EXACT_NAMES:
        return _EXACT_NAMES[lowered]
    if lowered.startswith("sel_"):
        return Quantity.SELECTIVITY
    if lowered.startswith("d_") or lowered.endswith("_d"):
        return Quantity.DISTINCT_COUNT
    for token, quantity in _NAME_TOKENS:
        if token in lowered:
            return quantity
    return None
