"""Rule ``semiring-discipline``: max-plus and log-sum-exp do not mix.

``core/factor_graph.py`` exposes two semiring families — ``maxplus_*``
(Viterbi) and ``logsumexp_*`` (forward) — and the decode path uses
both on *disjoint* accumulators: the window arena's ``agg_max``
aggregate under ``(max, +)``, and the pre-filter's forward tree
(``WindowArena.forward``) under ``(logsumexp, +)``, next to each
other in one module.  The bug this rule rejects is
cross-contamination: feeding one family's result into the other's
accumulator, which type-checks, runs, and silently produces scores
that are neither Viterbi nor forward.

Within one function (unless it declares an explicit ``semiring``
parameter, the documented escape hatch for generic helpers):

- a **nested call** of one family directly inside a call of the other
  (``logsumexp_matmul(maxplus_matmul(a, b), c)``) is flagged;
- an **assignment target that receives both families** (including
  ``x.append(...)``/``extend``/``insert`` feeds and subscripted stores
  like ``acc[i] = ...``) is flagged;
- disciplined dual-track use — both families present, every
  accumulator touched by exactly one family — is *not* flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..findings import Finding
from ..registry import Rule, register
from ..walker import ModuleModel

MAXPLUS = frozenset(
    {"maxplus_matmul", "maxplus_vecmat", "maxplus_matmul_batch", "maxplus_vecmat_batch"}
)
LOGSUMEXP = frozenset(
    {
        "logsumexp_matmul",
        "logsumexp_vecmat",
        "logsumexp_matmul_batch",
        "logsumexp_vecmat_batch",
    }
)

_FEED_METHODS = {"append", "extend", "insert", "appendleft"}


def _family(module: ModuleModel, call: ast.Call) -> Optional[str]:
    name = module.call_name(call)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail in MAXPLUS:
        return "maxplus"
    if tail in LOGSUMEXP:
        return "logsumexp"
    return None


def _families_in(module: ModuleModel, node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            family = _family(module, call)
            if family:
                out.add(family)
    return out


def _target_key(module: ModuleModel, node: ast.AST) -> Optional[str]:
    """A stable accumulator key for an assignment target: the dotted
    base with subscripts stripped (``stack_max[i:]`` -> ``stack_max``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return module.dotted(node)


@register
class SemiringDisciplineRule(Rule):
    id = "semiring-discipline"
    severity = "error"
    description = (
        "max-plus and log-sum-exp results must not feed the same "
        "accumulator or nest in one expression (declare a `semiring` "
        "parameter for generic helpers)"
    )

    def check(self, module: ModuleModel) -> Iterable[Finding]:
        for info in module.functions():
            if "semiring" in info.params:
                continue
            body_nodes = list(
                module.function_body_nodes(info.node, skip_nested=False)
            )
            calls = [
                (node, _family(module, node))
                for node in body_nodes
                if isinstance(node, ast.Call)
            ]
            families = {family for _, family in calls if family}
            if len(families) < 2:
                continue
            yield from self._nested_mixes(module, info, calls)
            yield from self._contaminated_accumulators(module, info, body_nodes)

    def _nested_mixes(self, module: ModuleModel, info, calls):
        for call, family in calls:
            if family is None:
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                inner = _families_in(module, arg)
                if inner and inner != {family}:
                    yield self.finding(
                        module, call,
                        f"{info.symbol} nests a "
                        f"{'log-sum-exp' if family == 'maxplus' else 'max-plus'} "
                        f"result directly inside a {family} call; the two "
                        "semirings compute different quantities",
                    )

    def _contaminated_accumulators(self, module: ModuleModel, info, body_nodes):
        feeds: Dict[str, Set[str]] = {}
        sites: Dict[str, ast.AST] = {}

        def record(key: Optional[str], value: ast.AST, node: ast.AST) -> None:
            if key is None:
                return
            families = _families_in(module, value)
            if not families:
                return
            feeds.setdefault(key, set()).update(families)
            sites.setdefault(key, node)

        for node in body_nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(_target_key(module, target), node.value, node)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is not None:
                    record(_target_key(module, node.target), node.value, node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FEED_METHODS
                and node.args
            ):
                key = _target_key(module, node.func.value)
                for arg in node.args:
                    record(key, arg, node)

        for key, families in sorted(feeds.items()):
            if len(families) > 1:
                yield self.finding(
                    module, sites[key],
                    f"accumulator {key!r} in {info.symbol} receives both "
                    "max-plus and log-sum-exp results; keep one semiring "
                    "per accumulator or take an explicit `semiring` "
                    "parameter",
                )
