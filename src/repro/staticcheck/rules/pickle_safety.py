"""Rule ``pickle-safety``: checkpointed classes must pickle clean.

A process pool pickles its template detector into every worker
(:class:`AttackTagger` without the window arena that holds its decode
state, the baseline detectors), and checkpoint, heal and reshard pickle
per-entity tracks (never their slots) and anything else a pool
snapshot reaches.  An attribute
holding a lambda, generator, lock, open file, or socket either fails to
pickle outright or — worse — pickles *differently* across runs,
breaking byte-identical checkpoints.

Scope: classes that define ``__getstate__`` (they opted into custom
pickling, so they get audited), plus the known checkpointed classes by
name.  Classes defining ``__reduce__`` are skipped: reduce replaces
attribute pickling wholesale.

An offending attribute is excused when ``__getstate__`` *handles* it,
which is detected by name mention: any string literal equal to the
attribute name anywhere in the ``__getstate__`` body (``state.pop("x")``,
``del state["x"]``, ``state["x"] = None``, slot-filtering comparisons)
counts as handled — a deliberately loose net, because the cost of a
false "handled" is one missed finding while a false "unhandled" would
nag every correct drop-list.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from ..findings import Finding
from ..registry import Rule, register
from ..walker import ModuleModel

#: Classes whose instances cross pickle boundaries (checkpoint payloads,
#: shard snapshots, worker migration) without defining ``__getstate__``.
CHECKPOINTED_CLASS_NAMES = frozenset(
    {
        "AttackTagger",
        "EntityTrack",
        "DetectorTemplate",
        "RuleBasedDetector",
        "CriticalAlertDetector",
        "NaiveBayesDetector",
    }
)

_UNPICKLABLE_CALLS = {
    "open": "an open file handle",
    "io.open": "an open file handle",
    "tempfile.TemporaryFile": "an open file handle",
    "tempfile.NamedTemporaryFile": "an open file handle",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a lock",
    "threading.Event": "a synchronisation primitive",
    "threading.Semaphore": "a synchronisation primitive",
    "threading.BoundedSemaphore": "a synchronisation primitive",
    "multiprocessing.Lock": "a lock",
    "multiprocessing.RLock": "a lock",
    "multiprocessing.Pipe": "a pipe",
    "multiprocessing.Queue": "a queue",
    "multiprocessing.Manager": "a manager proxy",
    "asyncio.Lock": "an event-loop-bound primitive",
    "asyncio.Event": "an event-loop-bound primitive",
    "asyncio.Condition": "an event-loop-bound primitive",
    "asyncio.Queue": "an event-loop-bound primitive",
    "asyncio.get_event_loop": "an event loop",
    "asyncio.new_event_loop": "an event loop",
}

_UNPICKLABLE_METHOD_TAILS = {"makefile": "a socket file object"}


@register
class PickleSafetyRule(Rule):
    id = "pickle-safety"
    severity = "error"
    description = (
        "checkpointed classes must not store lambdas, generators, locks, "
        "sockets, or file handles in attributes __getstate__ does not drop"
    )

    def check(self, module: ModuleModel) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _methods_of(node)
            if "__reduce__" in methods or "__reduce_ex__" in methods:
                continue
            getstate = methods.get("__getstate__")
            if getstate is None and node.name not in CHECKPOINTED_CLASS_NAMES:
                continue
            handled = _handled_attrs(getstate)
            yield from self._audit_class(module, node, handled)

    def _audit_class(
        self, module: ModuleModel, cls: ast.ClassDef, handled: Set[str]
    ) -> Iterable[Finding]:
        for method in ast.walk(cls):
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if module.enclosing_class(method) is not cls:
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                value = stmt.value
                if value is None:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None or attr in handled:
                        continue
                    problem = self._problem(module, value)
                    if problem is not None:
                        yield self.finding(
                            module, stmt,
                            f"{cls.name}.{attr} stores {problem}, which does "
                            "not survive pickling; drop it in __getstate__ "
                            "and rebuild lazily, or store picklable state",
                        )

    def _problem(self, module: ModuleModel, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            name = module.call_name(value)
            if name in _UNPICKLABLE_CALLS:
                return _UNPICKLABLE_CALLS[name]
            if isinstance(value.func, ast.Attribute):
                tail = value.func.attr
                if tail in _UNPICKLABLE_METHOD_TAILS:
                    return _UNPICKLABLE_METHOD_TAILS[tail]
        return None


def _self_attr(target: ast.AST) -> Optional[str]:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _methods_of(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _handled_attrs(getstate: Optional[ast.AST]) -> Set[str]:
    """Attribute names ``__getstate__`` mentions as string literals."""
    if getstate is None:
        return set()
    out: Set[str] = set()
    for node in ast.walk(getstate):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out
