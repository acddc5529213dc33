"""Rule ``determinism``: no hidden entropy on deterministic paths.

Everything under ``core/``, ``testbed/`` and ``fuzz/`` backs a
bit-identity guarantee (the differential oracle matrix, byte-stable
checkpoints, seeded campaign replay), so three sources of hidden
nondeterminism are banned there:

- **unseeded RNGs** — module-level ``random.*`` samplers (process-
  seeded global state), ``random.Random()``/``numpy.random.default_rng()``
  with no seed, and legacy ``numpy.random.<sampler>`` global-state
  calls;
- **wall-clock reads** — ``time.time``/``time_ns``, ``datetime.now``/
  ``utcnow``, ``date.today``: replay changes results.
  (``time.perf_counter``/``monotonic`` stay legal: they feed timing
  telemetry, which is outside the bit-identity surface.)
- **set-order escapes** — iterating a set (or passing one to
  ``list``/``tuple``/``enumerate``/``join``) lets hash order reach
  outputs; ``PYTHONHASHSEED`` varies it across processes, which is
  exactly how shard workers run.  Wrapping in ``sorted()`` (or any
  order-insensitive reducer: ``min``/``max``/``sum``/``len``/``any``/
  ``all``/``frozenset``/``set``) is the fix; genuinely order-free
  consumers suppress with a justification.

Set tracking is flow-insensitive but module-aware: names assigned
set-valued expressions, attributes assigned sets anywhere in a class,
and zero-argument methods/properties returning sets are all treated as
set-valued at every use site in the same module.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from ..findings import Finding
from ..registry import Rule, register
from ..walker import ModuleModel

_STDLIB_SAMPLERS = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.lognormvariate",
    "random.betavariate", "random.expovariate", "random.gammavariate",
    "random.triangular", "random.vonmisesvariate", "random.paretovariate",
    "random.weibullvariate", "random.getrandbits", "random.randbytes",
    "random.seed",
}

_NUMPY_GLOBAL_SAMPLERS = {
    "numpy.random." + name
    for name in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "normal", "uniform",
        "poisson", "exponential", "binomial", "beta", "gamma", "standard_normal",
        "seed",
    )
}

_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.date.today": "date.today()",
}

#: Wrappers whose result is order-insensitive (or re-ordered), so a set
#: argument/iterable is fine.
_ORDER_SAFE_WRAPPERS = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
}

#: Wrappers that preserve iteration order, so a set argument leaks order.
_ORDER_LEAKING_WRAPPERS = {"list", "tuple", "enumerate", "reversed", "iter"}

_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


@register
class DeterminismRule(Rule):
    id = "determinism"
    severity = "error"
    description = (
        "no unseeded RNGs, wall-clock reads, or set-iteration order "
        "escapes on deterministic (core/testbed/fuzz) paths"
    )
    paths = ("core/", "testbed/", "fuzz/")

    def check(self, module: ModuleModel) -> Iterable[Finding]:
        set_names = _SetUniverse(module)
        for call in module.iter_calls():
            name = module.call_name(call)
            if name is None:
                continue
            if name in _STDLIB_SAMPLERS:
                yield self.finding(
                    module, call,
                    f"call to {name}() uses the process-seeded global RNG; "
                    "thread a seeded numpy Generator instead",
                )
            elif name in _NUMPY_GLOBAL_SAMPLERS:
                yield self.finding(
                    module, call,
                    f"legacy global-state sampler {name}(); use a seeded "
                    "numpy.random.default_rng(seed) Generator",
                )
            elif name in ("numpy.random.default_rng", "random.Random"):
                if _unseeded(call):
                    yield self.finding(
                        module, call,
                        f"{name}() without a seed argument is entropy-seeded; "
                        "pass an explicit seed",
                    )
            elif name in _WALL_CLOCK:
                yield self.finding(
                    module, call,
                    f"wall-clock read {_WALL_CLOCK[name]} on a deterministic "
                    "path; take the timestamp as an argument "
                    "(perf_counter/monotonic timing telemetry is exempt)",
                )
        yield from self._set_order_escapes(module, set_names)

    # -- set-order escapes -------------------------------------------------
    def _set_order_escapes(self, module: ModuleModel, universe: "_SetUniverse"):
        for node in ast.walk(module.tree):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = module.call_name(node)
                tail = name.rsplit(".", 1)[-1] if name else ""
                if tail in _ORDER_LEAKING_WRAPPERS and node.args:
                    iterables.append(node.args[0])
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                ):
                    iterables.append(node.args[0])
            for iterable in iterables:
                if isinstance(node, ast.SetComp) and iterable is node.generators[0].iter:
                    # building another set: order still unobservable
                    continue
                if universe.is_set_valued(iterable):
                    yield self.finding(
                        module, iterable,
                        "iteration over a set exposes hash order "
                        "(PYTHONHASHSEED-dependent across shard workers); "
                        "wrap in sorted() or justify with a suppression",
                    )


def _unseeded(call: ast.Call) -> bool:
    if call.args and not (
        isinstance(call.args[0], ast.Constant) and call.args[0].value is None
    ):
        return False
    for keyword in call.keywords:
        if keyword.arg == "seed" and not (
            isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        ):
            return False
    return True


class _SetUniverse:
    """Module-wide, flow-insensitive knowledge of set-valued names.

    Three layers, all resolved once per module:

    - local/global **names** assigned set-valued expressions (and only
      set-valued expressions: a name that is ever re-bound to a
      non-set expression is dropped, keeping the analysis conservative);
    - **attributes** (``self._watches``-style tails) assigned
      set-valued expressions anywhere in the module;
    - **member tails** of zero-argument methods and properties whose
      returns are set-valued, so ``seq.name_set`` is recognised across
      classes in the same module.
    """

    def __init__(self, module: ModuleModel) -> None:
        self.module = module
        self.names: Set[str] = set()
        self.attr_tails: Set[str] = set()
        self.member_tails: Set[str] = set()
        poisoned: Set[str] = set()
        poisoned_attrs: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        if self._is_set_expr(value):
                            self.names.add(target.id)
                        else:
                            poisoned.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        if self._is_set_expr(value):
                            self.attr_tails.add(target.attr)
                        else:
                            poisoned_attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if len(node.args.args) <= 1 and not node.args.posonlyargs:
                    for ret in ast.walk(node):
                        if isinstance(ret, ast.Return) and ret.value is not None:
                            if self._is_set_expr(ret.value):
                                self.member_tails.add(node.name)
        self.names -= poisoned
        self.attr_tails -= poisoned_attrs

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = self.module.call_name(node)
            if name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self.is_set_valued(node.func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self.is_set_valued(node.left) or self.is_set_valued(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        return False

    def is_set_valued(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attr_tails or node.attr in self.member_tails
        return self._is_set_expr(node)
