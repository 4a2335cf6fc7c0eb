"""The simlint rule catalog: the repo's DES discipline, as checks.

Each rule encodes an invariant the test suite pins dynamically (golden
byte-identity, exact event counts, seed determinism) as a static check
that fires at the source line introducing the hazard.  Rules are
syntactic -- stdlib ``ast``, no type inference -- so they aim for the
patterns this codebase actually uses; anything cleverer than the
pattern earns a pragma with a written reason.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Tuple

from .framework import FileContext, Rule, register

Hits = Iterator[Tuple[ast.AST, str]]

#: Wall-clock callables banned outside pragma'd host-side code.
#: ``time.perf_counter`` is deliberately absent: it is the sanctioned
#: host-side timer (the sweep engine's elapsed seconds) and never leaks
#: into simulated state.
WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "sleep"},
    "datetime": {"now", "utcnow", "today"},
}

#: Module-level ``random`` functions that mutate the shared global RNG.
GLOBAL_RNG = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "expovariate", "betavariate", "seed",
    "getrandbits", "triangular", "normalvariate", "lognormvariate",
    "paretovariate", "weibullvariate", "vonmisesvariate",
}

#: String seeds must be namespaced: ``"{namespace}-..."`` with a
#: lowercase identifier namespace, e.g. ``chaos-{seed}`` or
#: ``stream-{seed}-{tenant}``.  See docs/lint.md ("Seed namespacing").
SEED_NAMESPACE_RE = re.compile(r"^[a-z][a-z0-9_]*-")

#: Directory-listing callables whose order is filesystem-dependent.
LISTING_MODULE_CALLS = {
    ("os", "listdir"), ("os", "scandir"),
    ("glob", "glob"), ("glob", "iglob"),
}
LISTING_METHODS = {"iterdir", "glob", "rglob"}

#: Attribute / variable names that hold sim-clock timestamps.  Used by
#: ``float-time-eq`` to spot exact float comparisons on simulated time.
TIME_NAMES = {
    "now", "sim_time", "timestamp", "deadline", "arrival", "granted",
    "finish_time", "start_time", "end_time", "wake_at", "due_at",
}

#: Telemetry classes that only ``repro.obs`` and the Session facade may
#: instantiate (the null-object wall; see docs/observability.md).
TELEMETRY_CLASSES = {"Tracer", "MetricsRegistry"}


def _call_name(node: ast.Call) -> Tuple[str, str]:
    """``("module", "attr")`` for ``module.attr(...)`` calls, or
    ``("", "name")`` for bare-name calls; ``("", "")`` otherwise."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            return func.value.id, func.attr
        # datetime.datetime.now(...) -> ("datetime", "now")
        if (isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)):
            return func.value.value.id, func.attr
        return "", func.attr
    if isinstance(func, ast.Name):
        return "", func.id
    return "", ""


def _from_imports(ctx: FileContext, module: str) -> Dict[str, str]:
    """Local alias -> original name for ``from <module> import ...``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


@register
class WallClockRule(Rule):
    id = "wall-clock"
    title = "no wall-clock reads in simulator code"
    rationale = (
        "Simulated time is `sim.now`; host wall-clock reads "
        "(`time.time`, `time.monotonic`, `datetime.now`, `time.sleep`) "
        "make runs machine-dependent and break golden byte-identity. "
        "`time.perf_counter` is exempt: it is the sanctioned host-side "
        "timer for elapsed-time reporting, such as a sweep's.")

    def check(self, ctx: FileContext) -> Hits:
        time_aliases = _from_imports(ctx, "time")
        dt_aliases = _from_imports(ctx, "datetime")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            if owner in WALL_CLOCK and attr in WALL_CLOCK[owner]:
                yield node, (f"wall-clock call {owner}.{attr}() in "
                             "simulator code; use sim.now / Timeout "
                             "(or time.perf_counter for host-side "
                             "run-cost timing)")
            elif owner == "" and attr:
                original = time_aliases.get(attr)
                if original in WALL_CLOCK["time"]:
                    yield node, (f"wall-clock call {attr}() (imported "
                                 "from time); use sim.now / Timeout")
            elif attr in WALL_CLOCK["datetime"] and owner in dt_aliases:
                yield node, (f"wall-clock call {owner}.{attr}() "
                             "(datetime); simulator output must not "
                             "depend on the host clock")


@register
class UnseededRngRule(Rule):
    id = "unseeded-rng"
    title = "every random.Random() takes an explicit seed"
    rationale = (
        "An argument-less `random.Random()` seeds from the OS and makes "
        "the run irreproducible. Every generator must take an explicit "
        "seed derived from the experiment seed.")

    def check(self, ctx: FileContext) -> Hits:
        random_aliases = _from_imports(ctx, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            is_random = (
                (owner == "random" and attr == "Random")
                or (owner == "" and random_aliases.get(attr) == "Random"))
            if is_random and not node.args and not node.keywords:
                yield node, ("random.Random() without a seed argument; "
                             "derive the seed from the experiment seed")


@register
class RngNamespaceRule(Rule):
    id = "rng-namespace"
    title = "string RNG seeds follow the '{namespace}-{seed}' convention"
    rationale = (
        "String seeds partition the seed space between subsystems "
        "(`chaos-{seed}`, `stream-{seed}-{tenant}`): two engines fed "
        "the same integer seed must not draw identical streams. A "
        "string seed without a `namespace-` prefix silently aliases "
        "another subsystem's stream.")

    def check(self, ctx: FileContext) -> Hits:
        random_aliases = _from_imports(ctx, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            is_random = (
                (owner == "random" and attr == "Random")
                or (owner == "" and random_aliases.get(attr) == "Random"))
            if not is_random or not node.args:
                continue
            seed = node.args[0]
            prefix = None
            if isinstance(seed, ast.Constant) and isinstance(seed.value,
                                                             str):
                prefix = seed.value
            elif isinstance(seed, ast.JoinedStr):
                first = seed.values[0] if seed.values else None
                prefix = (first.value
                          if isinstance(first, ast.Constant)
                          and isinstance(first.value, str) else "")
            if prefix is not None and not SEED_NAMESPACE_RE.match(prefix):
                yield node, ("string RNG seed must start with a "
                             "'{namespace}-' prefix (e.g. "
                             "f\"chaos-{seed}\"); got a seed starting "
                             f"with {prefix[:20]!r}")


@register
class GlobalRngRule(Rule):
    id = "global-rng"
    title = "no module-level random.* calls (shared global RNG)"
    rationale = (
        "`random.random()`, `random.choice()` etc. mutate interpreter-"
        "global state: any other caller perturbs the stream and the "
        "run stops being a pure function of its seed. Use a local "
        "seeded `random.Random` instance.")

    def check(self, ctx: FileContext) -> Hits:
        random_aliases = _from_imports(ctx, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            hit = ((owner == "random" and attr in GLOBAL_RNG)
                   or (owner == ""
                       and random_aliases.get(attr) in GLOBAL_RNG))
            if hit:
                name = attr if owner else random_aliases.get(attr, attr)
                yield node, (f"module-level random.{name}() uses the "
                             "shared global RNG; use a seeded "
                             "random.Random instance")


@register
class UnsortedListingRule(Rule):
    id = "unsorted-listing"
    title = "directory listings are sorted before use"
    rationale = (
        "`os.listdir` / `glob.glob` / `Path.iterdir` order is "
        "filesystem-dependent; feeding it into event scheduling or "
        "report output makes runs host-dependent. Wrap the listing in "
        "`sorted(...)`.")

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            is_listing = ((owner, attr) in LISTING_MODULE_CALLS
                          or (isinstance(node.func, ast.Attribute)
                              and attr in LISTING_METHODS
                              and owner not in ("glob", "os")))
            if is_listing and not ctx.inside_sorted(node):
                label = f"{owner}.{attr}" if owner else attr
                yield node, (f"{label}() order is filesystem-"
                             "dependent; wrap the listing in sorted()")


@register
class SetIterationRule(Rule):
    id = "set-iteration"
    title = "no iteration over set/frozenset expressions"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "seeds of the values; iterating one to schedule events or "
        "emit report lines produces host-dependent output. Sort the "
        "set (or keep a list/dict, which preserve insertion order).")

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            owner, attr = _call_name(node)
            return owner == "" and attr in ("set", "frozenset")
        if isinstance(node, ast.BinOp):   # union/intersection chains
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if (self._is_set_expr(candidate)
                        and not ctx.inside_sorted(candidate)
                        and not ctx.inside_sorted(node)):
                    yield candidate, ("iteration over a set expression "
                                      "has no deterministic order; "
                                      "wrap it in sorted()")


@register
class FloatTimeEqRule(Rule):
    id = "float-time-eq"
    title = "no float ==/!= against sim timestamps"
    rationale = (
        "Sim timestamps are floats accumulated through arithmetic; "
        "exact equality is representation-dependent and breaks under "
        "any kernel rewrite that reassociates the sums. Compare with "
        "<=/>= windows or math.isclose.")

    def _mentions_time(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in TIME_NAMES:
                return True
            if isinstance(sub, ast.Name) and sub.id in TIME_NAMES:
                return True
        return False

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None` / `x == "label"` comparisons are not
                # float-time comparisons even when x is named `now`.
                sides = (left, right)
                if any(isinstance(side, ast.Constant)
                       and not isinstance(side.value, (int, float))
                       for side in sides):
                    continue
                if any(self._mentions_time(side) for side in sides):
                    yield node, ("exact float equality on a sim "
                                 "timestamp; use an ordering check or "
                                 "math.isclose")
                    break


@register
class MutableDefaultRule(Rule):
    id = "mutable-default"
    title = "no mutable default arguments"
    rationale = (
        "A `def f(x=[])` default is shared across calls: one caller's "
        "mutation leaks into the next run's spec and the fingerprint "
        "no longer describes the experiment. Use None + a local, or "
        "dataclasses.field(default_factory=...).")

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults
                            if d is not None)
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict,
                                               ast.Set, ast.ListComp,
                                               ast.DictComp, ast.SetComp))
                if isinstance(default, ast.Call):
                    owner, attr = _call_name(default)
                    mutable = (owner == ""
                               and attr in ("list", "dict", "set"))
                if mutable:
                    yield default, (f"mutable default argument in "
                                    f"{node.name}(); defaults are "
                                    "shared across calls -- use None "
                                    "or field(default_factory=...)")


@register
class SilentExceptRule(Rule):
    id = "silent-except"
    title = "no bare/blanket except around kernel code"
    rationale = (
        "A bare `except:` (or a blanket `except Exception: pass`) "
        "swallows DES process failures; the kernel's failure path "
        "exists precisely so unwatched failures re-raise instead of "
        "corrupting the event order silently. Catch the narrow "
        "exception you mean.")

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield node, ("bare except: swallows kernel failures "
                             "(KeyboardInterrupt included); name the "
                             "exception")
                continue
            broad = (isinstance(node.type, ast.Name)
                     and node.type.id in ("Exception", "BaseException"))
            body_is_pass = (len(node.body) == 1
                            and isinstance(node.body[0], ast.Pass))
            if broad and body_is_pass:
                yield node, (f"except {node.type.id}: pass silently "
                             "swallows failures; catch the narrow "
                             "exception or re-raise")


@register
class TelemetryWallRule(Rule):
    id = "telemetry-wall"
    title = "telemetry objects are built only behind the Telemetry path"
    rationale = (
        "Tracer/MetricsRegistry are null-by-default hooks: engines "
        "receive them (or None) from the Session facade, which builds "
        "them from the per-run Telemetry request. Constructing one "
        "directly inside an engine would re-open the zero-overhead "
        "wall (telemetry off must schedule zero extra events).")

    def check(self, ctx: FileContext) -> Hits:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            owner, attr = _call_name(node)
            if attr in TELEMETRY_CLASSES:
                yield node, (f"direct {attr}() construction outside "
                             "repro.obs / the Session Telemetry path; "
                             "accept the instance as a parameter "
                             "instead")
