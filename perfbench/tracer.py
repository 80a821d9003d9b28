"""In-memory tracing of calls into the shilow modules, installed from outside.

The tracer never edits the package: after ``import shilow.cli`` it rebinds
every public function, method and property getter defined in a ``shilow``
module to a wrapper, in every ``shilow`` module namespace (and module-level
dict) that holds it.  ``from .x import f`` makes copies of the binding, so
each copy is replaced; methods are replaced on their class.

Coarse calls (``TARGETS`` of kind "span") become spans
``(id, parent, name, start, end, self, attrs, work)``, where ``work``
holds the counters that moved inside the span.  Hot calls leave no span
record: every other wrapped call is counted, and timed as a frame of
its own whenever its caller belongs to another layer, so that its time
is charged to the module that defines it.  A call within the caller's
own layer needs no frame, since its time belongs to that layer anyway.
Every timed frame subtracts its duration from its parent's self time,
so per-layer self times add up to the traced time without double
counting.  Dunder methods (construction, hashing, comparison) are not
wrapped, except ``GroupElement.__init__``, which is counted only; their
time stays with the caller.  Everything stays in memory until
``Tracer.dump`` is called once at process exit.
"""
from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("cli", "verify", "lowness", "elements", "ratlp", "signtypes",
          "regions", "automaton", "rootdata", "report")


def _scan_attrs(args, kwargs, result):
    return {"type": result.group.system.cartan_type.name,
            "visited": result.visited, "stop_length": result.stop_length,
            "regions": len(result.minima)}


def _low_attrs(args, kwargs, result):
    return {"type": args[0].system.cartan_type.name, "low": len(result)}


def _signtype_attrs(args, kwargs, result):
    return {"admissible": len(result)}


def _automaton_attrs(args, kwargs, result):
    return {"type": result.group.system.cartan_type.name,
            "states": len(result.states)}


def _suite_attrs(args, kwargs, result):
    return {"type": f"{args[1]}{args[2]}", "checks": len(result.checks),
            "passed": result.passed}


# Calls wrapped other than by default.  (module, attribute, class or None,
# kind, attrs hook).  kind is "span", "timed" (always a timed frame, with
# its inclusive time kept), "count" (counted only) or "layer" (the
# default).  These are named ``layer.attribute`` even when they are
# methods; every other method is ``layer.Class.attribute``.
TARGETS = (
    ("shilow.cli", "main", None, "span", None),
    ("shilow.verify", "run_suite", None, "span", _suite_attrs),
    ("shilow.verify", "desk_context", None, "span", None),
    ("shilow.lowness", "certified_scan", None, "span", _scan_attrs),
    ("shilow.lowness", "enumerate_low", None, "span", _low_attrs),
    ("shilow.lowness", "is_low_by_cone", None, "timed", None),
    ("shilow.elements", "multiply", "AffineWeylGroup", "timed", None),
    ("shilow.elements", "__init__", "GroupElement", "count", None),
    ("shilow.ratlp", "in_cone", None, "timed", None),
    ("shilow.signtypes", "admissible_sign_types", None, "span", _signtype_attrs),
    ("shilow.regions", "enumerate_regions", None, "span", None),
    ("shilow.automaton", "build_automaton", None, "span", _automaton_attrs),
    ("shilow.automaton", "export_dot", None, "span", None),
    ("shilow.automaton", "parse_dot", None, "span", None),
    ("shilow.automaton", "transition_table_json", None, "span", None),
    ("shilow.automaton", "is_reduced", "Automaton", "layer", None),
    ("shilow.rootdata", "root_system", None, "span", None),
    ("shilow.report", "to_json", "Report", "span", None),
    ("shilow.report", "to_text", "Report", "span", None),
)


def _key(layer: str, attr: str, cls: str | None) -> str:
    """``layer.function``; a constructor is named after its class."""
    return f"{layer}.{cls if attr == '__init__' else attr}"


def public_members(module):
    """``(class name or None, attribute, member)`` for each public function,
    method and property defined in ``module``."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield None, name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (inspect.isfunction(member)
                                                 or isinstance(member, property)):
                    yield name, attr, member


class Tracer:
    """Spans, counters and per-layer self times of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        # Each frame is [child seconds, id of the innermost enclosing span,
        # layer]; the root frame belongs to no layer.
        self.stack: list[list] = [[0.0, None, None]]

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "shilow" or name.startswith("shilow."))]
        special = {(module, cls, attr): (kind, hook)
                   for module, attr, cls, kind, hook in TARGETS}
        for layer in LAYERS:
            module = sys.modules[f"shilow.{layer}"]
            for cls, attr, member in list(public_members(module)):
                target = special.pop((module.__name__, cls, attr), None)
                if target:
                    key, (kind, hook) = _key(layer, attr, cls), target
                else:
                    key = ".".join(filter(None, (layer, cls, attr)))
                    kind, hook = "layer", None
                self._wrap(modules, module, layer, cls, attr, member, key, kind, hook)
        for (module_name, cls, attr), (kind, hook) in special.items():  # dunders
            module = sys.modules[module_name]
            layer = module_name.split(".", 1)[1]
            self._wrap(modules, module, layer, cls, attr, vars(getattr(module, cls))[attr],
                       _key(layer, attr, cls), kind, hook)

    def _wrap(self, modules, module, layer, cls, attr, member, key, kind, hook):
        self.counts.setdefault(key, 0)
        if isinstance(member, property):
            getter = self._wrapper(member.fget, key, layer, kind, hook)
            setattr(getattr(module, cls), attr,
                    property(getter, member.fset, member.fdel, member.__doc__))
            return
        wrapper = self._wrapper(member, key, layer, kind, hook)
        if cls is not None:
            setattr(getattr(module, cls), attr, wrapper)
            return
        for holder in modules:
            for name, value in list(vars(holder).items()):
                if value is member:
                    setattr(holder, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is member:
                            value[k] = wrapper

    def _wrapper(self, fn, key, layer, kind, hook):
        if kind == "span":
            return self._span(fn, key, layer, hook)
        if kind == "timed":
            return self._timed(fn, key, layer)
        if kind == "count":
            return self._count(fn, key)
        return self._layer(fn, key, layer)

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _layer(self, fn, key, layer):
        """Counted; timed as a frame only when called from another layer."""
        counts, self_time, stack, clock = (self.counts, self.self_time,
                                           self.stack, self.clock)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            top = stack[-1]
            if top[2] == layer:
                return fn(*args, **kwargs)
            frame = [0.0, top[1], layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_time[layer] += duration - frame[0]
                stack[-1][0] += duration
        return wrapper

    def _timed(self, fn, key, layer):
        counts, inclusive, self_time = self.counts, self.inclusive, self.self_time
        stack, clock = self.stack, self.clock
        inclusive.setdefault(key, 0.0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            frame = [0.0, stack[-1][1], layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                inclusive[key] += duration
                self_time[layer] += duration - frame[0]
                stack[-1][0] += duration
        return wrapper

    def _span(self, fn, key, layer, hook):
        counts, inclusive, self_time = self.counts, self.inclusive, self.self_time
        stack, clock, spans = self.stack, self.clock, self.spans
        inclusive.setdefault(key, 0.0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            name = key
            if key == "verify.run_suite":
                name = f"verify.{args[0] if args else kwargs['suite']}"
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            before = dict(counts)
            frame = [0.0, span_id, layer]
            parent = stack[-1][1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                inclusive[key] += duration
                self_time[layer] += duration - frame[0]
                stack[-1][0] += duration
            attrs = hook(args, kwargs, result) if hook else {}
            work = {k: v - before.get(k, 0) for k, v in counts.items()
                    if v != before.get(k, 0)}
            spans[span_id] = (span_id, parent, name, start, end,
                              duration - frame[0], attrs, work)
            return result
        return wrapper

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans if s is not None],
                "counts": self.counts, "inclusive": self.inclusive,
                "self": self.self_time}
