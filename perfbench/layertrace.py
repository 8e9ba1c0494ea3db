"""Layer tracing from outside the library: wrap public calls, aggregate spans.

``LayerTracer.install`` replaces the public functions and methods of each
library module with timing wrappers.  A function imported by name into
another module (``nabla`` in ``harness``, ``rs`` and ``bilinears``) is a
separate binding, so every module's namespace is searched for the original
object and each binding is replaced; otherwise that layer's calls would be
missed silently.

Spans are kept in memory as a calling-context tree: one node per call path
(parent node, wrapped name), holding the call count, the total time and
the self time (total minus the time of wrapped calls made inside it).
The exact arithmetic layers make millions of calls per round, so the tree,
not one record per call, is what stays bounded.  The benchmark's own
top-level calls (one suite, one report) are also kept as timeline spans
with a start, an end and the round they belong to.
"""

from __future__ import annotations

import enum
import inspect
import time
import types

# dunder methods that are part of a layer's public arithmetic protocol
_OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__matmul__", "__call__",
})


class _Node:
    __slots__ = ("layer", "calls", "total", "self_time", "kids")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.kids = {}

    def as_dict(self, name):
        return {"name": name, "layer": self.layer, "calls": self.calls,
                "total_s": self.total, "self_s": self.self_time,
                "children": [kid.as_dict(key) for key, kid in self.kids.items()]}


class LayerTracer:
    def __init__(self):
        self.root = _Node("root")
        # each frame is [node, time spent in wrapped calls made inside it]
        self._stack = [[self.root, 0.0]]
        self.timeline = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key, layer, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            kids = parent[0].kids
            node = kids.get(key)
            if node is None:
                node = kids[key] = _Node(layer)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
                parent[1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, layers, namespaces, extra=(), on_result=None):
        """Wrap the public callables of each layer module.

        ``layers`` maps a layer name to its module; ``namespaces`` are the
        modules whose by-name bindings are rebound to the wrappers; ``extra``
        lists (layer, module, attribute) bindings of callables defined
        elsewhere (a library call made on the layer's behalf); ``on_result``
        maps a layer name to a callback that inspects each return value.
        Returns the wrapped names, as "layer.name" or "layer.Class.name".
        """
        on_result = on_result or {}
        originals = {}
        wrapped = []
        for layer, module in layers.items():
            hook = on_result.get(layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    key = f"{layer}.{name}"
                    originals[id(obj)] = (obj, self._wrap(obj, key, layer, hook))
                    wrapped.append(key)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    wrapped += self._wrap_class(obj, layer, hook)
        for layer, module, name in extra:
            obj = getattr(module, name)
            key = f"{layer}.{name}"
            originals[id(obj)] = (obj, self._wrap(obj, key, layer))
            wrapped.append(key)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])
        return wrapped

    def _wrap_class(self, cls, layer, hook):
        wrapped = []
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in _OPERATORS
            if not public:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, key, layer, hook))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, key, layer, hook)))
            else:
                continue
            wrapped.append(key)
        return wrapped

    # -- the benchmark's own spans -------------------------------------------

    def span(self, fn, key, layer, round_id):
        """Call fn() inside a span that is also kept on the timeline."""
        traced = self._wrap(fn, key, layer)
        start = time.perf_counter()
        try:
            return traced()
        finally:
            self.timeline.append({"name": key, "layer": layer, "round": round_id,
                                  "start": start, "end": time.perf_counter()})

    # -- aggregation ------------------------------------------------------------

    def totals(self):
        """Per wrapped name: (layer, calls, self time), summed over call paths.

        Names are "layer.name" or "layer.Class.name", as install returns them.
        """
        out = {}
        todo = [(key, node) for key, node in self.root.kids.items()]
        while todo:
            key, node = todo.pop()
            layer, calls, self_s = out.get(key, (node.layer, 0, 0.0))
            out[key] = (layer, calls + node.calls, self_s + node.self_time)
            todo.extend(node.kids.items())
        return out

    def layer_self_time(self):
        out = {}
        for layer, _, self_s in self.totals().values():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def tree(self):
        return self.root.as_dict("root")
