"""Span tracing of the program from outside, by patching its public names.

``Tracer.install`` wraps every public function and method defined in the
``moedistill`` package and rebinds each module attribute that refers to one,
so a name is traced where the program looks it up (``moe`` binds ``gelu`` and
``take`` at import, ``pipeline`` binds the stage helpers, ...). The graph-op
constructor ``tensor._make`` is wrapped as a counter only. ``uninstall``
restores every binding.

A span is (name, start, end, parent). Spans are kept in memory, up to
``MAX_SPANS`` (later spans still count in the aggregates), and written out
by ``dump``. Aggregates are kept online per span name: calls, inclusive time
and self time (inclusive minus the time covered by child spans).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "moedistill"
# as_tensor runs twice inside every op and does one isinstance check; tracing
# it would triple the span count without timing any work.
SKIP = {"tensor.as_tensor"}
# Spans whose open intervals are watched: graph ops and child spans created
# while one of these is open are counted against it.
WATCH = ("model.EncoderModel.forward", "moe.moe_forward",
         "importance.accumulate_importance")
MAX_SPANS = 300_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_: list[float] = []
        self.active: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.ops = 0
        self.nested_ops = {w: 0 for w in WATCH}
        self.importance_backward = 0  # Tensor.backward calls inside accumulate_importance
        self.forward_rows = 0
        self._stack: list[list] = []  # [name_id, start, child_time, span_index]
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_.append(0.0)
            self.active.append(0)
        return i

    # -- spans ----------------------------------------------------------------

    def enter(self, nid: int):
        now = time.perf_counter()
        idx = -1
        if len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(now)
            self.span_end.append(now)
        else:
            self.dropped += 1
        self.active[nid] += 1
        self._stack.append([nid, now, 0.0, idx])

    def exit(self):
        now = time.perf_counter()
        nid, start, child, idx = self._stack.pop()
        dur = now - start
        if idx >= 0:
            self.span_end[idx] = now
        self.calls[nid] += 1
        self.incl[nid] += dur
        self.self_[nid] += dur - child
        self.active[nid] -= 1
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit
        if name == "model.EncoderModel.forward":
            def traced(*args, **kwargs):
                self.forward_rows += len(args[1] if len(args) > 1 else kwargs["token_ids"])
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        elif name == "tensor.Tensor.backward":
            importance = self.name_id("importance.accumulate_importance")

            def traced(*args, **kwargs):
                if self.active[importance]:
                    self.importance_backward += 1
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def traced(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_ops(self, make):
        watch = [(w, self.name_id(w)) for w in WATCH]

        def counted(*args, **kwargs):
            self.ops += 1
            for w, wid in watch:
                if self.active[wid]:
                    self.nested_ops[w] += 1
            return make(*args, **kwargs)
        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{obj.__qualname__}"
                    if name not in SKIP and not inspect.isgeneratorfunction(inspect.unwrap(obj)):
                        wrappers[id(obj)] = self._wrap(obj, name)
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            kind, fn = type(member), member.__func__
                        elif inspect.isfunction(member):
                            kind, fn = None, member
                        else:
                            continue
                        if inspect.isgeneratorfunction(fn):
                            continue
                        w = self._wrap(fn, f"{short}.{fn.__qualname__}")
                        self._set(obj, mname, kind(w) if kind else w)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._set(mod, attr, w)
        tensor = sys.modules.get(PACKAGE + ".tensor")
        if tensor is not None and hasattr(tensor, "_make"):
            self._set(tensor, "_make", self._count_ops(tensor._make))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, for differencing across a phase."""
        return {"calls": list(self.calls), "incl": list(self.incl),
                "self": list(self.self_), "ops": self.ops,
                "nested_ops": dict(self.nested_ops),
                "importance_backward": self.importance_backward,
                "forward_rows": self.forward_rows}

    def table(self) -> dict[str, dict]:
        return {n: {"calls": self.calls[i], "incl_s": self.incl[i], "self_s": self.self_[i]}
                for i, n in enumerate(self.names) if self.calls[i]}

    def dump(self, path: str, extra: dict):
        doc = {"names": self.names,
               "spans_columns": ["name", "start_us", "end_us", "parent"],
               "spans": [[self.span_name[i], round((self.span_start[i] - self.t0) * 1e6, 3),
                          round((self.span_end[i] - self.t0) * 1e6, 3), self.span_parent[i]]
                         for i in range(len(self.span_name))],
               "spans_dropped": self.dropped,
               "by_name": self.table(), **extra}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tracer", "nid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.tracer.enter(self.nid)

    def __exit__(self, *exc):
        self.tracer.exit()
