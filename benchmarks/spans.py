"""Span recording at the public-function boundaries of the uavdsa modules.

The tracer wraps functions from outside the package: it replaces each
public function of a module, and every `from ... import` binding of that
same function object in the other modules, with a wrapper that records a
span (name, start, end, parent, run). Nothing under src/ knows about it.
Spans are kept in flat arrays in memory and written out once, at the end
of a run.
"""

import functools
import inspect
import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.runs: list[str] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.runs) - 1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, namer=None, after=None):
        """A traced stand-in for fn. namer(args, kwargs) may pick the span
        name per call; after(tracer, args, kwargs, result) runs once the
        span is closed, so its cost lands in the caller's self time."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid if namer is None else self.name_id(namer(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules, methods=(), hooks=None) -> None:
        """Wrap every public function defined in `modules`, at its defining
        attribute and at each binding of the same object in `modules`, plus
        the (class, attribute) pairs in `methods`. hooks maps a span name to
        (namer, after) for wrap()."""
        hooks = hooks or {}
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self.wrap(obj, name, *hooks.get(name, ()))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for cls, attr in methods:
            layer = cls.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name, *hooks.get(name, ())))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_run(self, label: str) -> int:
        self.runs.append(label)
        return len(self.runs) - 1

    def write_jsonl(self, path: str, origin: float, run: int) -> int:
        """One JSON object per span of `run`; times in seconds since `origin`."""
        written = 0
        with open(path, "w") as f:
            for sid in range(len(self.name)):
                if self.run[sid] != run:
                    continue
                parent = self.parent[sid]
                f.write(json.dumps({
                    "id": sid, "name": self.names[self.name[sid]],
                    "start": self.start[sid] - origin, "end": self.end[sid] - origin,
                    "parent": None if parent < 0 else parent,
                    "run": self.runs[run]}, separators=(",", ":")) + "\n")
                written += 1
        return written


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once, and a
    child running past its parent's end is clipped)."""
    own = [end[i] - start[i] for i in range(len(start))]
    covered_to: dict[int, float] = {}
    for c in sorted(range(len(start)), key=start.__getitem__):
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], covered_to.get(p, start[p]))
        hi = min(end[c], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def totals_by_run(tracer: Tracer, own: list[float]) -> dict[int, dict[str, list]]:
    """run -> name -> [calls, self seconds, inclusive seconds]."""
    totals: dict[int, dict[str, list]] = {}
    names, name, run, start, end = tracer.names, tracer.name, tracer.run, tracer.start, tracer.end
    for sid in range(len(name)):
        row = totals.setdefault(run[sid], {}).setdefault(names[name[sid]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[sid]
        row[2] += end[sid] - start[sid]
    return totals
