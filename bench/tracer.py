"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent).  Spans live in flat arrays so a
traced pass with a million calls stays a few tens of MB; they are written
out once, when the run ends.  The recorder is single-threaded by design:
the benchmark runs one process with MOMENTRAY_WORKERS unset, so the
package never calls back from a worker thread.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from types import FunctionType

import numpy as np


class Recorder:
    """Flat span store with a parent stack."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attrs = {}  # span index -> dict of work counts for that call
        self.stack = [-1]

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        idx = self._open(self.intern(name))
        try:
            yield idx
        finally:
            self._close(idx)
            if attrs:
                self.attrs[idx] = attrs

    def wrap(self, name, fn, hook=None):
        """A stand-in for fn that records one span per call.

        hook(args, kwargs, result) returns a dict of work counts for the
        call; it runs after the span closes, so its cost lands in the
        caller's self time, not in this function's.  A call that raises
        gets {"raised": <exception name>}.
        """
        nid = self.intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                self.attrs[idx] = {"raised": type(exc).__name__}
                raise
            close(idx)
            if hook is not None:
                self.attrs[idx] = hook(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """(name_id, parent, duration_ns, self_ns) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=dur.size
        )
        return name_id, parent, dur, dur - child

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def install(recorder, package, modules, hooks):
    """Point every public function of the modules at a recording wrapper.

    A function is replaced under every module-level name a caller looks it
    up by (its own module and each module that imported it), and inside
    module-level tuples of functions such as a criteria table.  The span
    name is "<defining module>.<function>".  Returns an undo callable.
    """
    wrapped = {}
    patches = []

    def wrapper_for(fn):
        if fn not in wrapped:
            name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
            wrapped[fn] = recorder.wrap(name, fn, hooks.get(name))
        return wrapped[fn]

    def ours(value):
        return (
            isinstance(value, FunctionType)
            and value.__module__.startswith(package + ".")
            and not value.__name__.startswith("_")
        )

    for short in modules:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if ours(value):
                new = wrapper_for(value)
            elif isinstance(value, tuple) and any(ours(v) for v in value):
                new = tuple(wrapper_for(v) if ours(v) else v for v in value)
            else:
                continue
            patches.append((mod, attr, value))
            setattr(mod, attr, new)

    def undo():
        for mod, attr, value in reversed(patches):
            setattr(mod, attr, value)

    return undo
