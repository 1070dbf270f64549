"""In-memory span recorder that wraps guardzone functions from outside.

Each wrapped call records one span: name, start, end, parent span and run
id (one run id per benchmark pass). Spans live in flat arrays while the
run goes on and are written out once, at the end, as an ``.npz`` file.
Self time is a span's duration minus the durations of its direct
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Library modules whose public functions are wrapped; a call into any of
# them is library time, so the CLI's self time is what lies outside them.
LIBRARY_MODULES = ("specfn", "params", "single_obs", "correlation", "risk",
                   "nofading", "multi_obs", "montecarlo")
# Private helpers the CLI calls directly.
EXTRA_TARGETS = (("risk", "_f_left"), ("risk", "_f_right"))


def default_targets() -> list[tuple[str, str]]:
    """(module, function) for every public library function and every
    ``cli.cmd_*`` command."""
    targets = []
    for mod_name in LIBRARY_MODULES + ("cli",):
        mod = sys.modules[f"guardzone.{mod_name}"]
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if mod_name == "cli" and not name.startswith("cmd_"):
                continue
            if mod_name != "cli" and name.startswith("_"):
                continue
            targets.append((mod_name, name))
    return targets + list(EXTRA_TARGETS)


class Tracer:
    """Records spans for wrapped functions and for named benchmark steps."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        self.returns: dict[str, list] = {}   # name -> summaries of returns
        self._keep: dict = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        summarize = self._keep.get(name)
        open_span, stack, start, end = self._open, self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if summarize is not None:
                self.returns.setdefault(name, []).append(
                    summarize(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, keep=None):
        """Wrap each target in every guardzone namespace that binds it.

        ``keep`` maps a span name to ``summarize(args, kwargs, result)``,
        whose values are collected in ``returns``. Returns a function that
        restores the original bindings.
        """
        self._keep = dict(keep or {})
        modules = [m for n, m in list(sys.modules.items())
                   if n == "guardzone" or n.startswith("guardzone.")]
        undo = []
        for mod_name, fn_name in targets:
            fn = getattr(sys.modules[f"guardzone.{mod_name}"], fn_name)
            wrapper = self.wrap(fn, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)

        return restore

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "run": np.frombuffer(self.run, dtype=np.int32)}

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total span time, self time) over all spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
