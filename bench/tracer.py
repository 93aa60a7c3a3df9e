"""In-memory span tracer that wraps bismash's layer functions from outside.

A span is (name, start, end, parent, op id).  Spans are appended to flat
arrays while a pass runs and reduced or written out only when the run
ends, so recording costs two clock reads and a few appends per call.

Wrapping is done by rebinding module attributes: a function is replaced
at *every* ``bismash.*`` module attribute that refers to it, because a
caller resolves it through its own module's globals (``bismash.cli``
imports ``count_M`` from ``bismash.counting``, ``bismash.indicator``
imports ``inversion_data`` from ``bismash.matched_pair``).  Local imports
inside functions run at call time and so pick up the wrapper too.

Generator functions (the ``enumerate_*`` streams) are charged the time
spent inside each ``next()``: one span per resumption, parented to
whatever span is open when the consumer asks for the next item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose functions are wrapped; cyclotomic and perm sit below
# these layers and are charged to their callers' self time.
LAYER_MODULES = ("bulk", "construct", "indicator", "matched_pair", "counting", "hopf", "cli")
# Layers whose private functions are wrapped too, named without the
# leading underscore: ``cli.main`` does its work in ``_build_parser``,
# ``_cmd_*``, ``_count_rows`` and ``_emit``, and would otherwise charge it
# all to its own self time.
PRIVATE_TOO = ("cli",)


class Tracer:
    def __init__(self, observers: dict | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        # name -> callable(result) run after the wrapped call; it records
        # counts where the work happens (rows, bytes, kept share).
        self.observers = observers or {}
        self.patches: list[tuple[object, str, object, object]] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        # Generator layers: items yielded in total, and by the largest stream.
        self.yields: dict[str, int] = {}
        self.max_yields: dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _iterate(self, nid: int, gen):
        count = 0
        try:
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                count += 1
                yield item
        finally:
            name = self.names[nid]
            self.yields[name] = self.yields.get(name, 0) + count
            self.max_yields[name] = max(self.max_yields.get(name, 0), count)

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(nid, fn(*args, **kwargs))

            return gen_wrapper
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function at every bismash module attribute."""
        if self._plan is None:
            self._build()
        for module, attr, original, wrapper in self._plan:
            setattr(module, attr, wrapper)
        self.patches = self._plan

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self.patches:
            setattr(module, attr, original)
        self.patches = []

    def _build(self) -> None:
        for short in LAYER_MODULES:
            importlib.import_module(f"bismash.{short}")
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "bismash" or name.startswith("bismash.")) and mod is not None
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = mods[f"bismash.{short}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and short not in PRIVATE_TOO:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr.lstrip('_')}", obj))
        self._plan = [
            (mod, attr, obj, wrappers[id(obj)][1])
            for mod in mods.values()
            for attr, obj in list(vars(mod).items())
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj
        ]

    # -- reducing -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (span minus child spans) and busy_s
        (inclusive time, skipping spans directly inside one of the same name,
        so a recursion is not counted twice)."""
        a = self.arrays()
        k = len(self.names)
        if not len(a["start"]):
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        outer = ~has_parent
        outer[has_parent] = a["name"][a["parent"][has_parent]] != a["name"][has_parent]
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_t, minlength=k)
        busy_s = np.bincount(a["name"][outer], weights=dur[outer], minlength=k)
        return {
            nm: {"calls": int(calls[i]), "self_s": float(self_s[i]), "busy_s": float(busy_s[i])}
            for i, nm in enumerate(self.names)
            if calls[i]
        }

    def entry_split(self) -> tuple[float, float]:
        """(time inside outermost spans, their self time).

        An outermost span is an op's entry point (``cli.main``, or
        ``bulk.census_by_dimension`` for the census); its self time is
        work no named span below it accounts for, such as argument parsing
        and the private command helpers inside ``cli.main``.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        is_root = a["parent"] < 0
        child_of_root = ~is_root & is_root[np.maximum(a["parent"], 0)]
        total = float(dur[is_root].sum())
        return total, total - float(dur[child_of_root].sum())

    def save(self, path) -> None:
        """Write every span; times as 100 ns ticks since the first span."""
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        for key in ("start", "end"):
            a[key] = np.round((a[key] - t0) * 1e7).astype(np.uint32)
        np.savez_compressed(path, names=np.array(self.names), t0=t0, tick_s=1e-7, **a)
