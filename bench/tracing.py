"""In-memory span recorder for the traced benchmark run.

The tracer patches public functions at the name their callers look up
(a module attribute or a class attribute), records one span per call and
restores every patch on close. Spans nest: each records its parent, so a
span's self time is its duration minus the durations of its direct
children. Some hot boundaries (Tensor construction, adjacency lookups) are
counted rather than spanned, which keeps the tracing cost on them small;
their time stays in the enclosing span's self time.

Spans live in compact integer arrays until the run ends; write() stores
them as an .npz file next to the run's results.
"""

import time
from array import array

import numpy as np


class Tracer:
    """Records nested spans and counters; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names = []
        self._ids = {}
        self.counts = {}
        self.sums = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patches = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        self._stack.append(len(self._name))
        self._name.append(nid)
        self._parent.append(self._stack[-2])
        self._start.append(self._clock())
        self._end.append(-1)

    def exit(self) -> None:
        self._end[self._stack.pop()] = self._clock()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, on_result=None):
        """Replace owner.attr with a spanned wrapper until close().

        on_call(*args) and on_result(result) are optional hooks for
        derived counters, such as ball sizes or distinct post ids.
        """
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            enter(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_count(self, owner, attr: str, name: str):
        """Replace owner.attr with a wrapper that only counts calls."""
        original = owner.__dict__[attr]
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name_id, parent, start_ns, end_ns) arrays of closed spans."""
        if len(self._stack) != 1:
            raise RuntimeError("spans are still open")
        return tuple(np.array(a, dtype=np.int64)
                     for a in (self._name, self._parent, self._start, self._end))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        name, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros(name.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=duration - child, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                    "self_s": own[i] / 1e9}
                for i, n in enumerate(self.names)}

    def durations_s(self, name: str) -> np.ndarray:
        """Durations of every span with this name, in seconds."""
        ids, _, start, end = self.arrays()
        if name not in self._ids:
            return np.zeros(0)
        keep = ids == self._ids[name]
        return (end[keep] - start[keep]) / 1e9

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name,
                            parent=parent, start_ns=start, end_ns=end)


class _Span:
    __slots__ = ("_tracer", "_nid")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._tracer.enter(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer.exit()
        return False
