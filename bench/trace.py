"""An in-memory span recorder and the instance wrappers that feed it.

A traced run records one span per call into a layer: its name, start and
end (monotonic nanoseconds), the span that caused it and the request it
belongs to.  Spans are kept in memory and summarised when the run ends.

Wrappers go on layer *instances*, never on classes, and are installed
from the benchmark's own code only for the traced part of a run;
:meth:`SpanRecorder.unwrap_all` removes every one of them and
:func:`assert_unwrapped` proves that none is left on an object.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

from repro.evaluation.metrics import PhaseTimer

#: Attribute marking a function as a span wrapper installed by this module.
_MARK = "_bench_span"


class SpanRecorder:
    """Spans of one run, stored column-wise."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self._open: List[int] = []
        self._request = -1
        self._installed: List[Tuple[object, str]] = []

    # -- recording --------------------------------------------------------
    def request(self, name: str) -> int:
        """Open the root span of a new request."""
        self._request += 1
        return self.begin(name)

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.requests.append(self._request)
        self.ends.append(0)
        self._open.append(span)
        self.starts.append(perf_counter_ns())
        return span

    def end(self, span: int) -> None:
        self.ends[span] = perf_counter_ns()
        if self._open.pop() != span:
            raise RuntimeError(f"span {span} ({self.names[span]}) closed out of order")

    # -- instance wrappers --------------------------------------------------
    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``obj.attr``."""
        if attr in vars(obj):
            raise RuntimeError(f"{type(obj).__name__}.{attr} is already set on the instance")
        original = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(span)

        setattr(traced, _MARK, name)
        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper this recorder installed."""
        while self._installed:
            obj, attr = self._installed.pop()
            if getattr(vars(obj).get(attr), _MARK, None) is not None:
                delattr(obj, attr)

    def phase_timer(self, names: Dict[str, str]) -> PhaseTimer:
        """A ``PhaseTimer`` whose phases are also recorded as spans."""
        return _SpanPhaseTimer(self, names)

    # -- summaries ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Per root span name, per span name: count, total and self ns.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        if not self.names:
            return {}
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        if np.any(ends < starts):
            raise RuntimeError("summary() called with spans still open")
        duration = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        ).astype(np.int64)
        self_ns = duration - children
        requests = np.asarray(self.requests, dtype=np.int64)
        roots = np.flatnonzero(~nested)
        root_of_request = np.zeros(int(requests.max()) + 1, dtype=np.int64)
        root_of_request[requests[roots]] = roots
        vocabulary: Dict[str, int] = {}
        codes = np.asarray(
            [vocabulary.setdefault(name, len(vocabulary)) for name in self.names], dtype=np.int64
        )
        words = list(vocabulary)
        keys = codes[root_of_request[requests]] * len(words) + codes
        unique, inverse = np.unique(keys, return_inverse=True)
        counts = np.bincount(inverse)
        totals = np.bincount(inverse, weights=duration)
        selfs = np.bincount(inverse, weights=self_ns)
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for slot, key in enumerate(unique.tolist()):
            root, name = words[key // len(words)], words[key % len(words)]
            out.setdefault(root, {})[name] = {
                "count": int(counts[slot]),
                "total_ns": int(totals[slot]),
                "self_ns": int(selfs[slot]),
            }
        return out

    def raw(self, limit: int) -> Dict[str, list]:
        """The first ``limit`` spans, column-wise (for the ``--json`` dump)."""
        return {
            "name": self.names[:limit],
            "parent": self.parents[:limit],
            "request": self.requests[:limit],
            "start_ns": self.starts[:limit],
            "end_ns": self.ends[:limit],
        }


class _SpanPhaseTimer(PhaseTimer):
    def __init__(self, recorder: SpanRecorder, names: Dict[str, str]) -> None:
        super().__init__()
        self._recorder = recorder
        self._names = names

    def phase(self, name: str) -> "_SpanPhase":
        return _SpanPhase(self._recorder, self._names.get(name, name))


class _SpanPhase:
    __slots__ = ("_recorder", "_name", "_span")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_SpanPhase":
        self._span = self._recorder.begin(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.end(self._span)


def assert_unwrapped(*objects: object) -> None:
    """Raise if any span wrapper is still installed on one of ``objects``."""
    for obj in objects:
        for attr, value in vars(obj).items():
            if getattr(value, _MARK, None) is not None:
                raise RuntimeError(
                    f"span wrapper left on {type(obj).__name__}.{attr}"
                )
