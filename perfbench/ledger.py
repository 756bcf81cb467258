"""Span tracer for the traced benchmark run, and the per-layer ledger.

The tracer times calls *into* the simulator's layers from the
benchmark's own code: it wraps public functions and methods for the
length of one traced run and records one span per call.  A span is
``(id, parent, name, start, end)``; every span of one run shares the
tracer's ``run_id``.  Spans stay in memory and are written out once,
when the run ends (:meth:`Tracer.write`).

A span's name is ``<layer>.<what>``; the layer is the part before the
first dot (``scenario``, ``engine``, ``events``, ``systems``, ``memo``,
``cluster``).  The root span ``run`` belongs to no layer: its self time
is the share of the run that no layer accounts for.

The systems layer cannot be timed from outside, because the fused numpy
pass runs all four systems in one call.  Its time is read from the
engine bus's always-on per-system totals instead (``systems_clock``):
each span notes the clock at entry and exit, and the systems time that
accrued directly inside it (not inside a child span) is charged to the
systems layer, not to the span.  Those intervals are recorded as
``systems.<name>`` spans placed at the end of their parent span — their
durations are measured, their placement is not.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("scenario", "engine", "events", "systems", "memo", "cluster")

Span = Tuple[int, int, str, float, float]

_MISSING = object()


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        #: Open frames: [span id, name, start, systems clock at entry,
        #: child seconds, child systems seconds per system].
        self._stack: List[list] = []
        self._next_id = 1
        self._restore: List[Tuple[object, str, object]] = []
        self.systems_clock: Callable[[], Dict[str, float]] = dict
        #: Self seconds per layer (``None`` key: the root span).
        self.self_s: Dict[Optional[str], float] = {}
        #: Self seconds of every ``engine.advance`` span, summed.
        self.advance_self_s = 0.0

    # --- recording --------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(),
                            self.systems_clock(), 0.0, {}])
        self._next_id += 1

    def end(self) -> float:
        t1 = time.perf_counter()
        sid, name, t0, sys0, child_s, child_sys = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        dur = t1 - t0
        sys_delta = {k: v - sys0.get(k, 0.0)
                     for k, v in self.systems_clock().items()}
        # Systems time that accrued in this span but in none of its
        # children, laid out back to back at the span's end.
        direct_sys = 0.0
        t = t1 - sum(d - child_sys.get(k, 0.0) for k, d in sys_delta.items())
        for system, d in sys_delta.items():
            d -= child_sys.get(system, 0.0)
            if d > 0.0:
                self.spans.append((self._next_id, sid, f"systems.{system}",
                                   t, t + d))
                self._next_id += 1
                t += d
                direct_sys += d
        self._charge("systems", direct_sys)
        own = dur - child_s - direct_sys
        layer = name.split(".", 1)[0] if "." in name else None
        self._charge(layer, own)
        if name == "engine.advance":
            self.advance_self_s += own
        self.spans.append((sid, parent, name, t0, t1))
        if self._stack:
            frame = self._stack[-1]
            frame[4] += dur
            for k, d in sys_delta.items():
                frame[5][k] = frame[5].get(k, 0.0) + d
        return dur

    def _charge(self, layer: Optional[str], seconds: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds

    def span(self, name: str) -> "_SpanCtx":
        return _SpanCtx(self, name)

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable[[float], None]] = None) -> Callable:
        """``fn`` wrapped so that each call records a ``name`` span;
        ``after(duration)`` runs once the span has closed."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = end()
                if after is not None:
                    after(dur)

        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              after: Optional[Callable[[float], None]] = None) -> bool:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`close`.

        Works on modules (a function looked up by global name), classes
        and instances.  Returns ``False`` when ``owner`` has no such
        attribute, so a layer that was renamed reads as zero instead of
        breaking the run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        original = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.timed(name, fn, after))
        self._restore.append((owner, attr, original))
        return True

    def close(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # --- reading ----------------------------------------------------------

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        wanted = set(names)
        return sum(t1 - t0 for _i, _p, n, t0, t1 in self.spans
                   if n in wanted)

    def count(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for _i, _p, n, _t0, _t1 in self.spans if n in wanted)

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for _i, _p, n, t0, t1 in self.spans if n == name]

    def layers_seen(self) -> List[str]:
        seen = {n.split(".", 1)[0] for _i, _p, n, _t0, _t1 in self.spans
                if "." in n}
        return sorted(seen & set(LAYERS))

    def write(self, path: str) -> None:
        """Write every span as one JSON line (the run's span file)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for sid, parent, name, t0, t1 in sorted(self.spans,
                                                    key=lambda s: s[3]):
                out.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": round(t0, 9),
                    "end": round(t1, 9)}) + "\n")


class _SpanCtx:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer.begin(self.name)

    def __exit__(self, *exc) -> bool:
        self.tracer.end()
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op call."""

    def span(self, name: str) -> "_NullCtx":
        return _NULL_CTX

    def patch(self, owner: object, attr: str, name: str,
              after=None) -> bool:
        return False


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullCtx()


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[k]
