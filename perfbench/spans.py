"""Layer spans recorded from outside the ``repro`` package.

The traced run wraps the public functions each layer exposes
(:data:`HOOKS`) in timing shims, keeps every span in memory and writes
them out once the run ends.  A span records its name, start, end and
parent; a layer's self time is the time its spans cover minus the time
their child spans cover.  Nothing here is installed unless the benchmark
asks for a traced run, so untraced runs execute the program unmodified.

Spans are per thread (the distributed coordinator pumps each host from
its own thread), so each thread keeps its own stack and totals and the
tracer merges them when it reports.  Pool workers forked while the
tracer is installed inherit the shims; ``os.register_at_fork`` switches
them off in the child so worker-side work runs unwrapped and uncounted.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    """One public function to time: ``attr`` is ``func`` or ``Class.method``."""

    module: str
    attr: str
    span: str
    layer: str
    #: Adds a per-call quantity read from the return value (e.g. ticks).
    tally: Optional[Callable[[object], float]] = None


#: Every span the traced run records, grouped by the layer it times.
HOOKS = (
    Hook("repro.core.run", "execute", "core.run.execute", "core.run"),
    Hook("repro.core.run", "run_one", "core.run.run_one", "core.run"),
    Hook("repro.core.fleet", "run_fleet", "core.fleet.run_fleet", "core.fleet"),
    Hook("repro.services.profiles", "build_service",
         "services.build_service", "services"),
    Hook("repro.media.cache", "AssetCache.get_or_encode",
         "media.get_or_encode", "media"),
    Hook("repro.player.player", "Player.advance", "player.advance", "player"),
    Hook("repro.player.player", "Player.apply_noop_ticks",
         "player.apply_noop_ticks", "player"),
    Hook("repro.player.buffer", "PlaybackBuffer.occupancy_s",
         "player.buffer.occupancy_s", "player.buffer"),
    Hook("repro.net.network", "Network.advance", "net.advance", "net"),
    Hook("repro.net.network", "Network.advance_many", "net.advance_many",
         "net", tally=lambda result: result[0]),
    Hook("repro.net.link", "water_fill", "net.water_fill.scalar", "net"),
    Hook("repro.net.link", "water_fill_vec", "net.water_fill.vec", "net"),
    Hook("repro.net.rrc", "RrcMachine.observe", "net.rrc.observe", "net.rrc"),
    Hook("repro.core.events", "EventDrivenSession.run", "core.events.run",
         "core.events"),
    Hook("repro.core.multi", "EventDrivenMultiSession.run", "core.multi.run",
         "core.multi"),
    Hook("repro.analysis.traffic", "TrafficAnalyzer.observe_flows",
         "analysis.observe_flows", "analysis"),
    Hook("repro.analysis.qoe", "compute_qoe", "analysis.compute_qoe",
         "analysis"),
    Hook("repro.core.fleet", "summarize_population",
         "core.fleet.summarize_population", "analysis"),
    Hook("repro.core.supervisor", "SweepSupervisor.run", "core.supervisor.run",
         "core.supervisor"),
    Hook("repro.core.pool", "WorkerPool.submit", "core.pool.submit",
         "core.pool"),
    Hook("repro.core.supervisor", "SweepJournal.record",
         "core.supervisor.journal.record", "core.supervisor.journal"),
    Hook("repro.core.supervisor", "SweepJournal.store_outcome",
         "core.supervisor.journal.store_outcome", "core.supervisor.journal"),
    Hook("repro.core.distributed", "SweepCoordinator.run",
         "core.distributed.run", "core.distributed"),
    Hook("repro.core.distributed", "SocketChannel.send",
         "core.distributed.SocketChannel.send", "core.distributed"),
    Hook("repro.core.distributed", "SocketChannel.recv",
         "core.distributed.SocketChannel.recv", "core.distributed"),
)

#: The outcome-cache spans, installed on the one cache instance a
#: workload passes to ``execute`` (the journal keeps its own
#: ``OutcomeCache`` whose traffic belongs to the journal layer).
CACHE_SPANS = (
    ("get", "core.outcome_cache.get"),
    ("put", "core.outcome_cache.put"),
)
CACHE_LAYER = "core.outcome_cache"

#: Every layer a self time is reported for, in reporting order.
LAYERS = tuple(dict.fromkeys(
    [hook.layer for hook in HOOKS] + [CACHE_LAYER]
))


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "spans", "next_id")

    def __init__(self, index: int):
        self.index = index
        # Open frames: [span id, start, child time].
        self.stack: list[list] = []
        # span name -> [calls, inclusive s, self s, tally]
        self.stats: dict[str, list] = {}
        # (id, parent id or -1, name, start, end), completion order.
        self.spans: list[tuple] = []
        self.next_id = 0


#: Spans kept per thread; later ones still count in the totals.
MAX_SPANS_PER_THREAD = 50_000


class Tracer:
    """Installs :data:`HOOKS`, records spans while :attr:`active`, and
    undoes the installation in :meth:`uninstall`."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.layer_of: dict[str, str] = {}
        self.dropped = 0
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            owner_name, _, name = hook.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, self.wrap(original, hook))
            else:
                original = getattr(module, name)
                wrapped = self.wrap(original, hook)
                # A function imported by name elsewhere in the package is
                # bound in each importer: rebind every copy.
                for other in list(sys.modules.values()):
                    if (
                        getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, name, None) is original
                    ):
                        self._patch(other, name, wrapped)

    def install_on(self, obj, spans, layer: str) -> None:
        """Time methods of one instance (shadowing its class methods)."""
        for method, span in spans:
            hook = Hook(type(obj).__module__, method, span, layer)
            wrapped = self.wrap(getattr(obj, method), hook)
            self._restore.append((obj, method, _UNSET))
            setattr(obj, method, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._restore):
            if original is _UNSET:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def _thread(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def wrap(self, fn, hook: Hook):
        name = hook.span
        tally = hook.tally
        self.layer_of[name] = hook.layer
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._thread()
            stack = state.stack
            span_id = state.next_id
            state.next_id += 1
            frame = [span_id, perf(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0.0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if tally is not None and result is not None:
                    stat[3] += tally(result)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if span_id < MAX_SPANS_PER_THREAD:
                    state.spans.append((
                        span_id,
                        parent[0] if parent is not None else -1,
                        name,
                        frame[1],
                        end,
                    ))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive s, self s, tally], all threads."""
        merged: dict[str, list] = {}
        for state in self._threads:
            for name, stat in state.stats.items():
                row = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(stat):
                    row[i] += value
        return merged

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.totals().items():
            out[self.layer_of[name]] += stat[2]
        return out

    def spans(self) -> list[dict]:
        return [
            {
                "thread": state.index,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
            }
            for state in self._threads
            for span_id, parent, name, start, end in state.spans
        ]

    def write(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


_UNSET = object()
