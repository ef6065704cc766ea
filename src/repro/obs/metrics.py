"""Metrics registry: labelled counters, gauges and histograms.

Gathers the testbed's run counters (tick accounting as
``session.ticks{mode=executed|idle_ff|transfer_ff}``, event-engine
dispatches, retry attempt counts, cache hit rates) into one queryable
structure.  Registries are
mutable and process-local; :class:`MetricsSnapshot` is the frozen,
picklable, ``==``-comparable form that crosses worker boundaries and
merges across a sweep.

Determinism contract: everything recorded into a per-run registry must
be a pure function of the RunSpec, so a ``workers=0`` and a
``workers=2`` sweep aggregate to identical snapshots.  Process-level
effects (e.g. encode-cache warmth) must stay out of per-run registries.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

Labels = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-ish scale).
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def _labels_key(labels: Mapping[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value; last write wins."""

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram with sum and count."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create instrument store keyed by (name, sorted labels)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, Labels], Counter] = {}
        self._gauges: dict[tuple[str, Labels], Gauge] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot(
            counters=tuple(sorted(
                (name, labels, c.value)
                for (name, labels), c in self._counters.items()
            )),
            gauges=tuple(sorted(
                (name, labels, g.value)
                for (name, labels), g in self._gauges.items()
            )),
            histograms=tuple(sorted(
                (name, labels, h.bounds, tuple(h.counts), h.sum, h.count)
                for (name, labels), h in self._histograms.items()
            )),
        )


HistogramRow = tuple[str, Labels, tuple[float, ...], tuple[int, ...], float, int]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, picklable, mergeable view of a registry.

    Rows are sorted tuples, so two snapshots compare equal exactly when
    they contain the same instruments with the same values — the
    property the workers=0 vs workers=2 equivalence tests assert.
    """

    counters: tuple[tuple[str, Labels, float], ...] = ()
    gauges: tuple[tuple[str, Labels, float], ...] = ()
    histograms: tuple[HistogramRow, ...] = ()

    def value(self, name: str, **labels: object) -> Optional[float]:
        """Look up a counter or gauge value (counters win on collision)."""
        key = _labels_key(labels)
        for rows in (self.counters, self.gauges):
            for row_name, row_labels, value in rows:
                if row_name == name and row_labels == key:
                    return value
        return None

    def total(self, name: str) -> float:
        """Sum a counter across all label sets (e.g. all tick modes)."""
        return sum(v for n, _, v in self.counters if n == name)

    @staticmethod
    def merge(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Aggregate across runs: counters and histograms sum, gauges
        keep the last-written value per label set."""
        counters: dict[tuple[str, Labels], float] = {}
        gauges: dict[tuple[str, Labels], float] = {}
        histograms: dict[tuple[str, Labels], list] = {}
        for snap in snapshots:
            for name, labels, value in snap.counters:
                key = (name, labels)
                counters[key] = counters.get(key, 0.0) + value
            for name, labels, value in snap.gauges:
                gauges[(name, labels)] = value
            for name, labels, bounds, counts, total, count in snap.histograms:
                key = (name, labels)
                merged = histograms.get(key)
                if merged is None:
                    histograms[key] = [bounds, list(counts), total, count]
                else:
                    if merged[0] != bounds:
                        raise ValueError(
                            f"histogram {name}{dict(labels)} bucket mismatch"
                        )
                    merged[1] = [a + b for a, b in zip(merged[1], counts)]
                    merged[2] += total
                    merged[3] += count
        return MetricsSnapshot(
            counters=tuple(sorted(
                (name, labels, value)
                for (name, labels), value in counters.items()
            )),
            gauges=tuple(sorted(
                (name, labels, value)
                for (name, labels), value in gauges.items()
            )),
            histograms=tuple(sorted(
                (name, labels, bounds, tuple(counts), total, count)
                for (name, labels), (bounds, counts, total, count)
                in histograms.items()
            )),
        )

    def to_json(self) -> dict:
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for name, labels, value in self.counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for name, labels, value in self.gauges
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "buckets": list(bounds),
                    "counts": list(counts),
                    "sum": total,
                    "count": count,
                }
                for name, labels, bounds, counts, total, count
                in self.histograms
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


EMPTY_SNAPSHOT = MetricsSnapshot()


# ---------------------------------------------------------------------------
# The process-level registry.
# ---------------------------------------------------------------------------
#
# Per-run registries obey the determinism contract above; anything that
# depends on process history — encode-cache warmth, worker-pool
# lifecycle, outcome-cache hit rates — records here instead.  This
# registry is explicitly *outside* the workers=0 == workers=N
# equivalence: two sweeps may aggregate identical per-run snapshots
# while leaving different process-level traces (one hit caches, one
# did not).

#: The sweep-supervision counters (:mod:`repro.core.supervisor`) that
#: land in the process registry.  The CLI differences these around a
#: sweep to print its supervision summary and to merge robustness
#: telemetry into ``--metrics-json`` output.
SWEEP_COUNTERS = (
    "sweep.retries",
    "sweep.timeouts",
    "sweep.quarantined",
    "sweep.pool_respawns",
    "sweep.resumed_skips",
    "sweep.serial_degradations",
    "sweep.journal_skipped_lines",
)

#: The distributed-dispatch counters (:mod:`repro.core.distributed`)
#: that land in the process registry.  Like the sweep counters these
#: are process history — which hosts ran what is never part of the
#: ``workers=0 == hosts=[...]`` outcome equivalence — and the CLI
#: differences them around a sweep for its dispatch summary line.
DISPATCH_COUNTERS = (
    "dispatch.shards",
    "dispatch.leases_sent",
    "dispatch.leases_completed",
    "dispatch.worker_deaths",
    "dispatch.redispatched_leases",
    "dispatch.hosts_unreachable",
    "dispatch.local_fallback_leases",
)

_PROCESS_REGISTRY = MetricsRegistry()


def process_registry() -> MetricsRegistry:
    """The registry for process-level effects (caches, pools).

    Distinct from the per-run registries ``Observability`` creates:
    values here are functions of process history, not of any RunSpec,
    and never ride a :class:`MetricsSnapshot` across workers.
    """
    return _PROCESS_REGISTRY


def reset_process_registry() -> MetricsRegistry:
    """Swap in a fresh process registry (tests and benchmarks)."""
    global _PROCESS_REGISTRY
    _PROCESS_REGISTRY = MetricsRegistry()
    return _PROCESS_REGISTRY
