"""Profiling hooks: per-phase wall-time and call accounting.

The session loop (the hot path of million-session sweeps) is split into
named phases — network advance, RRC, player step, finish — and
an opt-in profiler accumulates real wall-clock time per phase.  The
default run loop is untouched when profiling is off; the profiled loop
is a separate method, so the zero-overhead contract of the tracer also
holds here.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class PhaseStat:
    phase: str
    wall_s: float
    calls: int


class PhaseProfiler:
    """Accumulates (wall seconds, call count) per named phase."""

    def __init__(self) -> None:
        self._wall: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        self._wall[phase] = self._wall.get(phase, 0.0) + seconds
        self._calls[phase] = self._calls.get(phase, 0) + calls

    def time(self, phase: str) -> "_PhaseTimer":
        return _PhaseTimer(self, phase)

    def snapshot(self) -> tuple[PhaseStat, ...]:
        return tuple(
            PhaseStat(phase, self._wall[phase], self._calls[phase])
            for phase in sorted(self._wall)
        )

    def render(self) -> str:
        stats = self.snapshot()
        total = sum(stat.wall_s for stat in stats) or 1.0
        lines = [f"{'phase':<20}{'wall_s':>10}{'calls':>10}{'share':>8}"]
        for stat in stats:
            lines.append(
                f"{stat.phase:<20}{stat.wall_s:>10.4f}{stat.calls:>10}"
                f"{stat.wall_s / total:>7.1%}"
            )
        return "\n".join(lines)


class _PhaseTimer:
    """``with profiler.time("player"):`` context manager."""

    __slots__ = ("_profiler", "_phase", "_start")

    def __init__(self, profiler: PhaseProfiler, phase: str):
        self._profiler = profiler
        self._phase = phase
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.add(self._phase, perf_counter() - self._start)
