"""Experiment sweeps: services x cellular profiles (section 2.6).

The paper runs each service against 14 recorded cellular bandwidth
profiles for 10 minutes, repeating runs to wash out transients.  These
helpers do the same against the synthetic profiles, with duration and
repetition knobs so tests and benchmarks can trade fidelity for time.

Execution is delegated to the unified run API (:mod:`repro.core.run`):
``workers=0`` (the default) runs in process and keeps the full live
:class:`~repro.core.session.SessionResult` on each run; ``workers>0``
fans the grid over worker processes and keeps only the compact
:class:`~repro.core.parallel.RunRecord` — the QoE-level outputs are
identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, median
from typing import Optional, Sequence

from repro.core.parallel import RunRecord, RunSpec
from repro.core.run import RunOutcome
from repro.core.session import ResultFieldMissing, SessionResult
from repro.net.traces import CellularTrace, cellular_profiles


@dataclass
class ProfileRun:
    """One (service, profile, repetition) run.

    ``result`` (the live session graph) is populated by serial sweeps;
    parallel sweeps return only the picklable ``record``.  ``qoe`` works
    with either.
    """

    service_name: str
    profile_id: int
    repetition: int
    result: Optional[SessionResult] = None
    record: Optional[RunRecord] = field(repr=False, default=None)

    @property
    def qoe(self):
        if self.result is not None:
            return self.result.qoe
        if self.record is None:
            raise ResultFieldMissing(
                "qoe", "a ProfileRun carrying neither result nor record"
            )
        return self.record.qoe

    @classmethod
    def from_outcome(cls, outcome: RunOutcome) -> "ProfileRun":
        return cls(
            service_name=outcome.record.service_name,
            profile_id=outcome.spec.profile_id,
            repetition=outcome.spec.repetition,
            result=outcome.result,
            record=outcome.record,
        )


def profile_sweep_specs(
    spec_or_name,
    profiles: Optional[Sequence[CellularTrace]] = None,
    *,
    duration_s: float = 600.0,
    repetitions: int = 1,
    dt: float = 0.1,
    config_overrides: tuple[tuple[str, object], ...] = (),
    engine: str = "tick",
) -> list[RunSpec]:
    """Specs for one service over every profile (x repetitions).

    The spec-building half of the old ``run_service_over_profiles``;
    hand the result to :func:`repro.core.run.execute`.
    """
    if profiles is None:
        profiles = cellular_profiles(int(duration_s))
    return [
        RunSpec(
            service=spec_or_name,
            profile_id=trace.profile_id,
            repetition=repetition,
            duration_s=duration_s,
            dt=dt,
            trace=trace,
            config_overrides=config_overrides,
            engine=engine,
        )
        for trace in profiles
        for repetition in range(repetitions)
    ]


@dataclass(frozen=True)
class RunSummary:
    """Aggregates over a set of runs (one service)."""

    service_name: str
    run_count: int
    mean_bitrate_bps: float
    median_stall_s: float
    mean_stall_s: float
    stall_run_fraction: float
    mean_startup_delay_s: float
    mean_switches_per_minute: float
    total_bytes: int


def summarize_runs(runs: Sequence[ProfileRun]) -> RunSummary:
    if not runs:
        raise ValueError("no runs to summarize")
    qoes = [run.qoe for run in runs]
    startup = [q.startup_delay_s for q in qoes if q.startup_delay_s is not None]
    return RunSummary(
        service_name=runs[0].service_name,
        run_count=len(runs),
        mean_bitrate_bps=mean(q.average_displayed_bitrate_bps for q in qoes),
        median_stall_s=median(q.total_stall_s for q in qoes),
        mean_stall_s=mean(q.total_stall_s for q in qoes),
        stall_run_fraction=mean(1.0 if q.stall_count else 0.0 for q in qoes),
        mean_startup_delay_s=mean(startup) if startup else float("nan"),
        mean_switches_per_minute=mean(q.switches_per_minute for q in qoes),
        total_bytes=sum(q.total_bytes for q in qoes),
    )
