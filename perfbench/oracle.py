"""Correctness gate: digests of simulated results against the tick oracle.

A spec's simulated results are its ``RunRecord``; a fleet's are its
``ClientRecord``s plus its ``PopulationSummary``.  Engine-mechanism
counters (``TickStats``, dispatch, push and stop counts in the metrics
snapshot) are left out on purpose, so an engine optimisation may change
them without failing the gate.  The reference is the same inputs run
in process on ``engine="tick"``, the plain per-tick loop.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json


def canonical(value):
    """A JSON-ready form of a result that keeps every float bit."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__name__,
            {f.name: canonical(getattr(value, f.name))
             for f in dataclasses.fields(value)},
        ]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return sorted(
            ([canonical(k), canonical(v)] for k, v in value.items()),
            key=json.dumps,
        )
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    blob = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def spec_digest(outcome) -> str:
    """Digest of one spec's simulated results; ``"failed"`` when the
    lease produced none (a quarantined ``FailedOutcome``)."""
    if outcome is None or outcome.record is None:
        return "failed"
    return digest(outcome.record)


def fleet_digests(outcome) -> tuple[list[str], str]:
    """Per-client digests and the population digest of a fleet."""
    return (
        [digest(record) for record in outcome.clients],
        digest(outcome.population),
    )


def count_mismatches(got: list[str], want: list[str]) -> int:
    """Entries of ``got`` that differ from the reference (missing
    entries count as mismatches)."""
    mismatched = sum(1 for g, w in zip(got, want) if g != w)
    return mismatched + abs(len(got) - len(want))
