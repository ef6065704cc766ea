"""CI gate: the full grid swept twice through the outcome cache.

Deterministic by construction — no wall-clock thresholds, so it can
gate where the perf benchmarks cannot: the second pass must be a 100%
cache hit and outcome-identical to both the first pass and a
cache-free serial sweep.
"""

from __future__ import annotations

import tempfile

from repro.core.outcome_cache import OutcomeCache
from repro.core.parallel import RunSpec
from repro.core.run import execute
from repro.net.traces import PROFILE_COUNT
from repro.services import ALL_SERVICE_NAMES


def main() -> None:
    grid = [
        RunSpec(service=service, profile_id=profile_id, duration_s=45.0,
                engine="event")
        for service in ALL_SERVICE_NAMES
        for profile_id in range(1, PROFILE_COUNT + 1)
    ]
    reference = execute(grid, workers=0)
    with tempfile.TemporaryDirectory() as root:
        cache = OutcomeCache(root)
        first = execute(grid, workers=0, cache=cache)
        second = execute(grid, workers=0, cache=cache)
        assert cache.misses == len(grid), (cache.misses, len(grid))
        assert cache.hits == len(grid), (cache.hits, len(grid))
        assert first == reference
        assert second == reference
    print(
        f"fabric cache gate: {len(grid)} runs, "
        "second pass 100% hits, records identical"
    )


if __name__ == "__main__":
    main()
