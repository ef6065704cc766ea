"""Recompute ``reference.json``: tick-oracle digests for the default seed.

Run from the repository root after a change that is meant to alter
simulated results (and only then)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import REFERENCE_FILE, ROOT  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    stored = {}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for name, (workload_cls, config_cls) in WORKLOADS.items():
            workload = workload_cls(
                config_cls(), DEFAULT_SEED, Path(workdir), ROOT)
            workload.prepare()
            stored[name] = {
                "seed": DEFAULT_SEED,
                "key": workload.config_key(),
                "digests": workload.reference(),
            }
            workload.teardown()
            print(f"{name}: {len(stored[name]['digests'])} digests")
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
