"""Regenerate expected.json from one recorded pass per workload at seed 0.

    python3 bench/make_expected.py

Seed 0 uses the catalog's own labelling.  Every recorded value is in a
labelling-independent form, so the same file checks every seed.  Only
rerun this on purpose: the file is what a pass is checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import RunError, spawn

EXPECTED_PATH = Path(__file__).with_name("expected.json")

GROUP_WORKLOADS = ("coh_shapiro", "lq_sweep", "sep_sweep")


def main() -> int:
    expected = {}
    for workload in GROUP_WORKLOADS:
        try:
            report = spawn(workload, 0, "--record")
        except RunError as exc:
            print(f"make_expected: {exc}", file=sys.stderr)
            return 2
        if report["failures"]:
            print(f"make_expected: {workload} failed: {report['failures'][:3]}",
                  file=sys.stderr)
            return 1
        expected.update({k: sorted(v, key=json.dumps)
                         for k, v in report["recorded"].items()})
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(expected)} keys to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
