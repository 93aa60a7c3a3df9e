"""Record the cost in seconds of every call of the queries workload, the
median of three in-process timings each.

The benchmark cuts the calls into like passes by these costs
(``workloads.query_parts``).  They decide only how calls are grouped,
never what is checked or measured; re-record them when the program's
relative costs change a lot:

    python3 bench/record_costs.py    # about a minute
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

REPEATS = 3


def main() -> int:
    calls = workloads.query_universe()
    times: dict[str, list[float]] = {" ".join(argv): [] for argv in calls}
    for _ in range(REPEATS):
        for argv in calls:
            t0 = time.perf_counter()
            workloads.call_cli(argv)
            times[" ".join(argv)].append(time.perf_counter() - t0)
    lines = [f"{json.dumps(k)}: {statistics.median(v):.4g}" for k, v in sorted(times.items())]
    workloads.COSTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(times)} costs -> {workloads.COSTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
