"""Record the exit code and stdout sha256 of every CLI call the benchmark
can issue: both ``verify`` runs, the opt-in ``verify --n 12`` profile and
the whole ``queries`` universe.

The benchmark fails any op whose output differs from these digests, which
holds later changes to byte-identical stdout.  Re-record only on a commit
whose output is known to be right, and say so in the change:

    python3 bench/record_digests.py    # about 3 minutes, ~0.8 GB
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    calls = [("verify", "--n", str(n)) for n in workloads.VERIFY_DEGREES + workloads.Verify12.degrees]
    calls += workloads.query_universe()
    out = {}
    for argv in calls:
        out[" ".join(argv)] = workloads.digest(*workloads.call_cli(argv))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(out.items())]
    workloads.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(out)} digests -> {workloads.DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
