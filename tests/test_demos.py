import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  The demos are deterministic, so any
# change to what they print (values, wording or generation order) shows
# here; re-record a digest only for an intended change of output.
STDOUT_SHA256 = {
    "01_shift_action_and_orbits.py": "b6f81c6cac2b6b698d908ae7dc3ff5bbfe5edaa808fae0a9fea231c657c72e96",
    "02_indicators_two_routes.py": "4bebf0a8fc1a5b3a2a782aea7dc29d9d65bd57a1a115a6b9bc551e4474280d97",
    "03_counting_tower.py": "af23dbb440d9aef47267f43f45734d5226c081d2736f0f6cfca73e0f76ff1e46",
    "04_censuses.py": "8e273cf95776f4bc559fff1bf7137dae815c58fe8c862907d9ab083e8a27dd8f",
    "05_sparsity_trends.py": "e76f56ac2602b0322215f1b378727c4fdc53f169311d20b276ddfadf365a21a6",
}


def test_demos_present():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
