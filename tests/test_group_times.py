"""`scripts/group_times.py` names each group of a workload with its time."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "group_times.py"


def test_lattice_workload_names_its_groups():
    out = subprocess.run([sys.executable, str(SCRIPT), "lattice-insoluble", "--passes", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert sorted(name for _, name in rows) == ["A5", "A6", "S5"]
    times = [float(s) for s, _ in rows]
    assert times == sorted(times, reverse=True) and times[-1] > 0
