"""The benchmark's own smoke check runs against the current package.

``bench/run.py --smoke`` runs every workload once at its smallest size,
traced and untraced, each in its own process, and checks what it computed.
It uses the package as the benchmark does (``Field2D``, ``cmc_residual``,
``SolverReport.converged``, the CLI), so a change that breaks that use fails
here. It takes about 12 s.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(lines[-1]) == {"smoke": "passed"}
    runs = lines[:-1]
    assert runs and all(line.startswith("ok ") and line.endswith(" failed=0") for line in runs), runs
