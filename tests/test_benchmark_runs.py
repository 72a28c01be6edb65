"""Every benchmark workload runs end to end from the repository root.

One round of each workload, as ``steinbench/run.py`` runs it, in its own
process: the run must exit 0 and its last line must be a JSON result with
every output check passing and no failed operation.  With ``--trace 1`` the
tracer patches every binding site, so a renamed or moved function that the
tracer wraps fails here too.  A traced risk-verify round must take every
risk expectation from the moment kernels, with no quadrature, and a traced
bootstrap-fit round must spend time inside ``SegmentMoments.ssr_table``,
where the SSR tables are built.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("mc-study", 0), ("mc-study", 1), ("bootstrap-fit", 0), ("bootstrap-fit", 1),
        ("risk-verify", 0), ("risk-verify", 1),
    ],
)
def test_benchmark_workload_runs(workload, trace):
    proc = subprocess.run(
        [sys.executable, "steinbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if (workload, trace) == ("risk-verify", 1):
        metrics = result["metrics"]
        assert metrics["risk.quadrature_calls"]["value"] == 0
        assert metrics["risk.moment_kernel_calls"]["value"] > 0
    if (workload, trace) == ("bootstrap-fit", 1):
        assert result["metrics"]["segmentation.ssr_table_ms"]["value"] > 0
