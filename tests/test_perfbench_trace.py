"""The benchmark's traced runs keep working against the library.

perfbench's hooks read ``channel_matrix(...).entries`` and
``scenario.config.rng_seed``, and its tracer wraps gusim functions by name.
A change in ``src/`` that breaks a hook crashes every traced run, and a
rename zeroes that function's metrics; either fails here first. Each
workload runs ``perfbench/sweep.py --trace`` once at seed 1 in a fresh
interpreter, with BLAS pinned to one thread, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# traced names that gusim no longer defines: their metrics read 0
STALE = ["localization.perturb_and_rebuild", "rx.channel_covariance", "rx.mmse_estimate",
         "scheduling.build_v_matrix", "scheduling.gwc_select"]


@pytest.mark.parametrize("workload", ["fig2", "fig4", "estimated_csi"])
def test_traced_sweep_reads_every_live_layer(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sweep.py"), "--workload", workload,
         "--seed", "1", "--t0", str(time.monotonic()), "--out", str(tmp_path / "sweep.csv"),
         "--trace"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    counts = result["counts"]
    for layer in ("gscm.channel_matrix", "scheduling.gus_select", "rx.zf_weights",
                  "rx.sum_rate"):
        assert counts[f"{layer}.calls"] > 0, layer
    assert counts["gscm.channel_matrix.columns"] > 0
    assert result["times"]["gscm.generate_scenario.self_s"] > 0
    assert sorted(result["missing"]) == STALE
