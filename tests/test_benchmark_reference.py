"""The benchmark's exact output check, run on the current code: a change
that moves a selection, or a fig2 or fig4 cell mean by more than
``EXACT_RTOL`` relative, fails here as well as in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", ["fig2", "fig4", "estimated_csi"])
def test_reference_seed_output_passes_the_benchmark_check(tmp_path, workload):
    seed = workloads.REFERENCE_SEED
    config = workloads.build_config(workload, seed)
    stats = workloads.run_sweep(workload, config, tmp_path / f"{workload}.csv")
    assert workloads.check_output(workload, seed, workloads.summarize(stats)) == []
