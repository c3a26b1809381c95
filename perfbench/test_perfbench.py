"""Tests of the benchmark's own machinery: the span recorder and the output
check. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import math
import sys
import types

import pytest

import sweep
import workloads
from tracer import Tracer


class FakeClock:
    """Advances by one second per reading, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fakepkg():
    """A package ``fakepkg`` whose ``layer.outer`` calls ``layer.inner``
    twice, and whose ``user`` module binds ``inner`` by name."""
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")
    mods = {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}
    sys.modules.update(mods)
    pkg.layer, pkg.user = layer, user
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(inner(x))\n"
         "def idle():\n    return None\n", layer.__dict__)
    exec("from fakepkg.layer import inner\n"
         "def call_inner(x):\n    return inner(x)\n", user.__dict__)
    yield pkg
    for name in mods:
        sys.modules.pop(name, None)


def test_self_time_of_nested_calls(fakepkg):
    tracer = Tracer(clock=FakeClock())
    tracer.install("fakepkg", traced=(("layer", "outer"), ("layer", "inner")))
    tracer.set_trial(7)
    assert fakepkg.layer.outer(1) == 3
    tracer.uninstall()

    # outer opens at t=1 and closes at t=6; the two inner spans are 2-3, 4-5
    assert tracer.calls == {"layer.outer": 1, "layer.inner": 2}
    assert tracer.self_s["layer.inner"] == 2.0
    assert tracer.self_s["layer.outer"] == 5.0 - 2.0
    outer = next(s for s in tracer.spans if s.name == "layer.outer")
    inners = [s for s in tracer.spans if s.name == "layer.inner"]
    assert outer.parent is None
    assert all(s.parent == outer.id for s in inners)
    assert all(s.trial == 7 for s in tracer.spans)


def test_wrapper_installed_where_the_name_is_bound(fakepkg):
    tracer = Tracer(clock=FakeClock())
    tracer.install("fakepkg", traced=(("layer", "inner"),))
    assert fakepkg.user.call_inner(1) == 2
    assert tracer.calls["layer.inner"] == 1
    tracer.uninstall()
    assert fakepkg.user.call_inner(1) == 2
    assert tracer.calls["layer.inner"] == 1
    assert not hasattr(fakepkg.user.inner, "__wrapped__")


def test_missing_and_uncalled_functions_report_zero(fakepkg, tmp_path):
    tracer = Tracer(clock=FakeClock())
    tracer.install("fakepkg", traced=(("layer", "gone"), ("layer", "idle"),
                                      ("nomodule", "f"), ("layer", "inner")))
    assert tracer.missing == ["layer.gone", "nomodule.f"]
    fakepkg.layer.inner(0)
    tracer.uninstall()
    times, counts = sweep.layer_metrics(tracer)
    assert counts["rx.sum_rate.calls"] == 0
    assert counts["scheduling.gwc_select.useful_ratio"] == 0.0
    assert times["rx.channel_covariance.self_s"] == 0.0
    assert tracer.calls["layer.idle"] == 0
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    assert path.read_text().count("\n") == 1


def test_host_probe_samples_during_the_block_and_restores_sigalrm():
    import signal
    import time

    import numpy as np

    host = sweep.HostProbe(np)
    with host:
        deadline = time.perf_counter() + 3 * sweep.PROBE_EVERY_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    # one probe before, one after, and at least one from the timer
    assert len(host.samples) >= 3
    assert 0.0 < host.probing_s < 3 * sweep.PROBE_EVERY_S
    assert host.mean_s > 0.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _estimated_summary():
    """A consistent estimated_csi summary: 2 cells x 2 trials."""
    rows, cells = [], []
    for alg, rates in (("GUS", (3.0, 5.0)), ("RANDOM", (1.0, 2.0))):
        for trial, rate in enumerate(rates):
            rows.append([trial, alg, 10, 30.0, 0, list(range(trial, trial + 10)), rate])
        mean = sum(rates) / 2
        se = abs(rates[0] - rates[1]) / 2
        cells.append([alg, 10, 30.0, 0, mean, se, 2, 0])
    return {"cells": cells, "rows": rows}


def _as_reference(summary):
    return {"cells": summary["cells"], "rows": [r[:6] for r in summary["rows"]]}


def test_output_check_accepts_a_matching_result():
    summary = _estimated_summary()
    ref = _as_reference(summary)
    assert workloads.check_invariants("estimated_csi", summary) == []
    assert workloads.check_output("estimated_csi", workloads.REFERENCE_SEED,
                                  summary, ref) == []


@pytest.mark.parametrize("workload", ["fig2", "fig4"])
def test_output_check_rejects_perturbed_exact_results(workload):
    ref = workloads.load_reference(workload)
    summary = {"cells": copy.deepcopy(ref["cells"]),
               "rows": [r + [None] for r in ref["rows"]]}
    assert workloads.check_reference(workload, summary, ref) == []

    bumped = copy.deepcopy(summary)
    bumped["cells"][3][4] *= 1.0 + 1e-7
    assert workloads.check_reference(workload, bumped, ref)

    swapped = copy.deepcopy(summary)
    sel = next(r for r in swapped["rows"] if r[5])
    sel[5] = sel[5][::-1]
    assert workloads.check_reference(workload, swapped, ref)

    recount = copy.deepcopy(summary)
    recount["cells"][0][7] += 1
    assert workloads.check_reference(workload, recount, ref)


def test_estimated_check_tolerance_follows_std_err():
    summary = _estimated_summary()
    ref = _as_reference(summary)
    tol = workloads.ESTIMATED_Z * math.hypot(1.0, 1.0)   # GUS std_err is 1
    near, far = copy.deepcopy(summary), copy.deepcopy(summary)
    near["cells"][0][4] += 0.5 * tol
    far["cells"][0][4] += 1.5 * tol
    assert workloads.check_reference("estimated_csi", near, ref) == []
    assert workloads.check_reference("estimated_csi", far, ref)


def test_invariants_reject_broken_rows_and_cells():
    bad_sel = _estimated_summary()
    bad_sel["rows"][0][5] = [0] * 10
    assert workloads.check_invariants("estimated_csi", bad_sel)

    bad_mean = _estimated_summary()
    bad_mean["cells"][1][4] = math.nan
    assert workloads.check_invariants("estimated_csi", bad_mean)

    lost_cell = _estimated_summary()
    lost_cell["cells"].pop()
    assert workloads.check_invariants("estimated_csi", lost_cell)

    # away from the reference seed the invariants still catch a mean that
    # disagrees with its rows
    wrong_mean = _estimated_summary()
    wrong_mean["cells"][0][4] += 100.0
    assert workloads.check_output("estimated_csi", 2, wrong_mean, {}) != []
