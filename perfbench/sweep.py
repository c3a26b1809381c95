"""One workload process: set up, run one sweep, print one JSON line.

Started by run.py in a fresh interpreter for every sweep, with gusim
importable from the checkout's ``src`` and BLAS/OpenMP pinned to one
thread. ``--t0`` is the launcher's CLOCK_MONOTONIC reading taken just
before the process was started, so the set-up time covers interpreter
start, the numpy and gusim imports and building and validating the config.
Times are also reported scaled to the reference host speed (HostProbe).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import signal
import sys
import time


def _layer_hooks(errors):
    """Counter callbacks for Tracer.install, keyed by span name."""

    def set_trial(t, scenario):
        t.set_trial(scenario.config.rng_seed)

    def columns(t, result):
        t.counts["gscm.channel_matrix.columns"] += result.entries.shape[1]

    def gwc_picks(t, result):
        t.counts["gwc_picks"] += len(result.selected)

    def zf_done(t, _):
        if t.under("scheduling.gwc_select"):
            t.counts["gwc_evaluations"] += 1

    def zf_failed(t, exc):
        zf_done(t, None)
        rx_failed(t, exc)

    def rx_failed(t, exc):
        if isinstance(exc, errors.RankDeficiencyError):
            t.counts["rx.rank_deficient"] += 1

    def v_rebuild(t, _):
        if t.under("localization.perturb_and_rebuild"):
            t.counts["localization.v_rebuilds"] += 1

    def perturbed(t, geometry):
        t.counts["fallbacks"] += geometry.fallback_count
        if geometry.perturbations.omega > 0:
            t.counts["clusters_perturbed"] += len(geometry.perturbations.delay)

    return {
        "gscm.generate_scenario": (set_trial, None),
        "gscm.channel_matrix": (columns, None),
        "scheduling.gwc_select": (gwc_picks, None),
        "scheduling.build_v_matrix": (v_rebuild, None),
        "localization.perturb_and_rebuild": (perturbed, None),
        "rx.zf_weights": (zf_done, zf_failed),
        "rx.sum_rate": (None, rx_failed),
        "rx.channel_covariance": (None, rx_failed),
        "rx.mmse_estimate": (None, rx_failed),
    }


# The probe's time on the reference host: an otherwise idle 2-core x86-64
# VM (Xeon, 2.0 GHz) with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31.
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.25


class HostProbe:
    """Samples the host's speed while a sweep runs.

    On a shared machine the host's speed drifts by up to 1.8x over minutes
    and the sweep time drifts with it. Every PROBE_EVERY_S of wall time a
    SIGALRM handler times a fixed kernel shaped like gusim's hot paths
    (small complex SVDs and a Python loop of scalar math); the ratio of
    the sweep time to the mean probe time tracks the program, not the
    host. The handler runs in the main thread between bytecodes, so the
    sweep is paused while it probes; ``probing_s`` is the time to subtract.
    """

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).standard_normal((64, 20)).view(complex)
        self.samples: list[float] = []
        self.probing_s = 0.0
        self._busy = False

    def probe(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += float(self.np.linalg.svd(self.a, full_matrices=False)[1][0])
            for k in range(10):
                acc += math.log2(1.0 + abs(complex(self.a[k, k])) ** 2)
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(self.probe())
        self.probing_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self.samples.append(self.probe())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self.probe())
        return False

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


SELF_TIMES = (
    "gscm.channel_matrix", "gscm.generate_scenario", "scheduling.gwc_select",
    "scheduling.gus_select", "scheduling.build_v_matrix",
    "localization.perturb_and_rebuild", "rx.zf_weights", "rx.sum_rate",
    "rx.channel_covariance", "rx.mmse_estimate", "harness.run_experiment",
)
CALLS = (
    "gscm.channel_matrix", "scheduling.gwc_select", "scheduling.gus_select",
    "scheduling.build_v_matrix", "localization.perturb_and_rebuild",
    "rx.zf_weights", "rx.sum_rate", "rx.mmse_estimate",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> tuple[dict, dict]:
    """(times, counts) of the per-layer metrics; counts repeat exactly for
    the same inputs, times do not."""
    times = {f"{n}.self_s": tracer.self_s.get(n, 0.0) for n in SELF_TIMES}
    times["harness.write_s"] = (tracer.self_s.get("harness.write_results_csv", 0.0)
                                + tracer.self_s.get("harness.write_manifest", 0.0))
    c = tracer.counts
    counts = {f"{n}.calls": tracer.calls.get(n, 0) for n in CALLS}
    counts["gscm.channel_matrix.columns"] = c["gscm.channel_matrix.columns"]
    counts["scheduling.gwc_select.useful_ratio"] = _ratio(
        c["gwc_picks"], c["gwc_evaluations"])
    counts["localization.v_rebuilds"] = c["localization.v_rebuilds"]
    counts["localization.fallback_ratio"] = _ratio(
        c["fallbacks"], c["clusters_perturbed"])
    counts["rx.rank_deficient"] = c["rx.rank_deficient"]
    return times, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True, help="CSV path of the sweep")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import gusim
    from gusim import errors
    import workloads

    config = workloads.build_config(args.workload, args.seed)
    config.validate()
    setup_wall_s = time.monotonic() - args.t0
    host = HostProbe(np)
    host.probe()   # the first call pays one-time start-up costs
    setup_probe_s = sum(host.probe() for _ in range(3)) / 3
    result = {"setup_s": setup_wall_s * PROBE_REF_S / setup_probe_s,
              "setup_wall_s": setup_wall_s, "gusim_file": gusim.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("gusim", hooks=_layer_hooks(errors))

    # Traced sweeps are not probed: a probe inside a span would count as
    # that layer's time.
    with host if tracer is None else contextlib.nullcontext():
        start = time.perf_counter()
        stats = workloads.run_sweep(args.workload, config, args.out)
        sweep_s = time.perf_counter() - start - host.probing_s

    result.update(
        sweep_s=sweep_s,
        probe_s=host.mean_s if host.samples else None,
        probes=len(host.samples),
        sweep_ref_s=sweep_s * PROBE_REF_S / host.mean_s if host.samples else None,
        trials=config.trials,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        summary=workloads.summarize(stats),
        env={"python": sys.version.split()[0], "numpy": np.__version__,
             "blas": _blas(np)},
    )
    if tracer is not None:
        tracer.uninstall()
        times, counts = layer_metrics(tracer)
        result.update(times=times, counts=counts, missing=tracer.missing)
        tracer.write_spans(args.out + ".spans.jsonl")
    print(json.dumps(result))
    return 0


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
