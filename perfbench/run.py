"""gusim benchmark: Monte-Carlo sweeps timed end to end and per layer.

Run from the root of a gusim checkout:

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced sweeps;
``--trace 1`` reports the per-layer metrics of traced sweeps and the
tracing overhead. ``--workload all`` runs every workload in turn. The load
is a closed loop: one sweep at a time, each in a fresh interpreter with
BLAS/OpenMP pinned to one thread, until ``--seconds`` have been measured.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

WORKLOADS = ("fig2", "fig4", "estimated_csi")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
MIN_SWEEPS = 1        # per run; a traced run also needs two traced sweeps
MIN_SETUPS = 7        # setup_s is the median of at least this many starts
RUN_LIMIT_S = 170.0   # hard cap on one workload's run, below the 180 s limit

END_TO_END_UNITS = {"trials_per_ref_s": "1/s", "sweep_ref_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_frac": "frac"}


class SweepFailed(RuntimeError):
    pass


def launch(root: Path, workload: str, seed: int, out_csv: Path,
           trace: bool = False, setup_only: bool = False,
           timeout: float = RUN_LIMIT_S) -> dict:
    """Run perfbench/sweep.py in a fresh interpreter and return its JSON."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_csv), "--t0", repr(t0)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SweepFailed(f"sweep timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise SweepFailed(f"sweep exited with {proc.returncode}:\n{tail}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise SweepFailed(f"sweep printed no result: {proc.stdout[-500:]!r}") from exc
    expected = root / "src" / "gusim"
    if Path(result["gusim_file"]).resolve().parent != expected.resolve():
        raise SweepFailed(f"gusim imported from {result['gusim_file']}, not {expected}")
    return result


def environment(root: Path) -> dict:
    """Versions, core count, thread pinning and git commit of this run."""
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": dict(PINNED),
        "git_commit": commit,
        "machine": platform.machine(),
    }


def _median(xs):
    return statistics.median(xs) if xs else None


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, out_dir: Path) -> dict:
    """Measure one workload for ``seconds`` and return its result record."""
    evals = workloads.evaluations(workload)
    start = time.monotonic()
    sweeps, problems, setups = [], [], []
    attempted = failed = 0

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    def one(i, base_seed, traced):
        nonlocal attempted, failed
        attempted += evals
        out_csv = out_dir / f"{workload}_{seed}_{i}.csv"
        launched = time.monotonic()
        try:
            r = launch(root, workload, base_seed, out_csv, trace=traced,
                       timeout=remaining())
        except SweepFailed as exc:
            failed += evals
            problems.append(f"sweep {i}: {exc}")
            return None
        setups.append(r["setup_s"])
        bad = workloads.check_output(workload, base_seed, r["summary"])
        same = [s for s in sweeps if s["base_seed"] == base_seed]
        if same and r["summary"] != same[0]["summary"]:
            bad.append(f"output differs from sweep {same[0]['index']} "
                       f"of the same seed")
        failed += evals if bad else sum(row[6] is None for row in r["summary"]["rows"])
        problems.extend(f"sweep {i} (base_seed {base_seed}): {p}" for p in bad)
        r.update(index=i, base_seed=base_seed, traced=traced,
                 process_s=time.monotonic() - launched)
        sweeps.append(r)
        ref = "" if traced else (f" = {r['sweep_ref_s']:.3f} ref s (probe "
                                 f"{1e3 * r['probe_s']:.2f} ms x {r['probes']})")
        print(f"  sweep {i:2d} base_seed={base_seed:<6d} traced={int(traced)} "
              f"setup {r['setup_wall_s']:.3f} s = {r['setup_s']:.3f} ref s  "
              f"sweep {r['sweep_s']:.3f} s{ref}  rss {r['peak_rss_mb']:.1f} MB  "
              f"{'FAIL' if bad else 'ok'}", flush=True)
        return r

    # Untraced runs vary the scenarios from sweep to sweep, so one run
    # averages many drops; traced runs repeat one seed so that their
    # counts can be compared exactly.
    i = 0
    while True:
        traced = trace and i % 2 == 0
        base_seed = seed if trace else seed + i * workloads.SWEEP_STRIDE
        r = one(i, base_seed, traced)
        i += 1
        if r is None:
            break
        elapsed = time.monotonic() - start
        n_traced = sum(s["traced"] for s in sweeps)
        enough = i >= MIN_SWEEPS and (not trace or n_traced >= 2)
        if enough and elapsed + r["process_s"] > seconds:
            break
        if remaining() < 2 * r["process_s"]:
            if not enough:
                problems.append("run limit reached before the minimum sweeps")
            break
    while not trace and sweeps and len(setups) < MIN_SETUPS and remaining() > 5:
        try:
            setups.append(launch(root, workload, seed, out_dir / "setup.csv",
                                 setup_only=True, timeout=remaining())["setup_s"])
        except SweepFailed as exc:
            problems.append(f"setup-only start: {exc}")
            break

    plain = [s for s in sweeps if not s["traced"]]
    traced = [s for s in sweeps if s["traced"]]
    if trace:
        metrics, units = _layer_metrics(traced, plain, problems)
    else:
        sweep_ref_s = _median([s["sweep_ref_s"] for s in plain])
        metrics = {
            "trials_per_ref_s": plain[0]["trials"] / sweep_ref_s if plain else None,
            "sweep_ref_s": sweep_ref_s,
            "setup_s": _median(setups),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
            "success_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "env": dict(sweeps[0]["env"]) if sweeps else {},
        "missing_functions": traced[0]["missing"] if traced else [],
        "sweeps": [{k: s[k] for k in ("index", "base_seed", "traced", "setup_s",
                                      "setup_wall_s", "sweep_s", "probe_s",
                                      "probes", "sweep_ref_s",
                                      "peak_rss_mb")} for s in sweeps],
        "layer_share": _layer_share(traced),
    }


def _layer_metrics(traced: list, plain: list, problems: list) -> tuple[dict, dict]:
    """Per-layer metrics: median self times over the traced sweeps, counts
    that must repeat exactly across them, and the tracing overhead."""
    metrics, units = {}, {}
    if not traced:
        return metrics, units
    for name in traced[0]["times"]:
        metrics[name] = _median([s["times"][name] for s in traced])
        units[name] = "s"
    counts = traced[0]["counts"]
    for s in traced[1:]:
        if s["counts"] != counts:
            diff = sorted(k for k in counts if s["counts"].get(k) != counts[k])
            problems.append(f"per-layer counts differ between traced sweeps "
                            f"of one seed: {diff}")
    for name, value in counts.items():
        metrics[name] = value
        units[name] = "ratio" if name.endswith("_ratio") else "count"
    if plain:
        metrics["trace_overhead_frac"] = (
            _median([s["sweep_s"] for s in traced])
            / _median([s["sweep_s"] for s in plain]) - 1.0)
        units["trace_overhead_frac"] = "frac"
    return metrics, units


def _layer_share(traced: list) -> dict:
    """Median self time of each layer as a share of the traced sweep time."""
    if not traced:
        return {}
    sweep = _median([s["sweep_s"] for s in traced])
    return {k: _median([s["times"][k] for s in traced]) / sweep
            for k in traced[0]["times"]}


def print_report(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"correct={rec['correct']} attempted={rec['attempted']} "
          f"failed={rec['failed']}")
    for p in rec["problems"]:
        print(f"  PROBLEM {p}")
    plain = [s for s in rec["sweeps"] if not s["traced"]]
    for key in ("setup_wall_s", "sweep_s", "probe_s"):
        xs = sorted(s[key] for s in plain)
        if xs:
            print(f"  untraced wall {key} over {len(xs)} sweeps: min {xs[0]:.4g}"
                  f"  median {_median(xs):.4g}  max {xs[-1]:.4g}")
    if rec["missing_functions"]:
        print(f"  not in gusim, reported with 0 calls: {rec['missing_functions']}")
    times = {k: v for k, v in rec["metrics"].items() if v["unit"] in ("s", "1/s")}
    others = {k: v for k, v in rec["metrics"].items() if k not in times}
    for title, group in (("times", times), ("other metrics", others)):
        if group:
            print(f"  {title}:")
            for name, m in group.items():
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"    {name:42s} {value:>14s} {m['unit']}")
    if rec["layer_share"]:
        print("  self-time share of the traced sweep:")
        for name, share in sorted(rec["layer_share"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:42s} {100 * share:6.1f} %")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gusim" / "__init__.py").is_file():
        print(f"error: {root} is not a gusim checkout (no src/gusim); run the "
              "benchmark from the repository root", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                           out_dir)
        rec["env"].update(env)
        records.append(rec)
        print_report(rec)
        with open(out_dir / f"result_{name}_{args.seed}_trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
    print("environment: " + json.dumps(records[0]["env"], sort_keys=True))

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
