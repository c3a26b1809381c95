"""Golden output hashes: the SHA-256 of each reference config's CSV, its
manifest and a canonical text form of its per-trial rows, at base seeds 1
and 7, stored with the environment that produced them.

Record the table (after a change that is meant to move an output):

    PYTHONPATH=src python tests/record_golden.py

It prints each environment key, entry and hash kind that moved against
the table it replaces, and each one added or removed.

``tests/test_golden.py`` reruns every entry and compares. The bytes depend
on Python, numpy, its BLAS and the CPU features numpy dispatches on, and
the test skips on any other environment. No hashed byte is PyYAML's output:
the CLI entry writes and reads its config file through it, but hashes only
the CSV and manifest of the run, so PyYAML is not an environment key.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gusim import cli, harness
from gusim.harness import ExperimentConfig

TABLE = Path(__file__).resolve().parent / "golden_hashes.json"
SEEDS = (1, 7)
TRIALS = 3

_ESTIMATED = dict(use_estimation=True, powers_dbm=(10.0, 30.0))

# name: (sweep, config); the sweep is a harness function or "cli" for the
# CLI's run subcommand on the config saved as YAML
CONFIGS = {
    "fig2": (harness.figure2_sweep, ExperimentConfig()),
    "fig3": (harness.figure3_load, ExperimentConfig()),
    "fig4_last": (harness.figure4_robustness, ExperimentConfig()),
    "fig4_set": (harness.figure4_robustness, ExperimentConfig(gus_variant="set")),
    "fig4_omegas_3051": (harness.figure4_robustness, ExperimentConfig(omegas=(3, 0, 5, 1))),
    "estimated_csi": (harness.run_sweep,
                      ExperimentConfig(algorithms=("GUS", "RANDOM"), **_ESTIMATED)),
    "estimated_csi_gwc": (harness.run_sweep, ExperimentConfig(**_ESTIMATED)),
    "paper_literal_estimated": (harness.run_sweep, ExperimentConfig(
        mode="paper-literal", algorithms=("GUS", "RANDOM"), **_ESTIMATED)),
    "cli_run": ("cli", ExperimentConfig(omegas=(0, 2), ks_values=(5,))),
}

ENTRIES = [(name, seed) for name in CONFIGS for seed in SEEDS]


def environment() -> dict:
    """What the output bytes depend on besides gusim."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(),
            "cpu_features": sorted(info["SIMD Extensions"]["found"])}


def rows_text(rows) -> str:
    """One line per trial row; floats by repr, which round-trips exactly."""
    return "".join(f"{r.trial},{r.algorithm},{r.ks},{r.p_dbm!r},{r.omega},{r.sum_rate!r},"
                   f"{r.load},{' '.join(map(str, r.selected))}\n" for r in rows)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry_hashes(name: str, seed: int) -> dict:
    """The hashes of config ``name`` at ``seed``; ``trial_rows`` is None for
    the outputs that have no trial rows (fig3 and the CLI)."""
    sweep, config = CONFIGS[name]
    config = replace(config, trials=TRIALS, base_seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        if sweep == "cli":
            harness.save_config(config, Path(tmp) / "config.yaml")
            cli.main(["run", "--config", str(Path(tmp) / "config.yaml"), "--out", str(out)])
            rows = None
        else:
            rows = getattr(sweep(config, out), "trial_rows", None)
        manifest = Path(f"{out}.manifest.txt")
        return {"csv": _sha256(out.read_bytes()), "manifest": _sha256(manifest.read_bytes()),
                "trial_rows": None if rows is None else _sha256(rows_text(rows).encode())}


def table_changes(old: dict, new: dict) -> list[str]:
    """One line per environment key whose value moved, was added or was
    removed, per entry added or removed and per (entry, hash kind) whose hash
    moved from table ``old`` to table ``new``: each group in ``new``'s order,
    what it removed last."""
    before, after, env = old.get("entries", {}), new["entries"], old.get("environment", {})
    now = new["environment"]
    lines = [f"environment {key}: {env.get(key)!r} -> {now.get(key)!r}"
             for key in {**now, **env} if env.get(key) != now.get(key)]
    for entry, hashes in after.items():
        if entry not in before:
            lines.append(f"added {entry}")
            continue
        lines += [f"changed {entry} {kind}" for kind in hashes
                  if hashes[kind] != before[entry].get(kind)]
    return lines + [f"removed {entry}" for entry in before if entry not in after]


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):   # the sweeps report their files
        table = {"environment": environment(), "entries": {
            f"{name}@{seed}": entry_hashes(name, seed) for name, seed in ENTRIES}}
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    for line in table_changes(old, table) or ["no hash changed"]:
        print(line)
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table['entries'])} entries to {TABLE}", file=sys.stderr)
