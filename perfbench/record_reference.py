"""Record the output references the benchmark checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs one sweep of each workload at REFERENCE_SEED from the checkout in the
current directory and writes perfbench/reference/<workload>.json with the
cells and the selected users of every trial. Re-record only on a commit
whose outputs are known to be right, and say why in the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, WORKLOADS, launch
from workloads import REFERENCE_DIR, REFERENCE_SEED


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or WORKLOADS
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        r = launch(Path.cwd(), name, REFERENCE_SEED, out_dir / f"reference_{name}.csv")
        ref = {
            "workload": name,
            "seed": REFERENCE_SEED,
            "trials": r["trials"],
            "cells": r["summary"]["cells"],
            "rows": [row[:6] for row in r["summary"]["rows"]],
        }
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path} ({len(ref['cells'])} cells, {len(ref['rows'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
