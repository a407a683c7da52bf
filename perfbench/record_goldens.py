"""Record the closed_form goldens: exit status and SHA-256 of every CSV that
`analyze --p P` and `tradeoff --p P` write, for each P on the workload grid.

Goldens pin the CSV bytes of the commit they were taken at, so that a later
refactor can be checked byte for byte. Re-record them only for a change that
means to alter those bytes, and say so where the change is described.

Usage, from the repository root:  python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from workloads import GOLDEN_PATH, P_GRID, call_cli

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kellybench.cli import main as cli_main

    out = Path(__file__).resolve().parent / ".runs" / "goldens"
    golden = {}
    for p in P_GRID:
        golden[p] = {}
        for cmd in ("analyze", "tradeoff"):
            shutil.rmtree(out, ignore_errors=True)
            status = call_cli(cli_main, [cmd, "--p", p, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            golden[p][cmd] = {
                "status": status,
                "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
            }
    shutil.rmtree(out, ignore_errors=True)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    failing = sum(g[c]["status"] != 0 for g in golden.values() for c in g)
    print(f"{len(P_GRID)} values of p, {failing} of {2 * len(P_GRID)} commands fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
