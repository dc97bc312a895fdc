"""Regenerate ``references.json`` from the package in ``src/``.

    python3 perfbench/make_references.py

Runs one unit for every menu entry of every workload, at both sizes, and
stores the digest the workload's checks compare against: SHA-256 of the
exact ``p/q`` matrices and exact norms and traces for the exact path, floats
(compared within 1e-9 relative) for the float and circuit paths.  Only
regenerate when a change to the package is meant to change these outputs.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from run import SINGLE_THREAD

os.environ.update(SINGLE_THREAD)  # before numpy is imported
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    (HERE / ".work").mkdir(exist_ok=True)
    ctx = SimpleNamespace(workdir=Path(tempfile.mkdtemp(dir=HERE / ".work")))
    try:
        for scale in ("full", "tiny"):
            refs[scale] = {}
            for name, wl in workloads.WORKLOADS.items():
                for inp in wl.menu(scale):
                    wl.setup(inp)
                    refs[scale].update(wl.digest(inp, wl.unit(inp, ctx)))
                print(f"{scale} {name}: done", file=sys.stderr)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
