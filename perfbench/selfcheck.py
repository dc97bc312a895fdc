"""Self-check of the harness at tiny sizes (t = 3, n = 2, 1k MC samples).

    python3 perfbench/selfcheck.py

For every workload it shows that

1. an untraced and a traced run print every metric named in BENCHMARK.json,
   each with its unit, and pass their output checks;
2. two traced runs with the same seed give exactly the same counts;
3. a deliberately wrong reference makes ``failed`` (the error rate) > 0.

Exits 0 when all hold.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace, references=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if references:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(refs: dict) -> dict:
    """Flip the last character of every tiny reference string and nudge every float."""
    def bad(v):
        if isinstance(v, str):
            return v[:-1] + ("0" if v[-1] != "0" else "1")
        if isinstance(v, float):
            return v * (1 + 1e-6) + 1e-6
        if isinstance(v, list):
            return [bad(x) for x in v]
        if isinstance(v, dict):
            return {k: bad(x) for k, x in v.items()}
        return v
    return {"full": refs["full"], "tiny": bad(refs["tiny"])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    (HERE / ".work").mkdir(exist_ok=True)
    bad_refs = HERE / ".work" / "wrong-references.json"
    bad_refs.write_text(json.dumps(corrupt(refs)))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    try:
        for w in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                res = run(w, trace)
                for m in spec[key]:
                    got = res["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"] or not isinstance(
                            got["value"], (int, float)):
                        problems.append(f"{w} trace {trace}: {m['name']} missing or wrong unit")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{w} trace {trace}: output checks failed")
                if trace:
                    again = run(w, 1)
                    diff = [c for c in counts
                            if res["metrics"][c]["value"] != again["metrics"][c]["value"]]
                    if diff:
                        problems.append(f"{w}: counts differ between runs: {diff}")
            if w != "cli-session":  # the CLI checks compare with no stored reference
                res = run(w, 0, references=bad_refs)
                if res["failed"] == 0 or res["correct"]:
                    problems.append(f"{w}: a wrong reference went unnoticed")
            print(f"{w}: checked", flush=True)
    finally:
        bad_refs.unlink(missing_ok=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
