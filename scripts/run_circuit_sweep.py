#!/usr/bin/env python3
"""Purity-vs-depth sweep for noisy layered circuits.

Runs both ansatz families against the four single-qubit noise channels over
a noise-strength grid and writes the pooled trajectory CSV, including the
reference-ensemble rows (L_index = -1).  A gamma of 0 is the noiseless
circuit, which runs once per ansatz.  The defaults (3 qubits, 50 layers)
take a few seconds; --n 7 --layers 10, the paper's register size and the
default qubit cap, takes about 75 s and under 0.5 GB, most of it in the
matchgate amplitude-damping runs.  Progress is logged to stderr with -v.

    python scripts/run_circuit_sweep.py --n 3 --out purity_n3.csv
"""

import argparse
import logging
import sys
import time

from channelmoments import channels as ch
from channelmoments import twirlsim as tw
from channelmoments.cli import _emit
from channelmoments.specs import CircuitSpec

log = logging.getLogger("run_circuit_sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--layers", type=int, default=50)
    parser.add_argument("--ansatz", default="hea,mat")
    parser.add_argument("--noise", default=",".join(ch.NOISE_KINDS))
    parser.add_argument("--gamma", default="0.0,0.1,0.2,0.3")
    parser.add_argument("--max-qubits", type=int, default=tw.DEFAULT_QUBIT_CAP)
    parser.add_argument("--out", default="purity.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")

    gammas = [float(g) for g in args.gamma.split(",")]
    # (noise label, gamma) per trajectory: the noiseless one once, not once per noise kind.
    runs = [("none", 0.0)] if 0.0 in gammas else []
    runs += [(noise, g) for noise in args.noise.split(",") for g in gammas if g > 0]
    rows = []
    refs = tw.reference_purities(args.n, dE=4**args.n)
    t0 = time.time()
    for ansatz in args.ansatz.split(","):
        for name, value in refs.items():
            rows.append([ansatz, f"ref_{name}", 0.0, args.n, -1, value])
        for noise, gamma in runs:
            spec = CircuitSpec(
                n=args.n,
                ansatz=ansatz,
                layers=args.layers,
                noise=None if noise == "none" else noise,
                gamma=gamma,
            )
            traj = tw.evolve(spec, max_qubits=args.max_qubits)
            for li, val in enumerate(traj, start=1):
                rows.append([ansatz, noise, gamma, args.n, li, val])
            log.info("%s %s gamma=%s: final purity %.6f (%.1f s elapsed)",
                     ansatz, noise, gamma, traj[-1], time.time() - t0)
    config = {
        "command": "run_circuit_sweep",
        "n": args.n,
        "layers": args.layers,
        "ansatz": args.ansatz,
        "noise": args.noise,
        "gamma": gammas,
    }
    _emit(args, config, ["ansatz", "noise", "gamma", "n", "L_index", "purity"], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
