#!/usr/bin/env python3
"""Norm-decay scan of concatenated channel ensembles.

Sweeps the squared moment-operator norm over copy counts, concatenation
depths, system dimensions, and environment-dimension rules, and writes one
CSV per run.  The norm families decay monotonically from the unitary value
t! toward the depolarizing floor 1 as the environment grows or layers
accumulate; any violation shows up in the flags column.

    python scripts/run_hierarchy_scan.py --out hierarchy.csv
"""

import argparse
import sys

from channelmoments.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-list", default="2,3,4")
    parser.add_argument("--k-list", default="1,3")
    parser.add_argument("--d-list", default="2,3,4,5,6,7,8")
    parser.add_argument("--dE-rules", default="1,2,d,d2")
    parser.add_argument("--out", default="hierarchy.csv")
    args = parser.parse_args()
    return cli_main(
        [
            "--out", args.out,
            "hierarchy",
            "--t-list", args.t_list,
            "--k-list", args.k_list,
            "--d-list", args.d_list,
            "--dE-rules", args.dE_rules,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
