#!/usr/bin/env python3
"""Plot trajectory CSVs written by `channel-moments simulate` (matplotlib required).

One panel per (ansatz, noise) pair; solid lines are trajectories by noise
strength, dashed horizontals the reference-ensemble values.

    python scripts/plot_purity.py purity_n3.csv --out purity_n3.png
"""

import argparse
import csv
import sys
from collections import defaultdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_path")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; plotting unavailable", file=sys.stderr)
        return 1

    refs = {}
    panels = defaultdict(lambda: defaultdict(list))
    with open(args.csv_path) as fh:
        reader = csv.reader(l for l in fh if not l.startswith("#"))
        header = next(reader)
        for ansatz, noise, gamma, n, li, purity in reader:
            if int(li) < 0:
                refs[noise.removeprefix("ref_")] = float(purity)
                continue
            panels[(ansatz, noise)][float(gamma)].append((int(li), float(purity)))

    keys = sorted(panels)
    fig, axes = plt.subplots(1, max(len(keys), 1), figsize=(4 * len(keys), 3.2), squeeze=False)
    for ax, key in zip(axes[0], keys):
        for gamma, pts in sorted(panels[key].items()):
            pts.sort()
            ax.semilogy([p[0] for p in pts], [p[1] for p in pts], label=f"g={gamma}")
        for name, val in refs.items():
            ax.axhline(val, ls="--", lw=0.8, color="gray")
            ax.annotate(name, (1, val), fontsize=7, color="gray")
        ax.set_title("/".join(key), fontsize=9)
        ax.set_xlabel("layer")
        ax.set_ylabel("purity")
        ax.legend(fontsize=7)
    fig.tight_layout()
    if args.out:
        fig.savefig(args.out, dpi=160)
        print(f"wrote {args.out}")
    else:
        plt.show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
