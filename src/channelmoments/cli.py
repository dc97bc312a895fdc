"""Command-line surface: transfer dumps, scans, spectra, simulations, checks.

Every output embeds the resolved configuration and package version as
comment-prefixed header lines (CSV) or top-level fields (JSON), so a run is
reproducible from its own output.  The configuration carries the run's
provenance: Python and numpy versions, and the git commit when the package
runs from a checkout.  Exact rationals serialize as "p/q".
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from . import channels as ch
from . import localized as loc
from . import moments as mo
from . import symmgroup as sg
from . import twirlsim as tw
from . import weingarten as wg
from .specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    LOCALIZED,
    PERMUTATION,
    CircuitSpec,
    EnsembleSpec,
)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def git_sha(git_dir: Path):
    """Commit of ``HEAD`` in ``git_dir`` (loose or packed ref, or detached),
    read from the files without running git; None when there is none."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@lru_cache(maxsize=None)
def provenance() -> dict:
    """Python and numpy versions, and the git commit of the checkout the
    package runs from, if any; read once per process."""
    out = {"python": platform.python_version(), "numpy": np.__version__}
    sha = git_sha(Path(__file__).resolve().parents[2] / ".git")
    if sha:
        out["git_sha"] = sha
    return out


def _json_text(fields: dict, rows):
    """The text of ``json.dumps({**fields, "rows": rows}, sort_keys=True,
    indent=1)`` and a newline, with each row (a non-empty list of scalars)
    formatted on its own."""
    head, tail = json.dumps({**fields, "rows": []}, sort_keys=True, indent=1).split(
        '\n "rows": []', 1)
    yield head + '\n "rows": ['
    sep = "\n"
    for row in rows:
        yield sep + "  [\n   " + ",\n   ".join(map(json.dumps, row)) + "\n  ]"
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n ]") + tail + "\n"


def _emit(args, config: dict, columns: list, rows):
    """Write the output to ``--out`` or stdout.  Each row is written as it
    is formatted, so no command holds its output as text."""
    config = {**config, "provenance": provenance()}
    if args.format == "json":
        fields = {"version": __version__, "config": config, "columns": columns}
        text = _json_text(fields, ([_fmt(v) for v in row] for row in rows))
    else:
        header = [
            f"# channelmoments {__version__}",
            "# config " + json.dumps(config, sort_keys=True),
            ",".join(columns),
        ]
        lines = chain(header, (",".join(_fmt(v) for v in row) for row in rows))
        text = (line + "\n" for line in lines)
    if not args.out:
        sys.stdout.writelines(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _matrix_rows(matrix: np.ndarray, t: int):
    labels = [p.cycle_label() for p in sg.symmetric_group(t)]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            yield [i, j, labels[i], labels[j], matrix[i, j]]


def cmd_weingarten(args) -> int:
    config = {"command": "weingarten", "t": args.t, "d": args.d, "exact": args.exact}
    g = wg.gram_matrix(args.t, args.d, exact=args.exact)
    w = wg.weingarten_matrix(args.t, args.d, exact=args.exact)
    rows = chain(
        (["gram"] + r for r in _matrix_rows(g, args.t)),
        (["weingarten"] + r for r in _matrix_rows(w, args.t)),
    )
    _emit(args, config, ["matrix", "row", "col", "row_perm", "col_perm", "value"], rows)
    return 0


def _spec_and_config(args, **extra) -> tuple:
    """The ensemble of a transfer, spectrum or mc command and its output
    config, which records the environment dimension used, then ``extra``."""
    spec = EnsembleSpec(args.ensemble, d=args.d, t=args.t, dE=args.dE, k=args.k)
    config = {
        "command": args.command,
        "ensemble": spec.kind,
        "t": spec.t,
        "d": spec.d,
        "dE": spec.environment_dim,
        **extra,
    }
    return spec, config


def cmd_transfer(args) -> int:
    spec, config = _spec_and_config(args, k=args.k, basis=args.basis, exact=args.exact)
    tm = mo.transfer(spec, basis=args.basis, exact=args.exact)
    _emit(
        args,
        config,
        ["row", "col", "row_perm", "col_perm", "value"],
        _matrix_rows(tm.matrix, spec.t),
    )
    return 0


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"invalid grid: {flag} {text!r} is not a list of integers") from None


def cmd_hierarchy(args) -> int:
    # hierarchy_scan checks the values of the whole grid before any work.
    t_list = _int_list(args.t_list, "--t-list")
    k_list = _int_list(args.k_list, "--k-list")
    d_list = _int_list(args.d_list, "--d-list")
    de_rules = args.dE_rules.split(",")
    config = {
        "command": "hierarchy",
        "t_list": t_list,
        "k_list": k_list,
        "d_list": d_list,
        "dE_rules": de_rules,
        "exact": args.exact,
    }
    result = mo.hierarchy_scan(t_list, k_list, d_list, de_rules, exact=args.exact)
    rows = [
        [r.t, r.k, r.d, r.dE, r.norm2, r.trace, r.eps_dep, ";".join(r.flags)]
        for r in result.rows
    ]
    _emit(args, config, ["t", "k", "d", "dE", "norm2", "trace", "eps_dep", "flags"], rows)
    return 0


def cmd_spectrum(args) -> int:
    spec, config = _spec_and_config(args, k=args.k)
    report = mo.spectrum(spec)
    rows = [
        ["eigenvalue", i, ev.real, ev.imag, abs(ev)]
        for i, ev in enumerate(report.eigenvalues)
    ]
    for key, val in sorted(report.residuals.items()):
        rows.append(["residual", key, val, 0.0, val])
    _emit(args, config, ["kind", "index", "re", "im", "abs"], rows)
    return 0


def cmd_simulate(args) -> int:
    import logging

    ansatze = args.ansatz.split(",")
    noises = args.noise.split(",") if args.noise else []
    gammas = [float(g) for g in args.gamma.split(",")]
    if not all(0.0 <= g <= 1.0 for g in gammas):
        raise ValueError(f"gamma must lie in [0, 1], got {args.gamma}")
    for name, grid in (("ansatz", ansatze), ("noise", noises), ("gamma", gammas)):
        for i, v in enumerate(grid):
            if v in grid[:i]:
                raise ValueError(f"invalid grid: duplicate {name} = {v}")
    # Each noise name, also one that no gamma > 0 puts in a trajectory.
    for noise in noises:
        CircuitSpec(n=args.n, noise=noise)
    # The noiseless trajectory once per ansatz (every noise is the identity
    # at gamma 0), then each noise kind at its nonzero strengths.
    runs = [(None, 0.0)] if not noises or 0.0 in gammas else []
    runs += [(noise, g) for noise in noises for g in gammas if g > 0]
    # Every spec before the first trajectory, so that bad input costs no work.
    specs = {
        ansatz: [
            CircuitSpec(n=args.n, ansatz=ansatz, layers=args.layers, noise=noise, gamma=g)
            for noise, g in runs
        ]
        for ansatz in ansatze
    }
    config = {
        "command": "simulate",
        "ansatz": ansatze,
        "noise": noises,
        "gamma": gammas,
        "n": args.n,
        "layers": args.layers,
        "max_qubits": args.max_qubits,
    }
    log = logging.getLogger(__name__)
    rows = []
    refs = tw.reference_purities(args.n, dE=4**args.n)
    traces, purities = [], []
    start = time.perf_counter()
    for ansatz in ansatze:
        for name, value in refs.items():
            rows.append([ansatz, f"ref_{name}", 0.0, args.n, -1, value])
        for spec in specs[ansatz]:
            traj = tw.evolve(spec, max_qubits=args.max_qubits, traces=traces)
            purities += traj
            noise = spec.noise or "none"
            for li, val in enumerate(traj, start=1):
                rows.append([ansatz, noise, spec.gamma, args.n, li, val])
            log.info("%s %s gamma=%s done (%.1f s elapsed)",
                     ansatz, noise, spec.gamma, time.perf_counter() - start)
    # The worst residuals over every trajectory and layer (null without layers)
    # of 4^n c[I, I] = 1 and of 1/d^2 <= purity <= 1 (negative when a bound fails).
    config["max_trace_residual"] = max((abs(x - 1) for x in traces), default=None)
    config["min_purity_slack"] = min(
        (min(p - 1 / 4**args.n, 1 - p) for p in purities), default=None
    )
    _emit(args, config, ["ansatz", "noise", "gamma", "n", "L_index", "purity"], rows)
    return 0


def cmd_mc(args) -> int:
    spec, config = _spec_and_config(args, samples=args.samples, seed=args.seed)
    # The exact value first: it rejects d < t before any sampling.  The
    # sampler draws single channels, so only the k = 1 norm is taken.
    norm2 = float(mo._reference_values(spec, (1,), exact=False)[1][0])
    est = mo.frame_potential_mc(spec, args.samples, seed=args.seed)
    rows = [
        ["frame_potential", est.value, est.stderr, est.samples, args.seed],
        ["exact_norm2", norm2, 0.0, 0, args.seed],
    ]
    _emit(args, config, ["quantity", "value", "stderr", "samples", "seed"], rows)
    return 0


# -- verify suites ------------------------------------------------------------


def _suite_mobius(seed: int, samples: int) -> list:
    checks = []
    for t in range(1, 6):
        ok = True
        for sigma in sg.symmetric_group(t):
            subs = sg.enumerate_subpermutations(sigma)
            if len(subs) != sg.subpermutation_count(sigma):
                ok = False
            total = sum(sg.mobius(sg.compose(sg.inverse(pi), sigma)) for pi in subs)
            if total != (1 if sigma.size == 0 else 0):
                ok = False
        checks.append((f"mobius_lattice_t{t}", ok, ""))
    return checks


def _suite_weingarten(seed: int, samples: int) -> list:
    checks = []
    from .exactalg import product_is_identity

    for t in range(1, 5):
        for d in (t, t + 1, 8):
            g = wg.gram_matrix(t, d)
            w = wg.weingarten_matrix(t, d)
            checks.append((f"gram_inverse_t{t}_d{d}", product_is_identity(g, w), ""))
    for t in range(1, 6):
        for d in (2, 3, 16):
            ok = wg.jucys_murphy_sum(t, d) == wg.character_sum(t, d)
            checks.append((f"character_sum_t{t}_d{d}", ok, ""))
    return checks


def _suite_localized(seed: int, samples: int) -> list:
    from .exactalg import product_is_identity

    checks = []
    for t in range(1, 6):
        ok = product_is_identity(loc.phi_matrix(t), loc.phi_inverse(t))
        checks.append((f"phi_inverse_t{t}", ok, ""))
    for t in range(2, 5):
        same, contains = loc.support_pattern(t)
        tm = mo.transfer(EnsembleSpec(HAAR, d=t, t=t), basis=LOCALIZED)
        zero_ok = bool((tm.matrix[~same] == 0).all())
        checks.append((f"haar_block_diagonal_t{t}", zero_ok, ""))
    return checks


def _suite_spectrum(seed: int, samples: int) -> list:
    checks = []
    for t in (2, 3):
        for d, dE in ((2, 2), (3, 4)):
            rep = mo.spectrum(EnsembleSpec(CHAAR, d=d, t=t, dE=dE))
            res = rep.residuals
            ok = (res["leading_right"] < 1e-10 and res["leading_left"] < 1e-10
                  and res["eigenpairs"] < 1e-8)
            checks.append((f"chaar_leading_pair_t{t}_d{d}_dE{dE}", ok, ""))
    return checks


def _suite_invariance(seed: int, samples: int) -> list:
    checks = []
    for t in (2, 3):
        d = max(2, t)
        results = mo.invariance_checks(
            EnsembleSpec(HAAR, d=d, t=t), EnsembleSpec(CHAAR, d=d, t=t, dE=2)
        )
        for res in results:
            checks.append((f"t{t}_{res.name}", res.passed, res.detail))
    return checks


def _suite_oracle(seed: int, samples: int) -> list:
    from .exactalg import mat_eq

    checks = []
    for d, dE in ((2, 2), (3, 4)):
        x = mo.gram(2, d, basis=LOCALIZED)
        base = mo.transfer(EnsembleSpec(CHAAR, d=d, t=2, dE=dE), basis=LOCALIZED)
        for k in (1, 2, 4):
            got = mo.concatenate(base, x, k)
            ref = mo.exact_t2_chaar(k, d, dE)
            checks.append(
                (f"t2_concatenation_k{k}_d{d}_dE{dE}", mat_eq(got.matrix, ref.matrix), "")
            )
    return checks


def _suite_mc(seed: int, samples: int) -> list:
    checks = []
    est = mo.frame_potential_mc(EnsembleSpec(HAAR, d=2, t=2), samples, seed=seed)
    ok = abs(est.value - 2.0) <= 3 * est.stderr
    checks.append(("haar_frame_potential", ok, f"{est.value:.4f} +- {est.stderr:.4f}"))
    spec = EnsembleSpec(CHAAR, d=2, t=2, dE=2)
    exact = float(mo._reference_values(spec, (1,), exact=True)[1][0])
    est = mo.frame_potential_mc(spec, samples, seed=seed + 1)
    ok = abs(est.value - exact) <= 3 * est.stderr
    checks.append(("chaar_frame_potential", ok, f"{est.value:.4f} vs {exact:.4f}"))
    return checks


SUITES = {
    "mobius": _suite_mobius,
    "weingarten": _suite_weingarten,
    "localized": _suite_localized,
    "spectrum": _suite_spectrum,
    "invariance": _suite_invariance,
    "oracle": _suite_oracle,
    "mc": _suite_mc,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    config = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "samples": args.samples,
    }
    rows = []
    failed = 0
    seconds = config["suite_seconds"] = {}
    for name in names:
        start = time.perf_counter()
        for check, ok, detail in SUITES[name](args.seed, args.samples):
            rows.append([name, check, "PASS" if ok else "FAIL", detail])
            failed += 0 if ok else 1
        seconds[name] = time.perf_counter() - start
    _emit(args, config, ["suite", "check", "status", "detail"], rows)
    return 1 if failed else 0


# Commands that never read ``args.exact``.
NO_EXACT_COMMANDS = ("spectrum", "simulate", "mc", "verify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-moments",
        description="Moment operators of quantum-channel ensembles",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    mode = parser.add_mutually_exclusive_group()
    # None until a flag is given: the exact path is the default of
    # ``weingarten`` and ``transfer``, the float path of ``hierarchy``;
    # ``NO_EXACT_COMMANDS`` do not read the flag and reject an explicit --exact.
    mode.add_argument("--exact", dest="exact", action="store_true", default=None)
    mode.add_argument("--float", dest="exact", action="store_false")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weingarten", help="Gram and Weingarten matrices")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_weingarten)

    def add_spec_args(p):
        p.add_argument("--ensemble", choices=(HAAR, CHAAR, DEPOLARIZE), required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--dE", type=int, default=1)
        p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("transfer", help="transfer matrix of an ensemble")
    add_spec_args(p)
    p.add_argument("--basis", choices=(PERMUTATION, LOCALIZED), default=PERMUTATION)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("hierarchy", help="norm/trace scan over a grid")
    p.add_argument("--t-list", default="2,3,4")
    p.add_argument("--k-list", default="1,3")
    p.add_argument("--d-list", default="2,3,4,5,6,7,8")
    p.add_argument("--dE-rules", default="1,2,d,d2")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("spectrum", help="eigenvalues of the modified transfer")
    add_spec_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="two-copy purity trajectories")
    p.add_argument("--ansatz", default="hea")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, default=30)
    p.add_argument("--noise", default="")
    p.add_argument("--gamma", default="0.0")
    p.add_argument("--max-qubits", type=int, default=tw.DEFAULT_QUBIT_CAP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="Monte-Carlo frame potential")
    add_spec_args(p)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; bad input of any kind exits 2 with one stderr line.

    Every package error subclasses ValueError, so this is the single error
    boundary of the command line.  A dimension too large for a float
    overflows where it is raised to a negative power, and is bad input too.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        if args.exact and args.command in NO_EXACT_COMMANDS:
            raise ValueError(f"--exact does not apply to the {args.command} command")
        if args.exact is None:
            args.exact = args.command != "hierarchy"
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
