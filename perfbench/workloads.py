"""The four benchmark workloads: inputs, warm-up, timed unit and output checks.

A workload turns ``--seed`` into inputs drawn from a fixed menu of equal
cost, warms the S_t tables it needs (part of ``setup_s``), and then repeats
one timed *unit* of work.  Every call goes through the package's public
module attributes (``moments.transfer``, ``cli.main`` ...), so the tracer's
wrappers see it.  ``digest`` reduces a unit's outputs to the values kept in
``references.json``; ``check`` compares against them and tests invariants.

Sizes: ``full`` is what the benchmark measures, ``tiny`` is for the
harness self-check (t = 3, n = 2, 1k samples).
"""

from __future__ import annotations

import csv
import hashlib
import random
from math import factorial

from channelmoments import cli, specs
from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments import twirlsim as tw
from channelmoments import weingarten as wg

REL_TOL = 1e-9
RESIDUAL_TOL = 1e-8
MC_SIGMAS = 5


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _same(got, want) -> bool:
    """Structural equality; floats within REL_TOL, everything else exact."""
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and _close(float(got), float(want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    return got == want


def _compare(digest: dict, refs: dict) -> list:
    return [(f"reference {key}", key in refs and _same(val, refs[key]), key)
            for key, val in digest.items()]


# -- exact path ---------------------------------------------------------------

# Fraction cost depends on the values, so no two (d, dE) points cost the same.
# Every unit visits the whole menu; the seed fixes the visiting order, which
# decides the point that meets cold Weingarten caches.
EXACT_POINTS = ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3))


def _sha(matrix) -> str:
    text = "\n".join(",".join(str(x) for x in row) for row in matrix)
    return hashlib.sha256(text.encode()).hexdigest()


def _pair_trace(tau, x):
    """Tr[tau X] as the benchmark's own O(n^2) elementwise sum."""
    n = tau.shape[0]
    return sum(tau[i, j] * x[j, i] for i in range(n) for j in range(n))


class Exact:
    def menu(self, scale):
        return [{"t": 4 if scale == "full" else 3, "points": list(EXACT_POINTS)}]

    def pick(self, seed, scale):
        inp = self.menu(scale)[0]
        random.Random(seed).shuffle(inp["points"])
        return inp

    def setup(self, inp):
        t, d = inp["t"], inp["points"][0][0]
        sg.symmetric_group(t)
        wg.gram_matrix(t, d)
        loc.phi_inverse(t)

    def unit(self, inp, ctx):
        t = inp["t"]
        out = []
        for d, dE in inp["points"]:
            spec = specs.chaar(d, dE, t)
            tp = mo.transfer(spec, basis=specs.PERMUTATION, exact=True)
            tl = mo.transfer(spec, basis=specs.LOCALIZED, exact=True)
            xp = mo.gram(t, d, basis=specs.PERMUTATION, exact=True)
            xl = mo.gram(t, d, basis=specs.LOCALIZED, exact=True)
            n2 = mo.norm_squared(tp, xp)
            out.append((d, dE, tp.matrix, tl.matrix, xp, xl, n2))
        return out

    def digest(self, inp, out):
        return {
            f"t{inp['t']}_d{d}_dE{dE}": {
                "permutation": _sha(tp), "localized": _sha(tl), "norm2": str(n2),
                "trace": str(_pair_trace(tp, xp)),
            }
            for d, dE, tp, tl, xp, xl, n2 in out
        }

    def check(self, inp, out, refs):
        t = inp["t"]
        checks = _compare(self.digest(inp, out), refs)
        for d, dE, tp, tl, xp, xl, n2 in out:
            key = f"d{d}_dE{dE}"
            checks.append((f"trace equal in both bases {key}",
                           _pair_trace(tp, xp) == _pair_trace(tl, xl), key))
            checks.append((f"1 <= norm2 <= t! {key}", 1 <= n2 <= factorial(t), str(n2)))
        return checks


# -- float path ---------------------------------------------------------------

# (scan d, spectrum (d, dE), localized-gram d).  Float cost does not depend on
# the values; every scan d >= t keeps all four dE rules, i.e. 8 scan points.
FLOAT_MENU = {
    "full": (6, ((6, (2, 3), 2), (7, (3, 2), 3), (8, (2, 4), 4), (9, (4, 2), 5),
                 (10, (3, 3), 2))),
    "tiny": (3, ((3, (2, 2), 2), (4, (2, 3), 3), (5, (3, 2), 4))),
}


class Float:
    def menu(self, scale):
        t, rows = FLOAT_MENU[scale]
        return [{"t": t, "scan_d": a, "spectrum": list(b), "gram_d": c} for a, b, c in rows]

    def pick(self, seed, scale):
        return random.Random(seed).choice(self.menu(scale))

    def setup(self, inp):
        t = inp["t"]
        sg.symmetric_group(t)
        wg.gram_matrix(t, inp["gram_d"], exact=False)
        loc.phi_inverse(t)

    def unit(self, inp, ctx):
        t = inp["t"]
        d, dE = inp["spectrum"]
        scan = mo.hierarchy_scan([t], [1, 3], [inp["scan_d"]])
        report = mo.spectrum(specs.chaar(d, dE, t, k=2))
        lgram = loc.localized_gram(t, inp["gram_d"], exact=False)
        return scan, report, lgram

    def digest(self, inp, out):
        scan, report, lgram = out
        t = inp["t"]
        d, dE = inp["spectrum"]
        ev = report.eigenvalues
        return {
            f"scan_t{t}_d{inp['scan_d']}": [
                [r.t, r.k, r.d, r.dE, r.norm2, r.trace] for r in scan.rows],
            f"spectrum_t{t}_d{d}_dE{dE}_k2": {
                "count": len(ev), "leading_abs": float(abs(ev[0])),
                "sum": float(ev.real.sum())},
            f"lgram_t{t}_d{inp['gram_d']}": {
                "trace": float(lgram.trace()), "sum": float(lgram.sum()),
                "frobenius": float((lgram * lgram).sum())},
        }

    def check(self, inp, out, refs):
        scan, report, _ = out
        checks = _compare(self.digest(inp, out), refs)
        checks.append(("scan has no violations", not scan.violations, str(scan.violations)))
        for name, val in sorted(report.residuals.items()):
            checks.append((f"spectral residual {name}", val < RESIDUAL_TOL, repr(val)))
        return checks


# -- circuit path -------------------------------------------------------------

CIRCUIT_GAMMAS = (0.01, 0.02, 0.05, 0.1, 0.2)


class Circuit:
    def menu(self, scale):
        n = 5 if scale == "full" else 2
        return [{"n": n, "ansatz": specs.MAT, "noise": "amplitude_damping", "gamma": g,
                 "layers": 1} for g in CIRCUIT_GAMMAS]

    def pick(self, seed, scale):
        return random.Random(seed).choice(self.menu(scale))

    def setup(self, inp):
        pass

    def unit(self, inp, ctx):
        return tw.evolve(specs.CircuitSpec(**inp))

    def digest(self, inp, out):
        key = "evolve_n{n}_{ansatz}_{noise}_g{gamma}_L{layers}".format(**inp)
        return {key: list(out)}

    def check(self, inp, out, refs):
        checks = _compare(self.digest(inp, out), refs)
        checks.append(("purity in (0, 1]", all(0 < p <= 1 for p in out), str(out)))
        return checks


# -- command line -------------------------------------------------------------

# The README "Command line" examples.  ``mc`` draws 10k samples, not the
# README's 100k, so that several units fit in one run.
CLI_COMMANDS = {
    "full": (
        "weingarten --t 3 --d 4",
        "transfer --ensemble chaar --t 2 --d 2 --dE 4 --basis localized",
        "hierarchy --t-list 2,3,4 --k-list 1,3 --d-list 2,3,4,5,6,7,8",
        "spectrum --ensemble chaar --t 3 --d 2 --dE 2",
        "simulate --n 3 --layers 50 --noise local_depolarizing --gamma 0.1,0.2",
        "mc --ensemble chaar --t 2 --d 2 --dE 2 --samples 10000",
        "verify --suite all",
    ),
    "tiny": (
        "weingarten --t 3 --d 4",
        "transfer --ensemble chaar --t 2 --d 2 --dE 4 --basis localized",
        "hierarchy --t-list 2,3 --k-list 1,3 --d-list 2,3,4",
        "spectrum --ensemble chaar --t 3 --d 2 --dE 2",
        "simulate --n 2 --layers 5 --noise local_depolarizing --gamma 0.1,0.2",
        "mc --ensemble chaar --t 2 --d 2 --dE 2 --samples 1000",
        "verify --suite all",
    ),
}


def _read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class Session:
    def menu(self, scale):
        return [{"cli_seed": 0, "commands": list(CLI_COMMANDS[scale]),
                 "t": 5 if scale == "full" else 3}]

    def pick(self, seed, scale):
        return dict(self.menu(scale)[0], cli_seed=seed)

    def setup(self, inp):
        t = inp["t"]
        sg.symmetric_group(t)
        wg.gram_matrix(t, 2)
        loc.phi_inverse(t)

    def unit(self, inp, ctx):
        results = []
        for i, command in enumerate(inp["commands"]):
            path = ctx.workdir / f"out{i}.csv"
            argv = ["--seed", str(inp["cli_seed"]), "--out", str(path)] + command.split()
            results.append((command.split()[0], cli.main(argv), path))
        return results

    def digest(self, inp, out):
        return {}

    def check(self, inp, out, refs):
        checks = []
        for name, rc, path in out:
            rows = _read_rows(path) if path.exists() else []
            if name == "verify":
                failing = {r["suite"] for r in rows if r["status"] != "PASS"}
                # The mc suite holds 3-sigma Monte-Carlo checks; a rare miss
                # there makes verify exit 1 and is not a defect.
                checks.append(("exit code verify", rc == 0 or (rc == 1 and failing == {"mc"}),
                               str(rc)))
                for suite in cli.SUITES:
                    if suite != "mc":
                        checks.append((f"verify suite {suite}", suite not in failing, suite))
            else:
                checks.append((f"exit code {name}", rc == 0, str(rc)))
            if name == "mc":
                by = {r["quantity"]: r for r in rows}
                est, exact = by["frame_potential"], by["exact_norm2"]
                gap = abs(float(est["value"]) - float(exact["value"]))
                checks.append(("mc within 5 sigma of exact_norm2",
                               gap <= MC_SIGMAS * float(est["stderr"]),
                               f"{est['value']} +- {est['stderr']} vs {exact['value']}"))
        return checks


WORKLOADS = {
    "exact-t4": Exact(),
    "float-t6": Float(),
    "circuit-n5": Circuit(),
    "cli-session": Session(),
}
