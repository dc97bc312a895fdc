#!/usr/bin/env python3
"""Dump the package's outputs on a fixed grid, or compare two dumps.

A refactor that must not change results is checked by dumping the outputs
of the old and the new tree and comparing the dumps: exact arrays must
agree in value and in entry type (Fraction or Python int), float arrays
bit for bit.  For each output family whose float results differ, the
comparison also prints the largest difference relative to the result's
largest float entry (a scalar's against itself), so that a change
that reorders float arithmetic shows how far it drifts.  The grid covers
the Gram and Weingarten matrices, transfer matrices in both bases for
k = 1, 2, 3 (so the k-fold ones run ``concatenate``) with the norm and
trace of each, the leading right vector and the localized Gram (exact for
t <= 5, float for t <= 6), the exact invariance checks for t <= 4, float
spectra for t <= 6 and k = 1, 2 (eigenvalues sorted by real, then
imaginary part, and the three residuals), two-copy purity trajectories
and seeded Monte-Carlo moments for n <= 3 (both ansaetze, all four
noises, both placements),
purity trajectories for n = 4, 5 (both ansaetze, both initial states,
amplitude damping and local depolarizing, both placements),
seeded frame potentials and expectation moments of the haar, chaar and
depolarize ensembles (more samples than one Monte-Carlo chunk, so that the
dumps show whether the random stream changed), hierarchy-scan rows, the
reference purities for n <= 7, reference variances on fixed (rho, O) pairs
with d = 2, 3, composite noise norms of both unitary ensembles for
t = 1, 2, d = 2, 4 and k <= 3 and of the generator XYZ at d = 8 (k = 1, 3 and
non-unital shift eta = 0, 0.01), and the channel layer: Pauli transfer
matrices of the four standard noises and of their two-qubit krons, their
superoperators for t <= 3, and the t <= 2 superoperators and transfers of
two noise models.  It also holds the text that ``cli.main`` writes, in CSV
and in JSON, for the seven README commands at small sizes, exact transfer
matrices for t <= 4 in both bases with k = 1, 2, a float transfer matrix,
exact Weingarten matrices at t = d = 4, float ones at t = d = 5 (so the
row labels cover every cycle type of S_5) and an exact hierarchy scan at
t = 2, 3; the config fields ``provenance`` and ``suite_seconds`` are taken
out first, because they differ between trees and between runs.

    PYTHONPATH=src python scripts/compare_outputs.py dump new.pkl
    python scripts/compare_outputs.py compare old.pkl new.pkl
"""

import json
import pickle
import sys
import tempfile
from dataclasses import astuple, replace

import numpy as np


CLI_COMMANDS = [
    "weingarten --t 3 --d 4",
    "transfer --ensemble chaar --t 2 --d 2 --dE 4 --basis localized",
    "hierarchy --t-list 2,3 --k-list 1,3 --d-list 2,3,4",
    "spectrum --ensemble chaar --t 3 --d 2 --dE 2",
    "simulate --n 2 --layers 5 --noise local_depolarizing --gamma 0.1,0.2",
    "mc --ensemble chaar --t 2 --d 2 --dE 2 --samples 1000",
    "verify --suite all",
    *(f"--exact transfer --ensemble chaar --t {t} --d 2 --dE 3 --k {k} --basis {basis}"
      for t in range(1, 5) for k in (1, 2) for basis in ("permutation", "localized")),
    "--float transfer --ensemble chaar --t 3 --d 2 --dE 3",
    "--exact weingarten --t 4 --d 4",
    "--float weingarten --t 5 --d 5",
    "--exact hierarchy --t-list 2,3",
]


def _without_run_fields(text: str, fmt: str) -> str:
    """A command's output without the config fields that differ between
    trees and runs.  JSON is dumped again as ``cli`` dumps it, unless the
    text was not dumped that way, which is kept whole so that it shows."""
    def strip(config):
        return {k: v for k, v in config.items() if k not in ("provenance", "suite_seconds")}

    if fmt == "json":
        payload = json.loads(text)
        if json.dumps(payload, sort_keys=True, indent=1) + "\n" != text:
            return text
        return json.dumps({**payload, "config": strip(payload["config"])}, sort_keys=True,
                          indent=1) + "\n"
    version, config, rest = text.split("\n", 2)
    config = strip(json.loads(config.removeprefix("# config ")))
    return "\n".join([version, "# config " + json.dumps(config, sort_keys=True), rest])


def _cli_text() -> dict:
    """(exit code, text) of each command of ``CLI_COMMANDS`` in both formats."""
    from channelmoments import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in CLI_COMMANDS:
            for fmt in ("csv", "json"):
                path = f"{tmp}/{len(out)}"
                code = cli.main(["--format", fmt, "--out", path] + command.split())
                try:
                    with open(path) as fh:
                        text = _without_run_fields(fh.read(), fmt)
                except FileNotFoundError:  # the command failed before writing
                    text = None
                out[("cli", fmt, command)] = (code, text)
    return out


def _grid():
    from channelmoments import channels as ch
    from channelmoments import localized as loc
    from channelmoments import moments as mo
    from channelmoments import twirlsim as tw
    from channelmoments import weingarten as wg
    from channelmoments.specs import CircuitSpec, chaar, depolarize, haar

    out = {}
    for exact, t_max in ((True, 5), (False, 6)):
        for t in range(1, t_max + 1):
            for d in sorted({max(t, 2), t + 1}):
                key = (exact, t, d)
                out[("gram",) + key] = wg.gram_matrix(t, d, exact=exact)
                out[("weingarten",) + key] = wg.weingarten_matrix(t, d, exact=exact)
                out[("localized_gram",) + key] = loc.localized_gram(t, d, exact=exact)
                specs = [haar(d, t), depolarize(d, t)] + [chaar(d, dE, t) for dE in (1, 2, 3)]
                for spec in specs:
                    name = (spec.label(),) + key
                    out[("leading_right",) + name] = mo.leading_right_vector(spec, exact=exact)
                    for basis in ("permutation", "localized"):
                        x = mo.gram(t, d, basis=basis, exact=exact)
                        for k in (1, 2, 3):
                            tm = mo.transfer(replace(spec, k=k), basis=basis, exact=exact)
                            out[("transfer", basis, k) + name] = tm.matrix
                            out[("norm_squared", basis, k) + name] = mo.norm_squared(tm, x)
                            out[("trace", basis, k) + name] = mo.trace(tm, x)
                    if not exact:
                        for k in (1, 2):
                            rep = mo.spectrum(replace(spec, k=k))
                            res = rep.residuals
                            out[("spectrum", k) + name] = (
                                np.sort_complex(rep.eigenvalues), res["eigenpairs"],
                                res["leading_right"], res["leading_left"])
                if exact and t <= 4:
                    for pair in ((haar(d, t), chaar(d, 2, t)), (chaar(d, 3, t), depolarize(d, t)),
                                 (chaar(d, 1, t), haar(d, t))):
                        out[("invariance_checks",) + tuple(s.label() for s in pair) + key] = [
                            (r.name, r.passed, r.detail) for r in mo.invariance_checks(*pair)]
    for n in (1, 2, 3):
        for ansatz in ("hea", "mat"):
            for noise in ch.NOISE_KINDS:
                for placement in ("gate", "register"):
                    spec = CircuitSpec(n=n, ansatz=ansatz, layers=3, noise=noise,
                                       gamma=0.1, noise_placement=placement)
                    key = (n, ansatz, noise, placement)
                    out[("evolve",) + key] = tw.evolve(spec)
                    # Built here, not by the package, so that any tree can be dumped.
                    psi = np.zeros(spec.d, dtype=complex)
                    if spec.state == "zero":
                        psi[0] = 1.0
                    else:
                        psi[:] = 1 / np.sqrt(spec.d)
                    obs = ch.pauli_string(n, "Z" + "I" * (n - 1))
                    est = tw.mc_expectation_moments(spec, np.outer(psi, psi.conj()), obs, 100,
                                                    seed=n)
                    out[("mc",) + key] = astuple(est)
    for n in (4, 5):
        for ansatz in ("hea", "mat"):
            for state in ("zero", "plus"):
                for noise in (ch.AMPLITUDE_DAMPING, ch.LOCAL_DEPOLARIZING):
                    for placement in ("gate", "register"):
                        spec = CircuitSpec(n=n, ansatz=ansatz, layers=3, noise=noise, gamma=0.1,
                                           initial_state=state, noise_placement=placement)
                        out[("evolve", n, ansatz, noise, placement, state)] = tw.evolve(spec)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    obs = ch.PAULI_Z + 0.5 * ch.PAULI_X
    for spec in (haar(2, 2), haar(3, 3), chaar(2, 2, 2), chaar(2, 4, 3), depolarize(2, 2)):
        est = mo.frame_potential_mc(spec, 1000, seed=spec.t)
        out[("frame_potential_mc", spec.label(), spec.t)] = astuple(est)
    for spec in (haar(2, 2), chaar(2, 2, 2), chaar(2, 4, 2), depolarize(2, 2)):
        est = tw.mc_expectation_moments(spec, rho, obs, 1000, seed=4)
        out[("mc_ensemble", spec.label())] = astuple(est)
    out["scan_float"] = astuple(mo.hierarchy_scan([2, 3, 4], [1, 3], [2, 3, 4, 5]))
    out["scan_exact"] = astuple(mo.hierarchy_scan([2, 3], [1, 2], [2, 3], exact=True))
    for n in range(1, 8):
        for dE in (1, 3, 4**n):
            out[("reference_purities", n, dE)] = tw.reference_purities(n, dE)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pairs = {2: (rho, obs), 3: (g @ g.conj().T / np.trace(g @ g.conj().T).real, h + h.conj().T)}
    for d, (r, o) in pairs.items():
        for ref in ("haar", "chaar", "depolarize"):
            for dE in (1, 2, 5):
                out[("variance_reference", d, ref, dE)] = tw.variance_reference(r, o, ref, dE)
    for d, labels in ((2, ("X", "Z")), (4, ("ZZ", "XI"))):
        for gamma, eta in ((0.0, 0.0), (0.1, 0.0), (0.1, 0.02)):
            model = ch.NoiseModel.uniform(d, gamma, eta)
            for t in (1, 2):
                for k in (1, 2, 3):
                    key = (d, gamma, eta, t, k)
                    out[("composite_haar",) + key] = tw.composite_noise_norm(
                        tw.HAAR_UNITARIES, model, t, k)
                    for label in labels:
                        out[("composite_generator", label) + key] = tw.composite_noise_norm(
                            tw.SINGLE_GENERATOR, model, t, k, generator=label)
    # The single-generator norm at d = 8, over 4096 string pairs at t = 2.
    for eta in (0.0, 0.01):
        model = ch.NoiseModel.uniform(8, 0.1, eta)
        for t in (1, 2):
            for k in (1, 3):
                out[("composite_generator", "XYZ", 8, 0.1, eta, t, k)] = tw.composite_noise_norm(
                    tw.SINGLE_GENERATOR, model, t, k, generator="XYZ")
    noises = {kind: ch.standard_noise(kind, 0.1) for kind in ch.NOISE_KINDS}
    for kind, kraus in noises.items():
        out[("pauli_transfer", kind)] = ch.pauli_transfer(kraus, 1)
        for t in (1, 2, 3):
            out[("kraus_to_super", kind, t)] = ch.kraus_to_super(kraus, t)
        for other, kraus_b in noises.items():
            pair = [np.kron(a, b) for a in kraus for b in kraus_b]
            out[("pauli_transfer", kind, other)] = ch.pauli_transfer(pair, 2)
    # Amplitude damping at gamma = 0.1, and two-qubit depolarizing noise.
    damping = ch.NoiseModel(2, {"X": 1 - np.sqrt(0.9), "Y": 1 - np.sqrt(0.9), "Z": 0.1},
                            {"Z": 0.1})
    for name, model in (("damping", damping), ("uniform4", ch.NoiseModel.uniform(4, 0.1))):
        for t in (1, 2):
            out[("noise_model_super", name, t)] = ch.noise_model_super(model, t)
    out.update(_cli_text())
    return out


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        if not (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape):
            return False
        if a.dtype == object:
            return all(type(x) is type(y) and x == y for x, y in zip(a.flat, b.flat))
        return a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def _float_entries(a):
    """The float (or complex) entries of a result, flattened into one array,
    or None when it holds none.  Tuples and lists are searched member by
    member, so that ints and labels beside the floats are left out."""
    if isinstance(a, (list, tuple)):
        parts = [p for p in map(_float_entries, a) if p is not None]
        return np.concatenate(parts) if parts else None
    if isinstance(a, (float, complex)) or isinstance(a, np.ndarray) and a.dtype.kind in "fc":
        return np.ravel(a)
    return None


def _relative_drift(a, b):
    """Largest difference of two float results relative to the largest entry
    of either, or None when they hold no floats of matching shape.

    Measuring against the largest entry keeps rounding noise at an entry
    that is 0 in exact arithmetic from reading as drift.  A scalar result
    is its own largest entry, so it keeps the per-entry ratio.
    """
    x, y = _float_entries(a), _float_entries(b)
    if x is None or y is None or x.shape != y.shape:
        return None
    scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    return float(np.abs(x - y).max(initial=0.0) / scale) if scale > 0 else 0.0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        with open(argv[1], "wb") as fh:
            pickle.dump(_grid(), fh)
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with open(argv[1], "rb") as fh:
            old = pickle.load(fh)
        with open(argv[2], "rb") as fh:
            new = pickle.load(fh)
        bad = sorted(map(str, set(old) ^ set(new)))
        drift = {}  # family -> (float results that differ, largest relative difference)
        for k in old:
            if k in new and not _same(old[k], new[k]):
                bad.append(str(k))
                rel = _relative_drift(old[k], new[k])
                if rel is not None:
                    family = k[0] if isinstance(k, tuple) else k
                    count, worst = drift.get(family, (0, 0.0))
                    drift[family] = (count + 1, max(worst, rel))
        for key in bad:
            print("differs:", key)
        for family, (count, worst) in sorted(drift.items()):
            print(f"float drift: {family}: {count} differ, largest relative difference {worst:.3g}")
        print(f"{len(old)} results compared, {len(bad)} differ")
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
