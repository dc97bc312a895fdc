import argparse
import json
import logging
import os
import platform
import subprocess
import sys
from fractions import Fraction
from math import sqrt

import pytest

import channelmoments
import numpy as np

from channelmoments import cli
from channelmoments import moments as mo
from channelmoments import twirlsim as tw
from channelmoments.cli import main
from channelmoments.specs import CircuitSpec, chaar
from oracles import symmetric_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_weingarten_command(capsys):
    code, out = run_cli(capsys, "weingarten", "--t", "2", "--d", "2")
    assert code == 0
    assert "4/3" in out and "-2/3" in out
    assert out.startswith("# channelmoments")
    assert "# config" in out


def test_weingarten_trivial(capsys):
    code, out = run_cli(capsys, "weingarten", "--t", "1", "--d", "5")
    assert code == 0
    assert "weingarten,0,0,e,e,1" in out


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_matrix_row_labels_are_the_cycle_labels(t):
    want = [p.cycle_label() for p in symmetric_group(t)]
    n = len(want)
    rows = list(cli._matrix_rows(np.zeros((n, n)), t))
    assert [r[2] for r in rows[::n]] == want
    assert [r[3] for r in rows[:n]] == want


def test_weingarten_singular_exit_code(capsys):
    code = main(["weingarten", "--t", "3", "--d", "2"])
    captured = capsys.readouterr()
    assert code != 0
    assert "singular" in captured.err.lower()


def test_transfer_depolarize(capsys):
    code, out = run_cli(
        capsys, "transfer", "--ensemble", "depolarize", "--t", "3", "--d", "2"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    nonzero = [r for r in rows if not r.endswith(",0")]
    assert len(nonzero) == 1 and nonzero[0].endswith(",1")


def test_transfer_chaar_localized(capsys):
    code, out = run_cli(
        capsys,
        "transfer",
        "--ensemble",
        "chaar",
        "--t",
        "2",
        "--d",
        "2",
        "--dE",
        "2",
        "--basis",
        "localized",
    )
    assert code == 0
    assert "1/15" in out and "2/15" in out


def test_output_deterministic(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "--seed", "3", "mc", "--ensemble", "haar", "--t", "2", "--d", "2",
            "--samples", "500",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_json_format(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "weingarten", "--t", "2", "--d", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "weingarten"
    assert payload["version"]
    assert any("9/8" in row for row in ["".join(r) for r in payload["rows"]])


@pytest.mark.parametrize("rows", [[], [["0"]], [["1/2", "x"], ["a\nb\u00e9", "3"]],
                                  [['say "q"', "back\\slash"], ["\u00e9t\u00e9", "\x01"]]])
def test_json_text_matches_one_dump(rows):
    fields = {"version": "v", "config": {"rows": [], "a": {"b": [1]}}, "columns": ["p", "q"]}
    got = "".join(cli._json_text(fields, iter(rows)))
    assert got == json.dumps({**fields, "rows": rows}, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_each_value_type(capsys, fmt):
    # Every type a command emits; numpy scalars must print as Python's.
    values = [Fraction(-7, 3), Fraction(4), 3, np.int64(-5), 0.1 + 0.2, np.float64(1e16),
              np.float64(1e-05), -0.0, np.float64(5e-324), np.float64(np.inf),
              np.float64(np.nan), "a b"]
    text = ["-7/3", "4", "3", "-5", "0.30000000000000004", "1e+16", "1e-05", "-0.0",
            "5e-324", "inf", "nan", "a b"]
    args = argparse.Namespace(format=fmt, out=None)
    columns = [f"c{i}" for i in range(len(values))]
    cli._emit(args, {"command": "test"}, columns, [values, values[::-1]])
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["rows"] == [text, text[::-1]]
    else:
        assert out.splitlines()[3:] == [",".join(text), ",".join(text[::-1])]


def test_hierarchy_command(capsys):
    code, out = run_cli(
        capsys,
        "hierarchy",
        "--t-list", "2",
        "--k-list", "1,3",
        "--d-list", "2,3",
        "--dE-rules", "1,2,d",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,k,d,dE,norm2,trace,eps_dep,flags"
    # trivial environments sit at the unitary value
    for line in lines[1:]:
        fields = line.split(",")
        if fields[3] == "1":
            assert abs(float(fields[4]) - 2.0) < 1e-9
        assert fields[-1] == ""  # no violation flags


@pytest.mark.parametrize("flags, exact", [((), False), (("--exact",), True), (("--float",), False)])
def test_hierarchy_exact_flag(capsys, flags, exact):
    code, out = run_cli(
        capsys, *flags, "hierarchy", "--t-list", "2", "--k-list", "1", "--d-list", "2",
        "--dE-rules", "1",
    )
    assert code == 0
    config = json.loads(out.splitlines()[1].removeprefix("# config "))
    assert config["exact"] is exact


def test_hierarchy_verbose_logs_each_group(capsys, caplog):
    """-v logs one line per finished (t, d, dE) group, in scan order."""
    caplog.set_level(logging.INFO)
    code, _ = run_cli(capsys, "-v", "--exact", "hierarchy", "--t-list", "2,3", "--k-list", "1,3",
                      "--d-list", "2", "--dE-rules", "1,2")
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "channelmoments.moments"]
    assert lines[0] == "left out 1 (t, d, dE) with d*dE < t: t=3 d=2 dE=1"
    lines = lines[1:]
    assert [l.split(" done")[0] for l in lines] == [
        "t=2 d=2 dE=1", "t=2 d=2 dE=2", "t=3 d=2 dE=2"]
    assert all(f"{i} of 3 (" in l and l.endswith(" s elapsed)") for i, l in enumerate(lines, 1))


def test_hierarchy_verbose_names_the_points_it_leaves_out(capsys, caplog):
    """A scan whose every point has d*dE < t writes a header and no row;
    -v says which (t, d, dE) it left out, in one line, and logs no group.
    The output is the same with and without -v."""
    argv = ["hierarchy", "--t-list", "4,5", "--k-list", "1,2", "--d-list", "2", "--dE-rules", "1"]
    code, quiet = run_cli(capsys, *argv)
    assert code == 0 and quiet.splitlines()[-1] == "t,k,d,dE,norm2,trace,eps_dep,flags"
    assert not [r for r in caplog.records if r.name == "channelmoments.moments"]
    caplog.set_level(logging.INFO)
    code, out = run_cli(capsys, "-v", *argv)
    assert code == 0
    assert out == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "channelmoments.moments"]
    assert lines == ["left out 2 (t, d, dE) with d*dE < t: t=4 d=2 dE=1; t=5 d=2 dE=1"]


def test_hierarchy_rules_that_resolve_to_one_dE_write_one_row(capsys):
    code, out = run_cli(capsys, "hierarchy", "--t-list", "2", "--k-list", "1", "--d-list", "2",
                        "--dE-rules", "2,d")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert [(row[2], row[3]) for row in rows] == [("2", "2")]


def test_exact_hierarchy_rows_are_fractions(capsys):
    """Exact rows are written as p/q: each parses back to the exact
    reference value, and eps_dep stays a float."""
    code, out = run_cli(
        capsys, "--exact", "hierarchy", "--t-list", "2,3", "--k-list", "1,2", "--d-list", "2",
        "--dE-rules", "1,2",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 6
    for t, k, d, de, norm2, trace, eps_dep, _ in rows:
        spec = chaar(int(d), int(de), int(t))
        want = mo._reference_values(spec, (int(k),), exact=True)[int(k)]
        assert (Fraction(norm2), Fraction(trace)) == want
        assert float(eps_dep) == sqrt(max(float(want[0]) - 1.0, 0.0))


def test_simulate_noiseless_rows_carry_gamma_zero(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "2", "--layers", "2",
                        "--noise", "dephasing", "--gamma", "0.1,0.0,0.2")
    assert code == 0
    traj = [l for l in out.splitlines() if l.startswith("hea,none")]
    assert len(traj) == 2
    assert all(l.split(",")[2] == "0.0" for l in traj)


def test_simulate_command(capsys):
    code, out = run_cli(
        capsys, "simulate", "--n", "2", "--layers", "3", "--noise", "dephasing",
        "--gamma", "0.1",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "ansatz,noise,gamma,n,L_index,purity"
    refs = [l for l in lines if ",-1," in l]
    assert len(refs) == 3
    traj = [l for l in lines if l.startswith("hea,dephasing")]
    assert len(traj) == 3


def counting_evolve(monkeypatch):
    calls = []

    def evolve(spec, **kwargs):
        calls.append(spec)
        return real(spec, **kwargs)

    real = tw.evolve
    monkeypatch.setattr(tw, "evolve", evolve)
    return calls


def test_simulate_runs_noiseless_once_per_ansatz(capsys, monkeypatch):
    calls = counting_evolve(monkeypatch)
    code, out = run_cli(
        capsys, "simulate", "--n", "2", "--layers", "2", "--ansatz", "hea,mat",
        "--noise", "dephasing,amplitude_damping", "--gamma", "0.0,0.1",
    )
    assert code == 0
    assert [(s.ansatz, s.noise, s.gamma) for s in calls] == [
        (a, noise, g) for a in ("hea", "mat")
        for noise, g in ((None, 0.0), ("dephasing", 0.1), ("amplitude_damping", 0.1))
    ]
    rows = [l.split(",") for l in out.splitlines()[3:]]
    assert {(r[1], r[2]) for r in rows if r[4] != "-1"} == {
        ("none", "0.0"), ("dephasing", "0.1"), ("amplitude_damping", "0.1")
    }
    # Every noise is the identity at gamma 0, so the one noiseless run stands for all.
    none = [float(r[5]) for r in rows if r[0] == "hea" and r[1] == "none"]
    for noise in ("dephasing", "amplitude_damping"):
        assert tw.evolve(CircuitSpec(n=2, layers=2, noise=noise, gamma=0.0)) == none


def test_simulate_bad_noise_fails_before_any_trajectory(capsys, monkeypatch):
    calls = counting_evolve(monkeypatch)
    code = main(["simulate", "--n", "2", "--layers", "1", "--noise", "dephasing,foo",
                 "--gamma", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown noise kind 'foo'\n"
    assert calls == []


def test_simulate_qubit_cap_names_the_flag(capsys):
    code = main(["simulate", "--n", "8", "--layers", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: n=8 exceeds cap 7; pass max_qubits (--max-qubits on the command line) "
        "to override\n"
    )


def test_simulate_config_records_invariant_residuals(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "2", "--layers", "3", "--ansatz", "hea,mat",
                        "--noise", "amplitude_damping,dephasing", "--gamma", "0.0,0.3")
    assert code == 0
    config = json.loads(out.splitlines()[1].removeprefix("# config "))
    assert 0 <= config["max_trace_residual"] < 1e-12
    purities = [float(l.split(",")[5]) for l in out.splitlines()[3:] if ",-1," not in l]
    assert config["min_purity_slack"] == min(min(p - 1 / 16, 1 - p) for p in purities)
    assert config["min_purity_slack"] > 0


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--ansatz", "hea,hea", "duplicate ansatz = hea"),
        ("--noise", "dephasing,bit_flip,dephasing", "duplicate noise = dephasing"),
        ("--gamma", "0.1,0.1", "duplicate gamma = 0.1"),
        ("--gamma", "0.1,0.10", "duplicate gamma = 0.1"),
        ("--gamma", "0.1,abc", "--gamma '0.1,abc' is not a list of numbers"),
    ],
)
def test_simulate_duplicate_grid_value_fails_before_any_trajectory(
    capsys, monkeypatch, flag, value, named
):
    calls = counting_evolve(monkeypatch)
    argv = {"--n": "2", "--layers": "1", "--ansatz": "hea", "--noise": "dephasing",
            "--gamma": "0.1"}
    argv[flag] = value
    code = main(["simulate", *(x for item in argv.items() for x in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: invalid grid: {named}\n"
    assert calls == []


@pytest.mark.parametrize("verbose", [False, True])
def test_simulate_logs_one_line_per_trajectory_at_v(verbose):
    argv = ["-v"] * verbose + ["simulate", "--n", "1", "--layers", "1", "--ansatz", "hea,mat",
                               "--noise", "dephasing", "--gamma", "0.0,0.1"]
    src = os.path.dirname(os.path.dirname(channelmoments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "channelmoments.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    lines = proc.stderr.splitlines()
    assert len(lines) == (4 if verbose else 0), proc.stderr
    assert [line.split(" done")[0] for line in lines] == [
        "hea none gamma=0.0", "hea dephasing gamma=0.1",
        "mat none gamma=0.0", "mat dephasing gamma=0.1",
    ][: len(lines)]


@pytest.mark.parametrize("command, extra", [("transfer", ()), ("spectrum", ()),
                                            ("mc", ("--samples", "100"))])
@pytest.mark.parametrize("ensemble, used", [("haar", 1), ("depolarize", 1), ("chaar", 3)])
def test_config_records_environment_used(capsys, command, extra, ensemble, used):
    code, out = run_cli(capsys, "--float", command, "--ensemble", ensemble, "--t", "2",
                        "--d", "2", "--dE", "3", *extra)
    assert code == 0
    config = json.loads(out.splitlines()[1].removeprefix("# config "))
    assert config["dE"] == used


def test_spectrum_command(capsys):
    code, out = run_cli(
        capsys, "spectrum", "--ensemble", "chaar", "--t", "2", "--d", "2", "--dE", "2"
    )
    assert code == 0
    assert "eigenvalue,0,1.0" in out
    assert "residual" in out


def test_verify_suites_pass(capsys):
    for suite in ("mobius", "weingarten", "localized", "oracle", "invariance", "spectrum"):
        code, out = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert "FAIL" not in out


@pytest.mark.parametrize("fault", ["dropped_relation", "flipped_sign", "extra_relation"])
def test_verify_finds_a_fault_in_the_cached_tables(capsys, monkeypatch, fault):
    from channelmoments import localized as loc

    order, mobius = loc._subperm_table(4).copy(), loc._order_matrix(4).copy()
    # Index 0 is the identity, 1 and 2 are distinct transpositions.
    assert order[1, 0] and not order[1, 2] and mobius[1, 0] == -1
    if fault == "dropped_relation":
        order[1, 0] = False
    elif fault == "flipped_sign":
        mobius[1, 0] = 1
    else:
        order[1, 2] = True
    for name, table in (("_subperm_table", order), ("_order_matrix", mobius)):
        real = getattr(loc, name)
        monkeypatch.setattr(loc, name, lambda t, real=real, table=table: table if t == 4 else real(t))
    for suite, check in (("mobius", "mobius_lattice_t4"), ("localized", "phi_inverse_t4")):
        code, out = run_cli(capsys, "verify", "--suite", suite)
        assert code == 1
        assert f"{suite},{check},FAIL," in out


@pytest.mark.parametrize("suite", ["all", "mc"])
def test_verify_rejects_too_few_samples_before_any_suite(capsys, monkeypatch, tmp_path, suite):
    ran = []
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, lambda seed, samples, name=name: ran.append(name) or [])
    target = tmp_path / "verify.csv"
    code = main(["--out", str(target), "verify", "--suite", suite, "--samples", "50"])
    assert code == 2
    assert capsys.readouterr().err == "error: need at least 100 samples\n"
    assert ran == [] and not target.exists()


def test_verify_without_mc_takes_any_sample_count(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "mobius", "--samples", "0")
    assert code == 0 and "FAIL" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "w.csv"
    code = main(["--out", str(target), "weingarten", "--t", "2", "--d", "2"])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert "4/3" in text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_matches_stdout(tmp_path, capsys, fmt):
    argv = ["--format", fmt, "weingarten", "--t", "3", "--d", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / f"w.{fmt}"
    assert main(["--out", str(target)] + argv) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed
    # Gram then Weingarten, 36 rows each.
    rows = json.loads(printed)["rows"] if fmt == "json" else printed.splitlines()[3:]
    assert len(rows) == 72


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--ensemble", "haar", "--t", "3", "--d", "2"),
        ("mc", "--ensemble", "haar", "--t", "3", "--d", "2"),
        ("simulate", "--n", "2", "--layers", "1", "--noise", "foo", "--gamma", "0.1"),
        ("simulate", "--n", "2", "--layers", "1", "--noise", "foo"),
        ("simulate", "--n", "2", "--layers", "1", "--noise", "dephasing", "--gamma", "1.5"),
        ("simulate", "--n", "2", "--layers", "1", "--gamma", "1.5"),
        ("simulate", "--n", "1", "--layers", "1", "--gamma", "0.3"),
        ("simulate", "--n", "1", "--layers", "1", "--gamma", "0.0,0.3"),
        ("simulate", "--n", "0", "--layers", "1"),
        ("simulate", "--n", "-1", "--layers", "1"),
        ("simulate", "--n", "2", "--layers", "-1"),
        ("mc", "--ensemble", "chaar", "--t", "2", "--d", "2", "--dE", "2", "--k", "3"),
        ("transfer", "--ensemble", "haar", "--t", "7", "--d", "7"),
        ("weingarten", "--t", "3", "--d", "2"),
        ("--out", "{tmp}/missing/x.csv", "weingarten", "--t", "2", "--d", "2"),
        ("--out", "{tmp}", "weingarten", "--t", "2", "--d", "2"),
        ("--exact", "spectrum", "--ensemble", "haar", "--t", "2", "--d", "2"),
        ("--exact", "simulate", "--n", "1", "--layers", "1"),
        ("--exact", "mc", "--ensemble", "haar", "--t", "2", "--d", "2", "--samples", "100"),
        ("--exact", "verify", "--suite", "mobius"),
        # A dimension too large for a float.
        ("hierarchy", "--t-list", "2", "--k-list", "1", "--d-list", str(10**400)),
        ("spectrum", "--ensemble", "chaar", "--t", "2", "--d", str(10**400), "--dE", "2"),
        ("--float", "transfer", "--ensemble", "haar", "--t", "2", "--d", str(10**400)),
        # One sample's Ginibre stack at d dE = 9e6 is 2.3 PiB; numpy refuses it.
        ("mc", "--ensemble", "chaar", "--t", "2", "--d", "3000", "--dE", "3000",
         "--samples", "100"),
    ],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("hierarchy", "--t-list", "2", "--k-list", "1", "--d-list", "{big}"),
        ("spectrum", "--ensemble", "chaar", "--t", "2", "--d", "{big}", "--dE", "2"),
        ("spectrum", "--ensemble", "chaar", "--t", "2", "--d", "2", "--dE", "{big}"),
        ("--float", "transfer", "--ensemble", "haar", "--t", "2", "--d", "{big}"),
    ],
)
def test_float_overflow_error_names_the_dimension(capsys, argv):
    big = str(10**400 + 7)
    assert main([a.format(big=big) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: dimension {big} exceeds the float path's range\n"


def test_mc_k_fold_fails_without_concatenating(capsys, monkeypatch):
    from channelmoments import moments as mo

    def concatenate(*args, **kwargs):
        raise AssertionError("concatenate called")

    monkeypatch.setattr(mo, "concatenate", concatenate)
    code = main(["mc", "--ensemble", "chaar", "--t", "3", "--d", "2", "--dE", "2", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: the sampler draws single channels; k = 3 is not supported\n"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--dE-rules", "0", "dE = 0"),
        ("--dE-rules", "1,foo", "'foo'"),
        ("--t-list", "x", "'x'"),
        ("--t-list", "2,0", "t = 0"),
        ("--k-list", "0", "k = 0"),
        ("--d-list", "1", "d = 1"),
        ("--t-list", "2,2", "duplicate t = 2"),
        ("--k-list", "1,1", "duplicate k = 1"),
        ("--d-list", "2,3,2", "duplicate d = 2"),
        ("--dE-rules", "1,1", "duplicate dE rule = 1"),
    ],
)
def test_hierarchy_bad_grid_is_one_error_line(capsys, flag, value, named):
    argv = {"--t-list": "2", "--k-list": "1", "--d-list": "2", "--dE-rules": "1"}
    argv[flag] = value
    code = main(["hierarchy", *(x for item in argv.items() for x in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid grid: ")
    assert named in lines[0]


def test_bad_max_order_env_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("CHANNEL_MOMENTS_MAX_T", "x")
    code = main(["transfer", "--ensemble", "haar", "--t", "2", "--d", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: CHANNEL_MOMENTS_MAX_T='x' is not an integer\n"


def _config(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)["config"]
    return json.loads(out.splitlines()[1].removeprefix("# config "))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_outputs_carry_provenance(capsys, monkeypatch, fmt):
    sha = "0123456789abcdef0123456789abcdef01234567"
    monkeypatch.setattr(cli, "provenance", lambda: {"python": "3.x", "numpy": "2.x",
                                                   "git_sha": sha})
    code, out = run_cli(capsys, "--format", fmt, "weingarten", "--t", "2", "--d", "2")
    assert code == 0
    config = _config(out, fmt)
    assert config["provenance"] == {"python": "3.x", "numpy": "2.x", "git_sha": sha}
    assert config["command"] == "weingarten"
    if fmt == "csv":
        assert out.splitlines()[2] == "matrix,row,col,row_perm,col_perm,value"
    else:
        assert json.loads(out)["columns"] == ["matrix", "row", "col", "row_perm", "col_perm",
                                              "value"]


def test_provenance_versions():
    got = cli.provenance()
    assert got["python"] == platform.python_version()
    assert got["numpy"] == np.__version__
    assert cli.provenance() is got  # read once per process
    assert "git_sha" not in got or len(got["git_sha"]) == 40


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path):
    a, b = "a" * 40, "b" * 40
    assert cli.git_sha(tmp_path) is None
    (tmp_path / "HEAD").write_text(a + "\n")
    assert cli.git_sha(tmp_path) == a
    (tmp_path / "HEAD").write_text("ref: refs/heads/main\n")
    assert cli.git_sha(tmp_path) is None
    (tmp_path / "packed-refs").write_text(f"# pack-refs with: peeled\n{b} refs/heads/main\n")
    assert cli.git_sha(tmp_path) == b
    (tmp_path / "refs" / "heads").mkdir(parents=True)
    (tmp_path / "refs" / "heads" / "main").write_text(a + "\n")
    assert cli.git_sha(tmp_path) == a
    # A worktree: its .git file names its own directory, whose HEAD is read
    # there and whose branch refs are read from the common directory.
    own = tmp_path / "worktrees" / "wt"
    own.mkdir(parents=True)
    (own / "HEAD").write_text("ref: refs/heads/topic\n")
    (own / "commondir").write_text("../..\n")
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    (checkout / ".git").write_text(f"gitdir: {own}\n")
    assert cli.git_sha(checkout / ".git") is None
    (tmp_path / "packed-refs").write_text(f"{b} refs/heads/topic\n")
    assert cli.git_sha(checkout / ".git") == b
    (tmp_path / "refs" / "heads" / "topic").write_text(a + "\n")
    assert cli.git_sha(checkout / ".git") == a
    (checkout / ".git").write_text("gitdir: ../worktrees/wt\n")
    assert cli.git_sha(checkout / ".git") == a
    (own / "HEAD").write_text(b + "\n")
    assert cli.git_sha(checkout / ".git") == b


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_records_seconds_per_suite(capsys, fmt):
    code, out = run_cli(capsys, "--format", fmt, "verify", "--suite", "oracle")
    assert code == 0
    seconds = _config(out, fmt)["suite_seconds"]
    assert list(seconds) == ["oracle"] and seconds["oracle"] >= 0
