import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enmeas import cli, reproduce
from enmeas.cli import build_parser, main
from enmeas.distances import quantum_distance
from enmeas.linalg import matrix_to_json
from enmeas.povm import Povm, projective_qubit, random_rank_one_povm, validate
from enmeas.tau import optimal_finite_state


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def run_module(args):
    # the child imports enmeas from wherever this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "enmeas.cli", *args],
                          capture_output=True, env=env)


def test_tau_finite_d2(capsys):
    code, out, _ = run_cli(["tau", "finite", "--d", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == pytest.approx(0.5, abs=1e-12)
    assert data["epsilon"] == pytest.approx(0.25, abs=1e-12)


def test_unknown_flag_exits_2():
    proc = run_module(["tau", "finite", "--bogus"])
    assert proc.returncode == 2


def test_unknown_subcommand_exits_2():
    proc = run_module(["frobnicate"])
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ["tau", "finite", "--sweep-min", "2"],
    ["tau", "finite", "--sweep-max", "5"],
    ["tau", "finite", "--d", "2", "--format", "csv"],
    ["phi", "--z", "2", "--format", "csv"],
    ["spectrum", "chains", "--file", "nosuch.json", "--format", "csv"],
    ["tau", "finite", "--sweep-min", "1", "--sweep-max", "3", "--sweep-steps", "-1"],
    ["phi-sweep", "--zmin", "1", "--zmax", "2", "--steps", "-1"],
])
def test_usage_errors_exit_2_before_computing(args, capsys):
    # half a sweep range, CSV where there is no sweep, a negative step count
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_leaf_subcommand_has_its_own_handler():
    leaves = dict(_leaves(build_parser()))
    assert ("tau", "finite") in leaves and ("reproduce",) in leaves
    handlers = [p.get_default("fn") for p in leaves.values()]
    assert all(callable(fn) for fn in handlers)
    assert len({id(fn) for fn in handlers}) == len(leaves)


def test_domain_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["povm", "validate", "--file", str(bad)], capsys)
    assert code == 1
    assert "error:" in err


def test_phi_command(capsys):
    code, out, _ = run_cli(["phi", "--z", "3.0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert 0 < data["phi"] < 1
    assert data["energy_check"] == pytest.approx(3.0, abs=1e-5)


def test_phi_sweep_csv_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["phi-sweep", "--zmin", "1", "--zmax", "3", "--steps", "3",
         "--out", str(out_path)], capsys)
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    from enmeas.bessel import phi

    for row in rows:
        again = phi(float(row["z"]))
        assert float(row["phi"]) == pytest.approx(again.phi, abs=1e-12)
        # re-serialization reproduces the file value exactly
        assert f"{again.phi:.17g}" == row["phi"]


def test_power_state_output(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, _, _ = run_cli(
        ["power-state", "--ebar", "4.0", "--delta", "1.0", "--out", str(out_path)],
        capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["kind"] == "pure"
    assert data["mean_energy"] == pytest.approx(4.0, abs=1e-4)
    from enmeas.tau import BatteryState

    st = BatteryState.from_json(data)
    assert st.dim == len(data["amplitudes"])


def test_povm_validate_and_degrade(tmp_path, capsys):
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(projective_qubit("x").to_json()))
    code, out, _ = run_cli(["povm", "validate", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["ok"]

    code, out, _ = run_cli(
        ["povm", "degrade", "--file", str(path), "--tau", "0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    m = Povm.from_json(data)
    assert m.elements[0][0, 1] == pytest.approx(0.25)


def test_povm_validate_invalid_exits_1(tmp_path, capsys):
    bad = {"dim": 2, "elements": {"a": matrix_to_json(0.4 * np.eye(2)),
                                  "b": matrix_to_json(0.4 * np.eye(2))}}
    path = tmp_path / "bad_povm.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(["povm", "validate", "--file", str(path)], capsys)
    assert code == 1
    assert not json.loads(out)["ok"]


def test_povm_decompose(tmp_path, capsys):
    # the z projectors are the energy projectors: each level reads its own
    # outcome; the x projectors need a battery, and the error names why
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps([0.0, 1.0]))
    path = tmp_path / "z.json"
    path.write_text(json.dumps(projective_qubit("z").to_json()))
    code, out, _ = run_cli(["povm", "decompose", "--file", str(path),
                            "--levels", str(levels)], capsys)
    assert code == 0
    assert json.loads(out) == {"levels": [0.0, 1.0],
                               "distributions": {"+": [1.0, 0.0], "-": [0.0, 1.0]}}
    path.write_text(json.dumps(projective_qubit("x").to_json()))
    code, out, err = run_cli(["povm", "decompose", "--file", str(path),
                              "--levels", str(levels)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: element + does not commute")
    assert "||[M_x, H]|| = 5.000e-01" in err


def test_spectrum_chains(tmp_path, capsys):
    # the whole JSON text: the tolerance, the chains by nu and the near misses
    path = tmp_path / "spec.json"
    tol = 3.0000000000000004e-09  # energy_tol(levels, (0, 1)), 1e-9 times the spread 3
    for levels, chains, near in (
            ([0.0, 0.5, 1.0, 1.5, 3.0], [(0.0, [0, 2]), (0.5, [1, 3]), (3.0, [4])], []),
            ([0.0, 1.0 + 5e-9, 3.0], [(0.0, [0]), (1.0 + 5e-9, [1]), (3.0, [2])],
             [{"low_id": 0, "high_id": 1, "gap_mismatch": 4.999999969612645e-09}])):
        path.write_text(json.dumps({"delta": 1.0, "levels": levels}))
        code, out, _ = run_cli(["spectrum", "chains", "--file", str(path)], capsys)
        assert code == 0
        assert out == json.dumps({
            "delta": 1.0,
            "levels": levels,
            "grouping_tol": tol,
            "chains": [{"nu": nu, "length": len(ids), "level_ids": ids} for nu, ids in chains],
            "near_misses": near,
        }, indent=2) + "\n"


def test_spectrum_chains_gap_within_tolerance_exits_1(tmp_path, capsys):
    # delta = 1 against a spread of 2e10: the tolerance is 20, so the qubit
    # (0, delta) is degenerate, for the chains as for the joint sectors
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"delta": 1.0, "levels": [0.0, 1e10, 2e10]}))
    code, out, err = run_cli(["spectrum", "chains", "--file", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: degenerate target spectrum: levels 0 and 1 ")


def test_spectrum_joint(tmp_path, capsys):
    # the whole JSON text: each sector's energy is its lowest sum, its pairs
    # (target, battery) levels by ascending target level
    path = tmp_path / "joint.json"
    r2 = math.sqrt(2.0)
    for battery, sectors in (
            ([0.0, 1.0, 2.0], [(0.0, [[0, 0]]), (1.0, [[0, 1], [1, 0]]),
                               (2.0, [[0, 2], [1, 1]]), (3.0, [[1, 2]])]),
            ([0.0, r2], [(0.0, [[0, 0]]), (1.0, [[1, 0]]), (r2, [[0, 1]]),
                         (1.0 + r2, [[1, 1]])])):
        path.write_text(json.dumps({"target_levels": [0, 1], "battery_levels": battery}))
        code, out, _ = run_cli(["spectrum", "joint", "--file", str(path)], capsys)
        assert code == 0
        assert out == json.dumps({
            "target_levels": [0.0, 1.0],
            "battery_levels": battery,
            "sectors": [{"energy": e, "rank": len(pairs), "pairs": pairs}
                        for e, pairs in sectors],
        }, indent=2) + "\n"
    # a nested list of levels is a usage error, not a traceback
    path.write_text(json.dumps({"target_levels": [[0, 1]], "battery_levels": [0, 1]}))
    code, _, err = run_cli(["spectrum", "joint", "--file", str(path)], capsys)
    assert code == 1 and "non-empty 1-d" in err


def test_tau_state_command(tmp_path, capsys):
    st = optimal_finite_state(3)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(st.to_json()))
    code, out, _ = run_cli(
        ["tau", "state", "--file", str(path), "--delta", "1.0"], capsys)
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(math.cos(math.pi / 4), abs=1e-10)


def test_near_miss_warning_is_the_same_in_every_command(tmp_path, capsys):
    # 1 + 5e-9 misses the gap 1 by more than the grouping tolerance 3e-9
    # and by less than 10x it
    levels = [0.0, 1.0 + 5e-9, 3.0]
    state = tmp_path / "state.json"
    state.write_text(json.dumps(optimal_finite_state(3).to_json() | {"levels": levels}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"delta": 1.0, "levels": levels}))
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps(projective_qubit("x").to_json()))
    errs = []
    for args in (["tau", "state", "--file", str(state), "--delta", "1"],
                 ["spectrum", "chains", "--file", str(spec)],
                 ["povm", "effective", "--file", str(povm), "--state", str(state), "--delta", "1"]):
        code, _, err = run_cli(args, capsys)
        assert code == 0
        errs.append(err)
    assert errs[0].startswith("warning: 1 level pair(s) miss the gap delta")
    assert errs[1] == errs[0] and errs[2] == errs[0]


def test_tau_gaussian(capsys):
    code, out, _ = run_cli(
        ["tau", "gaussian", "--sigma", "1.0", "--delta", "1.0"], capsys)
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(math.exp(-1 / 8), abs=1e-6)


def test_tau_sweep_csv(capsys):
    code, out, _ = run_cli(
        ["tau", "coherent", "--sweep-min", "1", "--sweep-max", "5",
         "--sweep-steps", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["parameter"] for r in rows] == ["1", "3", "5"]
    from enmeas.tau import epsilon_from_tau, tau_coherent

    for r in rows:
        assert float(r["tau"]) == pytest.approx(tau_coherent(float(r["parameter"])))
        assert float(r["epsilon"]) == pytest.approx(
            epsilon_from_tau(float(r["tau"])), abs=1e-15)


def test_tau_finite_sweep_json(capsys):
    code, out, _ = run_cli(
        ["tau", "finite", "--sweep-min", "1", "--sweep-max", "4", "--sweep-steps", "4"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["parameter"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert isinstance(r["parameter"], int)
        assert r["tau"] == pytest.approx(math.cos(math.pi / (r["parameter"] + 1)), abs=1e-12)


def test_tau_gaussian_sweep_csv(capsys):
    code, out, _ = run_cli(
        ["tau", "gaussian", "--delta", "1.0", "--sweep-min", "0.5", "--sweep-max", "1.5",
         "--sweep-steps", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["parameter"] for r in rows] == ["0.5", "1", "1.5"]
    for r in rows:
        # the swept value is the Gaussian's variance v: tau = exp(-delta^2 / (8 v))
        assert float(r["tau"]) == pytest.approx(math.exp(-1 / (8 * float(r["parameter"]))),
                                                abs=1e-6)


def test_distance_cli(tmp_path, capsys):
    p0 = tmp_path / "m0.json"
    p1 = tmp_path / "m1.json"
    p0.write_text(json.dumps(projective_qubit("z").to_json()))
    p1.write_text(json.dumps(projective_qubit("x").to_json()))
    code, out, _ = run_cli(
        ["distance", "classical", "--m0", str(p0), "--m1", str(p1)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    code, out, _ = run_cli(
        ["distance", "quantum", "--m0", str(p0), "--m1", str(p1)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_quantum_distance_cli_matches_library(tmp_path, capsys):
    # the CLI solves the library's program at the library's tolerance, and
    # the POVMs and the value both round-trip exactly through JSON
    rng = np.random.default_rng(3)
    m0, m1 = (random_rank_one_povm(rng, 2, 3) for _ in range(2))
    p0, p1 = tmp_path / "m0.json", tmp_path / "m1.json"
    p0.write_text(json.dumps(m0.to_json()))
    p1.write_text(json.dumps(m1.to_json()))
    code, out, _ = run_cli(
        ["distance", "quantum", "--m0", str(p0), "--m1", str(p1)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == quantum_distance(m0, m1).value


def test_charact_cli(tmp_path, capsys):
    from enmeas.povm import degrade

    path = tmp_path / "m.json"
    path.write_text(json.dumps(degrade(projective_qubit("x"), 0.4).to_json()))
    code, out, _ = run_cli(
        ["charact", "finite", "--povm", str(path), "--d", "3"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "member"


def test_charact_multilevel_cli_nested_levels_exit_1(tmp_path, capsys):
    # a nested level list is an error line, not a traceback
    povm, target, battery = (tmp_path / f"{k}.json" for k in ("povm", "target", "battery"))
    povm.write_text(json.dumps(Povm(elements=[np.diag([1.0, 0.0, 0.5]),
                                              np.diag([0.0, 1.0, 0.5])]).to_json()))
    target.write_text(json.dumps([[0, 1], [1, 2]]))
    battery.write_text(json.dumps([0, 1, 2]))
    code, out, err = run_cli(["charact", "multilevel", "--povm", str(povm), "--target",
                              str(target), "--battery", str(battery)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "non-empty 1-d" in err


def test_charact_cli_non_member_carries_the_farkas_certificate(tmp_path, capsys):
    from enmeas.povm import degrade

    path = tmp_path / "m.json"
    path.write_text(json.dumps(degrade(projective_qubit("x"), 0.8).to_json()))
    code, out, _ = run_cli(["charact", "finite", "--povm", str(path), "--d", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "non_member"
    assert data["slack"] > 0
    assert set(data["certificate"]) == {"dual", "farkas_objective", "farkas_min_eig", "margin"}
    assert data["certificate"]["margin"] == data["slack"]


def test_charact_energy_cli_undecided_has_a_gap_and_no_certificate(tmp_path, capsys):
    from enmeas.povm import degrade

    path = tmp_path / "m.json"
    path.write_text(json.dumps(degrade(projective_qubit("x"), 0.88).to_json()))
    code, out, _ = run_cli(["charact", "energy", "--povm", str(path), "--ebar", "3",
                            "--delta", "1", "--d", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "undecided"
    assert data["gap_bound"] == pytest.approx(1.0)
    assert "certificate" not in data


def test_bell_chsh_cli(capsys):
    code, out, _ = run_cli(["bell", "chsh"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["chsh_value"] == pytest.approx(1 + 0.75 * math.sqrt(2), abs=1e-12)
    assert data["mixture_bound"] == pytest.approx(2.2071067811865475, abs=1e-12)


def test_bell_seesaw_deterministic(tmp_path, capsys):
    rho = np.zeros((4, 4), complex)
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"rho": matrix_to_json(rho), "dims": [2, 2]}))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["bell", "seesaw", "--state", str(path), "--restarts", "5",
             "--seed", "7"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]  # fixed seed, bit-identical output


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_bell_seesaw_without_a_start_exits_1(tmp_path, capsys, restarts):
    # with no start there is no value: an error, not a -Infinity that is not JSON
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"rho": matrix_to_json(np.eye(4) / 4), "dims": [2, 2]}))
    code, out, err = run_cli(["bell", "seesaw", "--state", str(path),
                              "--restarts", restarts], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: restarts must be >= 1")


def test_json_output_refuses_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json({"value": bad}, None)


def test_tau_resonance(capsys):
    # the default clock is a Gaussian of variance 4e-4 at 50, far from the
    # gap 1, so tau = |c0 c1| exp(-eps^2 / (8 var)): the overlap of the
    # clock with its copy shifted by eps
    def closed_form(eps):
        return 0.5 * math.exp(-eps ** 2 / (8 * 4e-4))

    code, out, _ = run_cli(["tau", "resonance", "--eps", "1e-3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["eps"] == 1e-3
    assert data["tau"] == pytest.approx(closed_form(1e-3), abs=1e-12)
    assert data["epsilon"] == pytest.approx((1 - data["tau"]) / 2, abs=1e-15)
    code, out, _ = run_cli(["tau", "resonance", "--sweep-min", "0", "--sweep-max", "0.01",
                            "--sweep-steps", "3"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["parameter"] for r in rows] == [0.0, 0.005, 0.01]
    for r in rows:
        assert r["tau"] == pytest.approx(closed_form(r["parameter"]), abs=1e-12)


def test_charact_universal(tmp_path, capsys):
    # the optimal d = 3 state is not universal: a reachable POVM that its
    # populations cannot produce turns up at the first trial
    state = tmp_path / "state.json"
    state.write_text(json.dumps(optimal_finite_state(3).to_json()))
    code, out, _ = run_cli(["charact", "universal", "--state", str(state), "--d", "3",
                            "--trials", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["trial"] == 0
    assert data["fixed_margin"] > 10 * 1e-7
    assert validate(Povm.from_json(data["counterexample"]), tol=1e-6).ok
    code, out, err = run_cli(["charact", "universal", "--state", str(state), "--d", "2",
                              "--trials", "4"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: state must live on d ladder levels\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_charact_universal_without_a_trial_exits_1(tmp_path, capsys, trials):
    # no trial is no search: an error, not {"counterexample": null}
    state = tmp_path / "state.json"
    state.write_text(json.dumps(optimal_finite_state(3).to_json()))
    code, out, err = run_cli(["charact", "universal", "--state", str(state), "--d", "3",
                              "--trials", trials], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("scale", [0.4, 0.6], ids=["sub", "over"])
def test_povm_effective_of_an_incomplete_povm_exits_1(tmp_path, capsys, scale):
    # the constant blocks of a POVM summing to 2 * scale * I miss every
    # sector's identity by 0.2: no apparatus, and no invented outcome
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"dim": 2, "elements": {
        "a": matrix_to_json(scale * np.eye(2)), "b": matrix_to_json(scale * np.eye(2))}}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(optimal_finite_state(3).to_json() | {"levels": [0.0, 1.0, 2.0]}))
    code, out, err = run_cli(["povm", "effective", "--file", str(path), "--state", str(state),
                              "--delta", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: sector 0: the blocks miss the identity by 2.000e-01\n"
    path.write_text(json.dumps(projective_qubit("x").to_json()))
    code, out, _ = run_cli(["povm", "effective", "--file", str(path), "--state", str(state),
                            "--delta", "1"], capsys)
    assert code == 0
    assert validate(Povm.from_json(json.loads(out))).ok


def test_charact_dump_sdp(tmp_path, capsys):
    from enmeas.povm import degrade

    path = tmp_path / "m.json"
    path.write_text(json.dumps(degrade(projective_qubit("x"), 0.4).to_json()))
    dump = tmp_path / "program.json"
    code, _, _ = run_cli(
        ["charact", "finite", "--povm", str(path), "--d", "2",
         "--dump-sdp", str(dump)], capsys)
    assert code == 0
    prog = json.loads(dump.read_text())
    assert prog["block_dims"]
    assert prog["equalities"]


def test_reproduce_single_check(capsys):
    code, out, _ = run_cli(["reproduce", "chsh-value"], capsys)
    assert code == 0
    assert "PASS" in out


def test_reproduce_out_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    code, out, _ = run_cli(["reproduce", "chsh-value", "--out", str(path)], capsys)
    assert code == 0
    assert "PASS" in out  # the table still goes to stdout
    records = json.loads(path.read_text())
    assert len(records) == 1
    assert records[0]["name"] == "chsh-value"
    assert records[0]["passed"] is True


def test_reproduce_records_a_raising_check_and_runs_the_rest(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("no verdict")

    monkeypatch.setattr(reproduce.bell, "chsh_value", boom)
    path = tmp_path / "f.json"
    names = ["chsh-value", "coherent-approx", "chsh-mixture-bound"]
    code, out, _ = run_cli(["reproduce", *names, "--out", str(path)], capsys)
    assert code == 1
    rows = [line for line in out.splitlines() if line.startswith("[")]
    assert [row.split()[1] for row in rows] == names
    records = json.loads(path.read_text())
    assert [r["name"] for r in records] == names
    assert [r["passed"] for r in records] == [False, True, True]
    assert records[0]["got"] == repr("RuntimeError: no verdict")
    assert "RuntimeError: no verdict" in records[0]["detail"]


def test_reproduce_requires_selection(capsys):
    code, _, err = run_cli(["reproduce"], capsys)
    assert code == 2


def test_reproduce_unknown_check_exits_2(capsys):
    # a usage error, caught before any check runs
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "chsh-value", "nosuch"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "unknown check 'nosuch'" in err
    assert "PASS" not in out


def test_reproduce_out_file_serializes_numpy_values(tmp_path, capsys):
    # power-state's pass flag is a numpy bool
    path = tmp_path / "f.json"
    code, _, _ = run_cli(["reproduce", "power-state", "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())[0]["passed"] is True


def test_readme_cli_block_parses():
    # each command of the README's CLI block, less its comment, redirect and
    # [optional] parts, is accepted by the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("enmeas ")]
    assert len(lines) == 24
    for line in lines:
        words = re.sub(r"\[[^]]*\]", "", line.split("#")[0].split(">")[0]).split()
        build_parser().parse_args(words[1:])
