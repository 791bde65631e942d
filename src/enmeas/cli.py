"""Command-line frontend: JSON/CSV I/O, sweeps, and the reproduction suite.

Exit codes: 0 success, 1 domain(data/convergence) error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import bell, bessel, charact, distances, povm as povm_mod, spectra, tau as tau_mod
from .linalg import hermitian_from_json, matrix_to_json
from .povm import Povm, degrade
from .reproduce import CHECK_NAMES, run_check
from .tau import BatteryState, EnergyDensity


def _write_json(payload, out):
    """Write payload as indented JSON to the file out, or to stdout; a nan
    or inf is not JSON and raises."""
    text = json.dumps(payload, indent=2, default=_json_default, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_to_json(obj) if obj.ndim == 2 else [
                [float(z.real), float(z.imag)] for z in obj
            ]
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit_rows(args, header, rows) -> int:
    """Write rows as JSON records keyed by header, or as CSV with --format csv."""
    if args.format == "json":
        _write_json([dict(zip(header, r)) for r in rows], args.out)
        return 0
    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(stream)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    finally:
        if args.out:
            stream.close()
    return 0


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_povm(path) -> Povm:
    return Povm.from_json(_load_json(path))


def _load_state(path) -> BatteryState:
    return BatteryState.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _chains(levels, delta) -> spectra.ChainDecomposition:
    """The chains of levels at gap delta, with a warning on stderr when
    level pairs miss delta by less than 10x the grouping tolerance."""
    chains = spectra.decompose_chains(levels, delta)
    if chains.near_misses:
        print(f"warning: {len(chains.near_misses)} level pair(s) miss the gap delta by less "
              f"than 10x the grouping tolerance: {chains.near_misses}", file=sys.stderr)
    return chains


def _tau(args, fn, name, param=float, **fixed) -> int:
    """tau and epsilon of fn at --<name>, or one row per point of the --sweep-* grid."""
    if args.sweep_min is not None:
        rows = []
        for v in map(param, np.linspace(args.sweep_min, args.sweep_max, args.sweep_steps)):
            t = float(fn(v))
            rows.append((v, t, tau_mod.epsilon_from_tau(t)))
        return _emit_rows(args, ("parameter", "tau", "epsilon"), rows)
    v = getattr(args, name)
    t = fn(v)
    _write_json({name: v, **fixed, "tau": t, "epsilon": tau_mod.epsilon_from_tau(t)}, args.out)
    return 0


def _cmd_tau_finite(args):
    return _tau(args, tau_mod.tau_finite, "d", lambda v: int(round(v)))


def _cmd_tau_coherent(args):
    return _tau(args, tau_mod.tau_coherent, "alpha_sq")


def _cmd_tau_gaussian(args):
    fn = lambda s: tau_mod.tau_continuous(EnergyDensity.gaussian(0.0, s), args.delta)
    return _tau(args, fn, "sigma", delta=args.delta)


def _cmd_tau_resonance(args):
    c0 = complex(args.c0)
    c1 = complex(args.c1)
    clock = EnergyDensity.gaussian(args.clock_mean, args.clock_variance)
    return _tau(args, lambda e: tau_mod.tau_near_resonant(c0, c1, e, clock, args.delta), "eps")


def _cmd_tau_state(args):
    state = _load_state(args.file)
    if state.levels is None:
        raise ValueError("state file must carry levels to build chains")
    chains = _chains(state.levels, args.delta)
    res = tau_mod.tau_of_state(state, chains)
    _write_json({"tau": res.tau, "epsilon": res.epsilon, "chains": chains.to_json()}, args.out)
    return 0


def _cmd_phi(args):
    r = bessel.phi(args.z)
    _write_json({"z": r.z, "phi": r.phi, "lambda_star": r.lambda_star,
                 "mu_star": r.mu_star, "energy_check": r.energy_check,
                 "epsilon": tau_mod.epsilon_from_tau(r.phi)}, args.out)
    return 0


def _cmd_phi_sweep(args):
    rows = []
    for z in np.linspace(args.zmin, args.zmax, args.steps):
        r = bessel.phi(float(z))
        rows.append((r.z, r.phi, r.lambda_star, r.mu_star))
    return _emit_rows(args, ("z", "phi", "lambda_star", "mu_star"), rows)


def _cmd_power_state(args):
    st = bessel.power_state(args.ebar, args.delta)
    payload = st.to_json()
    chains = _chains(st.levels, args.delta)
    res = tau_mod.tau_of_state(st, chains)
    payload["tau"] = res.tau
    payload["mean_energy"] = st.mean_energy()
    _write_json(payload, args.out)
    return 0


def _cmd_povm_validate(args):
    diag = povm_mod.validate(_load_povm(args.file))
    _write_json({"ok": diag.ok, "completeness_residual": diag.completeness_residual,
                 "min_eigenvalues": {str(k): v for k, v in diag.min_eigenvalues.items()},
                 "messages": list(diag.messages)}, args.out)
    return 0 if diag.ok else 1


def _cmd_povm_degrade(args):
    _write_json(degrade(_load_povm(args.file), args.tau).to_json(), args.out)
    return 0


def _cmd_povm_decompose(args):
    p = _load_povm(args.file)
    levels = _load_json(args.levels)
    table = povm_mod.batteryless_decomposition(p, levels)
    _write_json({"levels": levels,
                 "distributions": {str(l): row for l, row in zip(p.labels, table)}}, args.out)
    return 0


def _cmd_povm_effective(args):
    p = _load_povm(args.file)
    state = _load_state(args.state)
    if state.levels is None:
        raise ValueError("battery state file must carry levels")
    chains = _chains(state.levels, args.delta)
    phys = povm_mod.constant_blocks(p, chains)
    _write_json(povm_mod.effective_povm(phys, state).to_json(), args.out)
    return 0


def _cmd_distance(args, distance):
    r = distance(_load_povm(args.m0), _load_povm(args.m1))
    payload = {"value": r.value, "method": r.method}
    if "rho" in r.witness:
        payload["witness_state"] = r.witness["rho"]
    _write_json(payload, args.out)
    return 0


def _emit_verdict(args, v) -> int:
    payload = {"verdict": v.verdict, "slack": v.slack, "gap_bound": v.gap_bound}
    cert = v.certificate
    if v.verdict == "member":
        payload["certificate"] = {"p": cert["p"], "reconstruction": cert["reconstruction"],
                                  "blocks": cert["blocks"]}
    elif v.verdict == "non_member":
        payload["certificate"] = {"dual": cert["dual"],
                                  "farkas_objective": cert["dual_objective"],
                                  "farkas_min_eig": cert["dual_min_eig"],
                                  "margin": cert["margin"]}
    _write_json(payload, args.out)
    return 0


def _cmd_charact_finite(args):
    m = _load_povm(args.povm)
    if args.dump_sdp:
        _write_json(charact.finite_membership_program(m, args.d).to_json(), args.dump_sdp)
    return _emit_verdict(args, charact.membership_finite(m, args.d))


def _cmd_charact_energy(args):
    m = _load_povm(args.povm)
    return _emit_verdict(args, charact.membership_energy(m, args.ebar, args.delta, args.d))


def _cmd_charact_multilevel(args):
    return _emit_verdict(args, charact.membership_multilevel(
        _load_povm(args.povm), _load_json(args.target), _load_json(args.battery)))


def _cmd_charact_universal(args):
    res = charact.universal_state_check(_load_state(args.state), args.d,
                                        trials=args.trials, seed=args.seed)
    if res is None:
        payload = {"counterexample": None, "trials": args.trials}
    else:
        payload = {"counterexample": res["povm"].to_json(), "trial": res["trial"],
                   "member_slack": res["member_slack"], "fixed_margin": res["fixed_margin"]}
    _write_json(payload, args.out)
    return 0


def _cmd_bell_chsh(args):
    _write_json({
        "chsh_value": bell.chsh_value(bell.reference_scenario()),
        "expected_chsh": 1.0 + 0.75 * math.sqrt(2.0),
        "mixture_bound": bell.chsh_mixture_bound(),
        "expected_mixture_bound": 6.0 / 8.0 * 2.0 + 2.0 / 8.0 * 2.0 * math.sqrt(2.0),
        "tsirelson": 2.0 * math.sqrt(2.0),
    }, args.out)
    return 0


def _cmd_bell_seesaw(args):
    data = _load_json(args.state)
    rho = hermitian_from_json(data["rho"])
    dims = tuple(data.get("dims", (int(round(math.sqrt(rho.shape[0]))),) * 2))
    val, _ = bell.optimize_chsh_seesaw(rho, dims, restarts=args.restarts, seed=args.seed)
    _write_json({"value": val, "restarts": args.restarts}, args.out)
    return 0


def _cmd_spectrum_chains(args):
    data = _load_json(args.file)
    _write_json(_chains(data["levels"], data["delta"]).to_json(), args.out)
    return 0


def _cmd_spectrum_joint(args):
    data = _load_json(args.file)
    levels = [data[k] for k in ("target_levels", "battery_levels")]
    sectors = spectra.joint_sectors(*levels)
    et, eb = (np.asarray(x, dtype=float).tolist() for x in levels)
    pairs = [[(m, n) for m, (n,) in zip(rows, feeds)] for rows, feeds in sectors]
    _write_json({"target_levels": et, "battery_levels": eb, "sectors": [
        {"energy": min(et[m] + eb[n] for m, n in ps), "rank": len(ps), "pairs": ps}
        for ps in pairs]}, args.out)
    return 0


def _check_name(name: str) -> str:
    """An argparse type: a check name, or a usage error."""
    if name not in CHECK_NAMES:
        raise argparse.ArgumentTypeError(f"unknown check {name!r}")
    return name


def _cmd_reproduce(args):
    names = CHECK_NAMES if args.all else args.checks
    if not names:
        print("nothing to do: pass --all or check names", file=sys.stderr)
        return 2
    results = []
    for name in names:
        r = run_check(name)
        results.append(r)
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name:28s} {r.seconds:7.2f}s  got={r.got!r}")
        if not r.passed and r.detail:
            print(f"       note: {r.detail}")
    if args.out:
        _write_json([r.to_json() for r in results], args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _leaf(sub, name, fn, **kw) -> argparse.ArgumentParser:
    """A subcommand whose handler is fn."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(fn=fn)
    return p


def _add_io(p, formats=()):
    """--out, and --format among formats if given; the first is the default."""
    p.add_argument("--out", help="write output to a file instead of stdout")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _add_sweep(p):
    """The --sweep-* grid, which replaces the single point and can be CSV."""
    p.add_argument("--sweep-min", type=float)
    p.add_argument("--sweep-max", type=float)
    p.add_argument("--sweep-steps", type=int, default=20)
    _add_io(p, ("json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="enmeas",
        description="Energy-constrained quantum measurement toolkit",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser(
        "tau", help="battery quality factor tau",
        epilog="sweeps (--sweep-min and --sweep-max together, --sweep-steps) "
               "emit columns: parameter, tau, epsilon; --format csv needs a sweep")
    tau_sub = p.add_subparsers(dest="tau_cmd", required=True)
    t = _leaf(tau_sub, "finite", _cmd_tau_finite, help="tau of the best d-level battery")
    t.add_argument("--d", type=int, required=False, default=2)
    _add_sweep(t)
    t = _leaf(tau_sub, "coherent", _cmd_tau_coherent, help="tau of a coherent state")
    t.add_argument("--alpha-sq", type=float, default=1.0)
    _add_sweep(t)
    t = _leaf(tau_sub, "state", _cmd_tau_state, help="tau of a battery state file")
    t.add_argument("--file", required=True)
    t.add_argument("--delta", type=float, required=True)
    _add_io(t)
    t = _leaf(tau_sub, "gaussian", _cmd_tau_gaussian, help="tau of a Gaussian energy density")
    t.add_argument("--sigma", type=float, default=1.0, help="variance of the density")
    t.add_argument("--delta", type=float, required=True)
    _add_sweep(t)
    t = _leaf(tau_sub, "resonance", _cmd_tau_resonance,
              help="tau of a detuned two-level battery + clock")
    t.add_argument("--eps", type=float, default=0.0)
    t.add_argument("--c0", default="0.70710678118654752")
    t.add_argument("--c1", default="0.70710678118654752")
    t.add_argument("--delta", type=float, default=1.0)
    t.add_argument("--clock-mean", type=float, default=50.0)
    t.add_argument("--clock-variance", type=float, default=4e-4)
    _add_sweep(t)

    p = _leaf(sub, "phi", _cmd_phi, help="best tau at bounded mean energy")
    p.add_argument("--z", type=float, required=True, help="mean energy over gap")
    _add_io(p)

    p = _leaf(sub, "phi-sweep", _cmd_phi_sweep, help="CSV sweep of phi over z",
              epilog="CSV columns: z, phi, lambda_star, mu_star")
    p.add_argument("--zmin", type=float, required=True)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    _add_io(p, ("csv", "json"))

    p = _leaf(sub, "power-state", _cmd_power_state, help="bounded-energy state maximizing tau")
    p.add_argument("--ebar", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.0)
    _add_io(p)

    p = sub.add_parser("povm", help="POVM utilities")
    povm_sub = p.add_subparsers(dest="povm_cmd", required=True)
    t = _leaf(povm_sub, "validate", _cmd_povm_validate)
    t.add_argument("--file", required=True)
    _add_io(t)
    t = _leaf(povm_sub, "degrade", _cmd_povm_degrade)
    t.add_argument("--file", required=True)
    t.add_argument("--tau", type=float, required=True)
    _add_io(t)
    t = _leaf(povm_sub, "decompose", _cmd_povm_decompose,
              help="battery-less outcome distributions")
    t.add_argument("--file", required=True)
    t.add_argument("--levels", required=True, help="JSON list of target levels")
    _add_io(t)
    t = _leaf(povm_sub, "effective", _cmd_povm_effective,
              help="effective POVM of constant blocks")
    t.add_argument("--file", required=True)
    t.add_argument("--state", required=True)
    t.add_argument("--delta", type=float, required=True)
    _add_io(t)

    p = sub.add_parser("distance", help="distances between POVMs")
    dist_sub = p.add_subparsers(dest="dist_cmd", required=True)
    for name, distance in (("classical", distances.classical_distance),
                           ("quantum", distances.quantum_distance)):
        t = _leaf(dist_sub, name, functools.partial(_cmd_distance, distance=distance))
        t.add_argument("--m0", required=True)
        t.add_argument("--m1", required=True)
        _add_io(t)

    p = sub.add_parser("charact", help="membership in reachable POVM sets")
    ch_sub = p.add_subparsers(dest="charact_cmd", required=True)
    t = _leaf(ch_sub, "finite", _cmd_charact_finite)
    t.add_argument("--povm", required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--dump-sdp", help="write the assembled block SDP as JSON")
    _add_io(t)
    t = _leaf(ch_sub, "energy", _cmd_charact_energy)
    t.add_argument("--povm", required=True)
    t.add_argument("--ebar", type=float, required=True)
    t.add_argument("--delta", type=float, default=1.0)
    t.add_argument("--d", type=int, required=True)
    _add_io(t)
    t = _leaf(ch_sub, "multilevel", _cmd_charact_multilevel)
    t.add_argument("--povm", required=True)
    t.add_argument("--target", required=True, help="JSON list of target levels")
    t.add_argument("--battery", required=True, help="JSON list of battery levels")
    _add_io(t)
    t = _leaf(ch_sub, "universal", _cmd_charact_universal)
    t.add_argument("--state", required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--trials", type=int, default=60)
    t.add_argument("--seed", type=int, default=0)
    _add_io(t)

    p = sub.add_parser("bell", help="CHSH analysis")
    bell_sub = p.add_subparsers(dest="bell_cmd", required=True)
    t = _leaf(bell_sub, "chsh", _cmd_bell_chsh, help="print the reference CHSH numbers")
    _add_io(t)
    t = _leaf(bell_sub, "seesaw", _cmd_bell_seesaw)
    t.add_argument("--state", required=True, help='JSON {"rho": matrix, "dims": [dA,dB]}')
    t.add_argument("--restarts", type=int, default=20)
    t.add_argument("--seed", type=int, default=0)
    _add_io(t)

    p = sub.add_parser("spectrum", help="chain / joint eigenspace structure")
    spec_sub = p.add_subparsers(dest="spectrum_cmd", required=True)
    t = _leaf(spec_sub, "chains", _cmd_spectrum_chains)
    t.add_argument("--file", required=True,
                   help='path of a JSON file {"delta": x, "levels": [...]}')
    _add_io(t)
    t = _leaf(spec_sub, "joint", _cmd_spectrum_joint)
    t.add_argument("--file", required=True,
                   help='path of a JSON file {"target_levels": [...], "battery_levels": [...]}')
    _add_io(t)

    p = _leaf(sub, "reproduce", _cmd_reproduce, help="run the reproduction checks")
    p.add_argument("--all", action="store_true")
    p.add_argument("checks", nargs="*", type=_check_name,
                   help=f"subset of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--out", help="write JSON results to a file")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if "sweep_min" in args:
        if (args.sweep_min is None) != (args.sweep_max is None):
            ap.error("--sweep-min and --sweep-max go together")
        if args.sweep_min is None and args.format == "csv":
            ap.error("--format csv needs a sweep (--sweep-min and --sweep-max)")
    for steps in ("sweep_steps", "steps"):
        if getattr(args, steps, 0) < 0:
            ap.error(f"--{steps.replace('_', '-')} must be non-negative")
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
