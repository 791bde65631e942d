"""Command-line frontend: JSON/CSV I/O, sweeps, and the reproduction suite.

Exit codes: 0 success, 1 domain(data/convergence) error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import bell, bessel, charact, distances, povm as povm_mod, spectra, tau as tau_mod
from .linalg import hermitian_from_json, matrix_to_json
from .povm import Povm, degrade
from .reproduce import run_checks, CHECK_NAMES
from .tau import BatteryState, EnergyDensity


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write JSON (default) or CSV rows to --out / stdout."""
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if csv_rows is None:
            raise ValueError("this subcommand has no CSV form")
        stream = open(out, "w", newline="") if out else sys.stdout
        try:
            w = csv.writer(stream)
            if csv_header:
                w.writerow(csv_header)
            for row in csv_rows:
                w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
        finally:
            if out:
                stream.close()
    else:
        _write_json(payload, out)


def _write_json(payload, out):
    """Write payload as indented JSON to the file out, or to stdout."""
    text = json.dumps(payload, indent=2, default=_json_default)
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


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_povm(path) -> Povm:
    return Povm.from_json(_load_json(path))


def _load_state(path) -> BatteryState:
    return BatteryState.from_json(_load_json(path))


def _sweep_values(args):
    return np.linspace(args.sweep_min, args.sweep_max, args.sweep_steps)


def _add_sweep(p):
    p.add_argument("--sweep-min", type=float)
    p.add_argument("--sweep-max", type=float)
    p.add_argument("--sweep-steps", type=int, default=20)


def _add_io(p):
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _emit_sweep(args, fn, param=float) -> int:
    """Emit (parameter, tau, epsilon) of fn over the --sweep-* grid."""
    rows = []
    for v in map(param, _sweep_values(args)):
        t = float(fn(v))
        rows.append((v, t, tau_mod.epsilon_from_tau(t)))
    header = ("parameter", "tau", "epsilon")
    _emit(args, [dict(zip(header, r)) for r in rows], csv_rows=rows, csv_header=header)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_tau(args):
    if args.tau_cmd == "finite":
        if args.sweep_min is not None:
            return _emit_sweep(args, tau_mod.tau_finite, lambda v: int(round(v)))
        t = tau_mod.tau_finite(args.d)
        _emit(args, {"d": args.d, "tau": t, "epsilon": tau_mod.epsilon_from_tau(t)})
    elif args.tau_cmd == "coherent":
        if args.sweep_min is not None:
            return _emit_sweep(args, tau_mod.tau_coherent)
        t = tau_mod.tau_coherent(args.alpha_sq)
        _emit(args, {"alpha_sq": args.alpha_sq, "tau": t,
                     "epsilon": tau_mod.epsilon_from_tau(t)})
    elif args.tau_cmd == "state":
        state = _load_state(args.file)
        if state.levels is None:
            raise ValueError("state file must carry levels to build chains")
        chains = spectra.decompose_chains(state.levels, args.delta)
        if chains.near_misses:
            print(
                f"warning: {len(chains.near_misses)} level pair(s) miss the gap "
                f"delta by less than 10x the grouping tolerance: {chains.near_misses}",
                file=sys.stderr,
            )
        res = tau_mod.tau_of_state(state, chains)
        _emit(args, {"tau": res.tau, "epsilon": res.epsilon,
                     "chains": chains.to_json()})
    elif args.tau_cmd == "gaussian":
        fn = lambda s: tau_mod.tau_continuous(EnergyDensity.gaussian(0.0, s), args.delta)
        if args.sweep_min is not None:
            return _emit_sweep(args, fn)
        t = fn(args.sigma)
        _emit(args, {"sigma": args.sigma, "delta": args.delta, "tau": t,
                     "epsilon": tau_mod.epsilon_from_tau(t)})
    elif args.tau_cmd == "resonance":
        c0 = complex(args.c0)
        c1 = complex(args.c1)
        clock = EnergyDensity.gaussian(args.clock_mean, args.clock_variance)
        fn = lambda e: tau_mod.tau_near_resonant(c0, c1, e, clock, args.delta)
        if args.sweep_min is not None:
            return _emit_sweep(args, fn)
        t = fn(args.eps)
        _emit(args, {"eps": args.eps, "tau": t, "epsilon": tau_mod.epsilon_from_tau(t)})
    return 0


def _cmd_phi(args):
    r = bessel.phi(args.z)
    _emit(args, {"z": r.z, "phi": r.phi, "lambda_star": r.lambda_star,
                 "mu_star": r.mu_star, "energy_check": r.energy_check,
                 "epsilon": tau_mod.epsilon_from_tau(r.phi)})
    return 0


def _cmd_phi_sweep(args):
    zs = np.linspace(args.zmin, args.zmax, args.steps)
    rows = []
    for z in zs:
        r = bessel.phi(float(z))
        rows.append((r.z, r.phi, r.lambda_star, r.mu_star))
    args.format = getattr(args, "format", "csv")
    _emit(args, [dict(zip(("z", "phi", "lambda_star", "mu_star"), r)) for r in rows],
          csv_rows=rows, csv_header=("z", "phi", "lambda_star", "mu_star"))
    return 0


def _cmd_power_state(args):
    st = bessel.power_state(args.ebar, args.delta)
    payload = st.to_json()
    chains = spectra.decompose_chains(st.levels, args.delta)
    res = tau_mod.tau_of_state(st, chains)
    payload["tau"] = res.tau
    payload["mean_energy"] = st.mean_energy()
    _write_json(payload, args.out)
    return 0


def _cmd_povm(args):
    if args.povm_cmd == "validate":
        p = _load_povm(args.file)
        diag = povm_mod.validate(p)
        _emit(args, {"ok": diag.ok, "completeness_residual": diag.completeness_residual,
                     "min_eigenvalues": {str(k): v for k, v in diag.min_eigenvalues.items()},
                     "messages": list(diag.messages)})
        return 0 if diag.ok else 1
    if args.povm_cmd == "degrade":
        p = _load_povm(args.file)
        out = degrade(p, args.tau)
        _emit(args, out.to_json())
        return 0
    if args.povm_cmd == "decompose":
        p = _load_povm(args.file)
        levels = _load_json(args.levels)
        table = povm_mod.batteryless_decomposition(p, levels)
        _emit(args, {"levels": levels,
                     "distributions": {str(l): row.tolist()
                                       for l, row in zip(p.labels, table)}})
        return 0
    if args.povm_cmd == "effective":
        p = _load_povm(args.file)
        state = _load_state(args.state)
        if state.levels is None:
            raise ValueError("battery state file must carry levels")
        chains = spectra.decompose_chains(state.levels, args.delta)
        phys = povm_mod.constant_blocks(p, chains)
        eff = povm_mod.effective_povm(phys, state, chains)
        _emit(args, eff.to_json())
        return 0
    raise ValueError(f"unknown povm subcommand {args.povm_cmd}")


def _cmd_distance(args):
    m0 = _load_povm(args.m0)
    m1 = _load_povm(args.m1)
    if args.dist_cmd == "classical":
        r = distances.classical_distance(m0, m1)
    else:
        r = distances.quantum_distance(m0, m1)
    payload = {"value": r.value, "method": r.method}
    if "rho" in r.witness:
        payload["witness_state"] = matrix_to_json(r.witness["rho"])
    _emit(args, payload)
    return 0


def _cmd_charact(args):
    if args.charact_cmd == "finite":
        m = _load_povm(args.povm)
        if getattr(args, "dump_sdp", None):
            _write_json(charact.finite_membership_program(m, args.d).to_json(), args.dump_sdp)
        v = charact.membership_finite(m, args.d)
    elif args.charact_cmd == "energy":
        v = charact.membership_energy(_load_povm(args.povm), args.ebar, args.delta, args.d)
    elif args.charact_cmd == "multilevel":
        v = charact.membership_multilevel(
            _load_povm(args.povm), _load_json(args.target), _load_json(args.battery))
    elif args.charact_cmd == "universal":
        res = charact.universal_state_check(_load_state(args.state), args.d,
                                            trials=args.trials, seed=args.seed)
        if res is None:
            _emit(args, {"counterexample": None, "trials": args.trials})
        else:
            _emit(args, {"counterexample": res["povm"].to_json(),
                         "trial": res["trial"],
                         "member_slack": res["member_slack"],
                         "fixed_margin": res["fixed_margin"]})
        return 0
    else:
        raise ValueError(f"unknown charact subcommand {args.charact_cmd}")
    payload = {"verdict": v.verdict, "slack": v.slack, "gap_bound": v.gap_bound}
    if v.verdict == "member":
        payload["certificate"] = {
            "p": v.certificate["p"],
            "reconstruction": [matrix_to_json(r) for r in v.certificate["reconstruction"]],
            "blocks": {str(k): [matrix_to_json(b) for b in per_x]
                       for k, per_x in v.certificate["blocks"].items()},
        }
    elif v.verdict == "non_member":
        payload["certificate"] = {
            "dual": list(map(float, v.certificate["dual"])),
            "farkas_objective": v.certificate["dual_objective"],
            "farkas_min_eig": v.certificate["dual_min_eig"],
            "margin": v.certificate["margin"],
        }
    _emit(args, payload)
    return 0


def _cmd_bell(args):
    if args.bell_cmd == "chsh":
        sc = bell.reference_scenario()
        payload = {
            "chsh_value": bell.chsh_value(sc),
            "expected_chsh": 1.0 + 0.75 * math.sqrt(2.0),
            "mixture_bound": bell.chsh_mixture_bound(),
            "expected_mixture_bound": 6.0 / 8.0 * 2.0 + 2.0 / 8.0 * 2.0 * math.sqrt(2.0),
            "tsirelson": 2.0 * math.sqrt(2.0),
        }
        _emit(args, payload)
        return 0
    if args.bell_cmd == "seesaw":
        data = _load_json(args.state)
        rho = hermitian_from_json(data["rho"])
        dims = tuple(data.get("dims", (int(round(math.sqrt(rho.shape[0]))),) * 2))
        val, _ = bell.optimize_chsh_seesaw(rho, dims, restarts=args.restarts,
                                           seed=args.seed)
        _emit(args, {"value": val, "restarts": args.restarts})
        return 0
    raise ValueError(f"unknown bell subcommand {args.bell_cmd}")


def _cmd_spectrum(args):
    data = _load_json(args.file)
    if args.spectrum_cmd == "chains":
        dec = spectra.decompose_chains(data["levels"], data["delta"])
        if dec.near_misses:
            print(
                f"warning: near-resonant level pairs within 10x grouping tolerance: "
                f"{[(a, b, g) for a, b, g in dec.near_misses]}",
                file=sys.stderr,
            )
        _emit(args, dec.to_json())
        return 0
    if args.spectrum_cmd == "joint":
        joint = spectra.joint_eigenspaces(data["target_levels"], data["battery_levels"])
        _emit(args, joint.to_json())
        return 0
    raise ValueError(f"unknown spectrum subcommand {args.spectrum_cmd}")


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
    results = run_checks(names, verbose=True)
    ok = all(r.passed for r in results)
    if args.out:
        _write_json([r.to_json() for r in results], args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="enmeas",
        description="Energy-constrained quantum measurement toolkit",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_tau = sub.add_parser(
        "tau", help="battery quality factor tau",
        epilog="sweeps (--sweep-min/--sweep-max/--sweep-steps with "
               "--format csv) emit columns: parameter, tau, epsilon")
    tau_sub = p_tau.add_subparsers(dest="tau_cmd", required=True)
    t = tau_sub.add_parser("finite", help="tau of the best d-level battery")
    t.add_argument("--d", type=int, required=False, default=2)
    _add_sweep(t)
    _add_io(t)
    t = tau_sub.add_parser("coherent", help="tau of a coherent state")
    t.add_argument("--alpha-sq", type=float, default=1.0)
    _add_sweep(t)
    _add_io(t)
    t = tau_sub.add_parser("state", help="tau of a battery state file")
    t.add_argument("--file", required=True)
    t.add_argument("--delta", type=float, required=True)
    _add_io(t)
    t = tau_sub.add_parser("gaussian", help="tau of a Gaussian energy density")
    t.add_argument("--sigma", type=float, default=1.0, help="variance of the density")
    t.add_argument("--delta", type=float, required=True)
    _add_sweep(t)
    _add_io(t)
    t = tau_sub.add_parser("resonance", help="tau of a detuned two-level battery + clock")
    t.add_argument("--eps", type=float, default=0.0)
    t.add_argument("--c0", default="0.70710678118654752")
    t.add_argument("--c1", default="0.70710678118654752")
    t.add_argument("--delta", type=float, default=1.0)
    t.add_argument("--clock-mean", type=float, default=50.0)
    t.add_argument("--clock-variance", type=float, default=4e-4)
    _add_sweep(t)
    _add_io(t)
    p_tau.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("phi", help="best tau at bounded mean energy")
    p.add_argument("--z", type=float, required=True, help="mean energy over gap")
    _add_io(p)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("phi-sweep", help="CSV sweep of phi over z",
                       epilog="CSV columns: z, phi, lambda_star, mu_star")
    p.add_argument("--zmin", type=float, required=True)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(fn=_cmd_phi_sweep)

    p = sub.add_parser("power-state", help="bounded-energy state maximizing tau")
    p.add_argument("--ebar", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_power_state)

    p_povm = sub.add_parser("povm", help="POVM utilities")
    povm_sub = p_povm.add_subparsers(dest="povm_cmd", required=True)
    t = povm_sub.add_parser("validate")
    t.add_argument("--file", required=True)
    _add_io(t)
    t = povm_sub.add_parser("degrade")
    t.add_argument("--file", required=True)
    t.add_argument("--tau", type=float, required=True)
    _add_io(t)
    t = povm_sub.add_parser("decompose", help="battery-less outcome distributions")
    t.add_argument("--file", required=True)
    t.add_argument("--levels", required=True, help="JSON list of target levels")
    _add_io(t)
    t = povm_sub.add_parser("effective", help="effective POVM of constant blocks")
    t.add_argument("--file", required=True)
    t.add_argument("--state", required=True)
    t.add_argument("--delta", type=float, required=True)
    _add_io(t)
    p_povm.set_defaults(fn=_cmd_povm)

    p_dist = sub.add_parser("distance", help="distances between POVMs")
    dist_sub = p_dist.add_subparsers(dest="dist_cmd", required=True)
    for name in ("classical", "quantum"):
        t = dist_sub.add_parser(name)
        t.add_argument("--m0", required=True)
        t.add_argument("--m1", required=True)
        _add_io(t)
    p_dist.set_defaults(fn=_cmd_distance)

    p_ch = sub.add_parser("charact", help="membership in reachable POVM sets")
    ch_sub = p_ch.add_subparsers(dest="charact_cmd", required=True)
    t = ch_sub.add_parser("finite")
    t.add_argument("--povm", required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--dump-sdp", help="write the assembled block SDP as JSON")
    _add_io(t)
    t = ch_sub.add_parser("energy")
    t.add_argument("--povm", required=True)
    t.add_argument("--ebar", type=float, required=True)
    t.add_argument("--delta", type=float, default=1.0)
    t.add_argument("--d", type=int, required=True)
    _add_io(t)
    t = ch_sub.add_parser("multilevel")
    t.add_argument("--povm", required=True)
    t.add_argument("--target", required=True, help="JSON list of target levels")
    t.add_argument("--battery", required=True, help="JSON list of battery levels")
    _add_io(t)
    t = ch_sub.add_parser("universal")
    t.add_argument("--state", required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--trials", type=int, default=60)
    t.add_argument("--seed", type=int, default=0)
    _add_io(t)
    p_ch.set_defaults(fn=_cmd_charact)

    p_bell = sub.add_parser("bell", help="CHSH analysis")
    bell_sub = p_bell.add_subparsers(dest="bell_cmd", required=True)
    t = bell_sub.add_parser("chsh", help="print the reference CHSH numbers")
    _add_io(t)
    t = bell_sub.add_parser("seesaw")
    t.add_argument("--state", required=True, help='JSON {"rho": matrix, "dims": [dA,dB]}')
    t.add_argument("--restarts", type=int, default=20)
    t.add_argument("--seed", type=int, default=0)
    _add_io(t)
    p_bell.set_defaults(fn=_cmd_bell)

    p_spec = sub.add_parser("spectrum", help="chain / joint eigenspace structure")
    spec_sub = p_spec.add_subparsers(dest="spectrum_cmd", required=True)
    t = spec_sub.add_parser("chains")
    t.add_argument("--file", required=True, help='JSON {"delta": x, "levels": [...]}')
    _add_io(t)
    t = spec_sub.add_parser("joint")
    t.add_argument("--file", required=True,
                   help='JSON {"target_levels": [...], "battery_levels": [...]}')
    _add_io(t)
    p_spec.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("reproduce", help="run the reproduction checks")
    p.add_argument("--all", action="store_true")
    p.add_argument("checks", nargs="*", type=_check_name,
                   help=f"subset of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--out", help="write JSON results to a file")
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
