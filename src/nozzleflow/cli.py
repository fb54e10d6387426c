"""Command-line interface.

Subcommands: constants, check, feasible, simulate, trace, verify.
Exit codes: 0 ok, 2 certification failed, 3 monitor violation, 4 blow-up,
64 usage, 65 malformed config or trajectory file (or an s(x) table that
misses its tolerance), 66 cannot open input (missing, a directory, or not
readable), 73 cannot create the output directory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .config import load_config
from .errors import ConfigError, DomainError, NozzleflowError, OutputError
from .harness import (EXIT_BLOWUP, EXIT_CANTCREAT, EXIT_CERT, EXIT_DATAERR,
                      EXIT_MONITOR, EXIT_NOINPUT, EXIT_OK, EXIT_USAGE)
from .model import GasLaw
from .region import critical_constants, find_constants


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nozzleflow",
                     description="solve and verify isentropic duct flow")
    parser.add_argument("--out", default="nozzleflow_out", help="output directory")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and unused: the pipeline is deterministic")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print l, sigma1, sigma2 for a gamma")
    p.add_argument("gamma")

    p = sub.add_parser("check", help="run the certification pipeline only")
    p.add_argument("config")

    p = sub.add_parser("feasible", help="search for admissible region constants")
    p.add_argument("gamma")
    p.add_argument("integral", type=float)
    p.add_argument("kind", choices=("m", "r", "l"))

    p = sub.add_parser("simulate", help="certify, run and verify a scenario")
    p.add_argument("config")
    p.add_argument("--force", action="store_true",
                   help="run even if certification fails (recorded)")

    p = sub.add_parser("trace", help="trace one characteristic through a run")
    p.add_argument("trajectory")
    p.add_argument("--family", type=int, choices=(1, 2), required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)

    p = sub.add_parser("verify", help="re-run the bound checks on a stored run")
    p.add_argument("trajectory")
    return parser


def _cmd_constants(args) -> int:
    law = GasLaw.from_gamma(args.gamma)
    consts = critical_constants(law)
    if args.format == "json":
        print(json.dumps({"gamma": law.gamma, "l": consts.l,
                          "sigma1": consts.sigma1, "sigma2": consts.sigma2},
                         sort_keys=True))
    elif args.format == "csv":
        print("gamma,l,sigma1,sigma2")
        print(f"{law.gamma:.17g},{consts.l:.17g},{consts.sigma1:.17g},"
              f"{consts.sigma2:.17g}")
    else:
        print(f"l={consts.l:.17g}, sigma1={consts.sigma1:.17g}, "
              f"sigma2={consts.sigma2:.17g}")
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    scn = cfg.to_scenario()
    harness.check_storage(scn, args.config)
    if not args.quiet:
        harness.warn_past_courant(scn, args.config)
    bundle = harness.certify(scn)
    if args.format == "json":
        print(json.dumps(bundle.to_dict(), indent=2, sort_keys=True))
    else:
        for cert in bundle.certificates:
            mark = "PASS" if cert.passed else "FAIL"
            detail = "" if cert.passed else " [" + ", ".join(cert.failing()) + "]"
            print(f"{mark} {cert.name}{detail}")
        print("PASS" if bundle.passed else "FAIL")
    return EXIT_OK if bundle.passed else EXIT_CERT


def _cmd_feasible(args) -> int:
    law = GasLaw.from_gamma(args.gamma)
    result = find_constants(law, args.integral, args.kind)
    if args.format == "json":
        payload = {"feasible": result.feasible, "kind": result.kind,
                   "I": result.I, "best_min_slack": result.best_min_slack,
                   "constants": result.best_point if result.feasible else None}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif result.feasible:
        c = result.best_point
        print(f"FEASIBLE kind={result.kind} L1={c['L1']:.12g} L2={c['L2']:.12g} "
              f"U1={c['U1']:.12g} U2={c['U2']:.12g} "
              f"min_slack={result.best_min_slack:.6g}")
    else:
        print(f"INFEASIBLE kind={result.kind} I={result.I:.6g}: best normalized "
              f"slack {result.best_min_slack:.6g} < 0 over searched box")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    target = Path(args.config)
    if target.is_dir():
        # sweep: every config in the directory runs independently; the merged
        # summary is ordered by config name so it never depends on scheduling
        codes = {}
        for cfg in sorted(target.glob("*.cfg")):
            codes[cfg.name] = harness.run_scenario(
                cfg, Path(args.out) / cfg.stem, force=args.force, quiet=True)
        if not codes:
            print(f"no .cfg files in {target}", file=sys.stderr)
            return EXIT_NOINPUT
        if not args.quiet:
            for name in sorted(codes):
                print(f"{name}: exit {codes[name]}")
        return max(codes.values())
    return harness.run_scenario(args.config, args.out, force=args.force,
                                quiet=args.quiet)


def _cmd_trace(args) -> int:
    from . import characteristics as chars

    traj = harness.load_trajectory(args.trajectory)
    path = chars.trace(traj, args.x0, args.family, t0=args.t0)
    out = harness.output_dir(args.out)
    scn = traj.scenario
    dest = out / f"path_f{args.family}_x{args.x0:g}_t{args.t0:g}.csv"
    harness.write_path_csv(path, scn.delta1, scn.profile.M, scn.profile.alpha, dest)
    if not args.quiet:
        print(f"traced {path.n} samples (exit: {path.exit_reason}) -> {dest}")
    return EXIT_OK


def _write_report(payload: dict, out: Path, fmt: str) -> None:
    """Write ``verify_report.json``; with ``--format json``, print the same
    text to standard output."""
    text = harness._write_json(payload, out / "verify_report.json")
    if fmt == "json":
        print(text, end="")


def _cmd_verify(args) -> int:
    traj = harness.load_trajectory(args.trajectory)
    out = harness.output_dir(args.out)
    if traj.blown_up:  # as in ``simulate``, a run that ended early has no post-pass
        payload = {"blow_up": dict(traj.blow_up, t_last_stored=float(traj.times[-1]),
                                   steps=len(traj.times) - 1), "ok": False}
        _write_report(payload, out, args.format)
        print(f"blow-up: the stored run ended early, after t = {traj.times[-1]:.6g}; "
              "it has no post-pass", file=sys.stderr)
        return EXIT_BLOWUP
    post = harness.characteristic_pass(traj)
    payload = {"characteristics": post,
               "conservative_residual": harness.conservative_residual(traj).to_dict(),
               "ok": post["ok"]}
    _write_report(payload, out, args.format)
    if args.format != "json" and not args.quiet:
        for family, stats in post["families"].items():
            print(f"family {family}: checked={stats['checked']}/{stats['paths']} "
                  f"residual_max={stats['residual_max']:.6g} "
                  f"bounds_ok={stats['bounds_ok']}")
        print("OK" if post["ok"] else "BOUND VIOLATION")
    return EXIT_OK if post["ok"] else EXIT_MONITOR


_COMMANDS = {
    "constants": _cmd_constants,
    "check": _cmd_check,
    "feasible": _cmd_feasible,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"cannot open input: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except OutputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CANTCREAT
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATAERR
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except NozzleflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATAERR


if __name__ == "__main__":
    sys.exit(main())
