"""Command-line front end.

Subcommands: coherent, evolve, verify, ghz-fidelity, fringes. All outputs
are pure functions of the flags; identical invocations produce
byte-identical CSV. Exit statuses: 0 all checks pass, 1 check failure,
2 usage or capacity error, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

import argparse
import math
import os
import sys

import numpy as np

from .dicke import CROSS_REP_TOL, check_atom_count, coherent_state, overlap
from .dynamics import (
    PHASE_TOL,
    equivalence_report,
    ghz_state,
    propagate,
    wrap_phase,
)
from .errors import CapacityError, NormalizationError, SubspaceError
from .oracle import FULL_SPACE_MAX, _check_capacity, project
from .ramsey import compare_channels, harmonic_magnitudes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# Defaults, as multiples of pi where angular (the flagship parameter
# point: theta = alpha = tau = pi/2, phi = -pi/2, beta over [-pi, pi)).
_DEFAULTS_PI = {
    "theta": 0.5,
    "phi": -0.5,
    "alpha": 0.5,
    "tau": 0.5,
    "beta_min": -1.0,
    "beta_max": 1.0,
}


def _angle(args: argparse.Namespace, name: str) -> float:
    """Resolve an angular flag; defaults stay in radians under --pi-units."""
    raw = getattr(args, name)
    if raw is None:
        return _DEFAULTS_PI[name] * math.pi
    return raw * math.pi if getattr(args, "pi_units", False) else raw


def _add_angle_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(
            flag,
            type=float,
            default=None,
            metavar="RAD",
            help=f"{name} (radians; default {_DEFAULTS_PI[name]:g}*pi)",
        )
    parser.add_argument(
        "--pi-units",
        action="store_true",
        help="interpret the angle/time flags above as multiples of pi",
    )


def _fmt(value: float) -> str:
    # 17 significant digits round-trip doubles exactly
    return f"{value:.17g}"


def _fmt_amp(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _print_amps(state) -> None:
    print(", ".join(_fmt_amp(z) for z in state.amps))


def _cmd_coherent(args: argparse.Namespace) -> int:
    state = coherent_state(args.n, _angle(args, "theta"), _angle(args, "phi"))
    _print_amps(state)
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    state = coherent_state(args.n, _angle(args, "theta"), _angle(args, "phi"))
    _print_amps(propagate(state, _angle(args, "tau")))
    return EXIT_OK


def _cmd_ghz_fidelity(args: argparse.Namespace) -> int:
    state = coherent_state(args.n, _angle(args, "theta"), _angle(args, "phi"))
    evolved = propagate(state, _angle(args, "tau"))
    ghz, _ = project(ghz_state(args.n))
    fidelity = abs(overlap(ghz, evolved)) ** 2
    print(_fmt(fidelity))
    return EXIT_OK if abs(fidelity - 1.0) <= args.tolerance else EXIT_CHECK_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    check_atom_count(args.n)
    _check_capacity(args.n, FULL_SPACE_MAX, "verify")
    tol = args.tolerance
    print(
        f"{'n':>3}  {'fid(prop,cat)':>19}  {'fid(prop,ghz)':>19}  "
        f"{'phase(cat/ghz)':>16}  {'expected':>16}  {'residual':>10}  status"
    )
    first_failure = None
    for n in range(1, args.n + 1):
        report = equivalence_report(n)
        phase_err = abs(wrap_phase(report.phase_cat_over_ghz - report.expected_phase))
        ok = (
            abs(report.fidelity_prop_vs_cat - 1.0) <= tol
            and abs(report.fidelity_prop_vs_ghz - 1.0) <= tol
            and report.max_residual <= tol
            and phase_err <= PHASE_TOL
        )
        if not ok and first_failure is None:
            first_failure = n
        print(
            f"{report.n:>3}  {report.fidelity_prop_vs_cat:>19.15f}  "
            f"{report.fidelity_prop_vs_ghz:>19.15f}  "
            f"{report.phase_cat_over_ghz:>+16.12f}  {report.expected_phase:>+16.12f}  "
            f"{report.max_residual:>10.3e}  {'pass' if ok else 'FAIL'}"
        )
    if first_failure is not None:
        print(f"verify: first failing n = {first_failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"verify: all n = 1..{args.n} pass at tolerance {tol:g}")
    return EXIT_OK


def _render_csv(series) -> str:
    lines = ["beta,p_coherent,p_mixture,p_no_cavity"]
    for i in range(len(series.betas)):
        lines.append(
            f"{_fmt(series.betas[i])},{_fmt(series.p_coherent[i])},"
            f"{_fmt(series.p_mixture[i])},{_fmt(series.p_no_cavity[i])}"
        )
    return "\n".join(lines) + "\n"


def _summarize(series, out) -> None:
    gap_mix = float(np.max(np.abs(series.p_coherent - series.p_mixture)))
    gap_nc = float(np.max(np.abs(series.p_coherent - series.p_no_cavity)))
    print(
        f"n={series.n} theta={_fmt(series.theta)} phi={_fmt(series.phi)} "
        f"tau={_fmt(series.tau)} alpha={_fmt(series.alpha)} "
        f"steps={len(series.betas)}",
        file=out,
    )
    print(f"max |p_coherent - p_mixture|   = {_fmt(gap_mix)}", file=out)
    print(f"max |p_coherent - p_no_cavity| = {_fmt(gap_nc)}", file=out)
    try:
        rows = {
            name: harmonic_magnitudes(series.betas, getattr(series, name), series.n)
            for name in ("p_coherent", "p_mixture", "p_no_cavity")
        }
    except ValueError as exc:
        print(f"harmonics: not computed ({exc})", file=out)
        return
    print(f"harmonic magnitudes h = 0..{series.n}:", file=out)
    for name, mags in rows.items():
        print(f"  {name:<12} " + " ".join(_fmt(m) for m in mags), file=out)


def _cmd_fringes(args: argparse.Namespace) -> int:
    series = compare_channels(
        args.n,
        _angle(args, "theta"),
        _angle(args, "phi"),
        _angle(args, "tau"),
        _angle(args, "alpha"),
        _angle(args, "beta_min"),
        _angle(args, "beta_max"),
        args.beta_steps,
    )
    csv_text = _render_csv(series)
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(csv_text)
        _summarize(series, sys.stdout)
    else:
        # CSV owns stdout; keep the summary on stderr so they never mix
        sys.stdout.write(csv_text)
        _summarize(series, sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description=(
            "Simulate GHZ / atomic cat state generation for N two-level atoms "
            "under the collective Hamiltonian eta*S+S- and compute the Ramsey "
            "detection fringes that distinguish the outcome from incoherent "
            "and unevolved alternatives."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherent", help="print the amplitudes of |theta, phi>")
    p.add_argument("--n", type=int, default=3, help="atom count (default 3)")
    _add_angle_flags(p, ["theta", "phi"])
    p.set_defaults(func=_cmd_coherent)

    p = sub.add_parser("evolve", help="print |theta, phi> evolved for tau")
    p.add_argument("--n", type=int, default=3, help="atom count (default 3)")
    _add_angle_flags(p, ["theta", "phi", "tau"])
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "verify",
        help="cross-check propagation against the cat and GHZ constructions "
        "for every atom count up to --n",
    )
    p.add_argument("--n", type=int, default=12, help="largest atom count (default 12)")
    p.add_argument(
        "--tolerance",
        type=float,
        default=CROSS_REP_TOL,
        # PHASE_TOL spelled out: f"{PHASE_TOL:g}" would print 1e-09
        help=f"fidelity/residual tolerance (default {CROSS_REP_TOL:g}; phases are "
        "always checked to 1e-9)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "ghz-fidelity",
        help="print |<ghz|evolved>|^2 for the configured preparation",
    )
    p.add_argument("--n", type=int, default=3, help="atom count (default 3)")
    p.add_argument(
        "--tolerance",
        type=float,
        default=CROSS_REP_TOL,
        help=f"exit 0 iff the fidelity is within this of 1 (default {CROSS_REP_TOL:g})",
    )
    _add_angle_flags(p, ["theta", "phi", "tau"])
    p.set_defaults(func=_cmd_ghz_fidelity)

    p = sub.add_parser(
        "fringes",
        help="sweep the coherent / mixture / no-cavity detection channels "
        "over a beta grid and emit CSV",
    )
    p.add_argument("--n", type=int, default=3, help="atom count (default 3)")
    p.add_argument(
        "--beta-steps",
        type=int,
        default=256,
        help="grid points over [beta-min, beta-max) (default 256)",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="CSV destination; omitted = CSV on stdout, summary on stderr",
    )
    _add_angle_flags(p, ["theta", "phi", "tau", "alpha", "beta_min", "beta_max"])
    p.set_defaults(func=_cmd_fringes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "tolerance", 1.0) <= 0:
        print("error: --tolerance must be > 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left; with fd 1 on devnull the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NormalizationError, SubspaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
