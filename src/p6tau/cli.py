"""Command-line front end: generate tau tables, verify identities, inspect.

Commands:
  gen            build the tau table for a lattice ball and write it out
  verify         run identity suites against a table; exit 0 iff all hold.
                 The report holds each suite's checks, verdict, failures and
                 notes; --configurations adds every configuration checked
  sigma          print the sigma function and parameter quadruple of a point
  map-f4         map a point to its 5-vector; optionally the full report
  calibrate-eps  print the calibrated move-sign table

Output files are deterministic: identical configuration and frame give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .backlund import NoConsistentSign, ZeroTau, calibrate_eps, sigma_of, via_params
from .f4 import a5_to_f4, short_sets, simple_roots_check, toda_gamma_table
from .grassmann import (FrameMatrix, GaugeDependence, HomogeneityViolation, MissingTau,
                        SingularFrame, TauTable)
from .lattice import LatticePoint
from .suites import SUITES, run_suites

DEFAULT_RADIUS_LIMIT = 4


class UnknownPoint(KeyError):
    """The requested lattice point is not present in the table."""


def _table_payload(table: TauTable) -> dict:
    return {
        "frame": table.frame.to_json(),
        "radius": table.radius,
        "entries": table.to_json(),
    }


def _dump_json(payload, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_csv(table: TauTable, path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a1", "a2", "a3", "a4", "a5", "a6", "weight", "min_degree", "coeffs"])
    for p in table.points():
        tau = table.entries[p]
        writer.writerow(list(p.alpha) + [tau.weight, tau.T.min_degree,
                                         " ".join(tau.T.to_json()["coeffs"])])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_table(path: str) -> TauTable:
    """Table from a JSON file; malformed content raises ValueError naming the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        for key in ("frame", "entries"):
            if not isinstance(payload, dict) or key not in payload:
                raise ValueError(f"table has no {key!r} field")
        radius = payload.get("radius")
        if radius is not None and (type(radius) is not int or radius < 0):
            raise ValueError(f"radius {radius!r} is not a non-negative integer")
        frame = FrameMatrix.from_json(payload["frame"])
        return TauTable.from_json(payload["entries"], frame=frame, radius=radius)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_point(text: str) -> LatticePoint:
    return LatticePoint(tuple(int(x) for x in text.replace(" ", "").split(",")))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if not 0 <= args.radius <= args.radius_limit:
        raise ValueError(
            f"radius {args.radius} outside 0..{args.radius_limit}"
            " (raise --radius-limit explicitly for bigger runs)"
        )
    if args.frame:
        with open(args.frame) as fh:
            try:
                frame = FrameMatrix.from_json(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{args.frame}: {exc}") from exc
    elif args.preset == "vandermonde":
        frame = FrameMatrix.vandermonde()
    else:
        raise ValueError(f"unknown preset {args.preset!r}")
    table = TauTable.build(frame, args.radius)
    if args.format == "csv":
        _dump_csv(table, args.out)
    else:
        _dump_json(_table_payload(table), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    suites = [s for s in args.suites.split(",") if s]
    if not suites:
        print("warning: empty suite list, nothing checked")
        _dump_json({"suites": [], "passed": True}, args.out)
        return 0
    reports = run_suites(table, suites, args.configurations)
    payload = {"suites": [r.to_json() for r in reports],
               "passed": all(r.passed for r in reports)}
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.name}: {status} ({r.checks} checks"
        if not r.checks:
            line += ", nothing to check on this table"
        if not r.passed:
            first = r.failures[0]
            line += f", {len(r.failures)} failures, first: {first}"
        line += ")"
        print(line)
    _dump_json(payload, args.out)
    return 0 if payload["passed"] else 1


def cmd_sigma(point: LatticePoint, table_path: str, output: str | None) -> int:
    table = load_table(table_path)
    if point not in table:
        raise UnknownPoint(str(point))
    tau = table.get(point)
    s = sigma_of(tau)  # raises ZeroTau for the zero tau
    image = a5_to_f4(point)  # its finite part is v, held doubled
    alpha, beta, gamma, delta = via_params(image.twice)
    payload = {
        "point": point.to_json(),
        "sigma": s.to_json(),
        "v": image.to_json()[1:],
        "pvi_coefficients": {
            "alpha": str(alpha), "beta": str(beta),
            "gamma": str(gamma), "delta": str(delta),
        },
    }
    _dump_json(payload, output)
    return 0


def cmd_map_f4(point: LatticePoint, full_report: bool, output: str | None) -> int:
    payload = {"point": point.to_json(), "image": a5_to_f4(point).to_json()}
    if full_report:
        payload["simple_roots"] = simple_roots_check()
        payload["short_sets"] = [
            {"label": s.label,
             "elements": [e.to_json() for e in s.elements],
             "preimages": [p.to_json() for p in s.preimages]}
            for s in short_sets()
        ]
        payload["toda_gamma_pairs"] = toda_gamma_table()
    _dump_json(payload, output)
    return 0


def cmd_calibrate_eps(table_path: str, output: str | None) -> int:
    """The calibrated sign table; a table no sign fits fails like an identity
    (exit 1), and one too small to calibrate is an input error (exit 2)."""
    table = load_table(table_path)
    try:
        eps = calibrate_eps(table)
    except NoConsistentSign as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _dump_json(eps.to_json(), output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p6tau",
        description="exact tau tables on the rank-5 lattice and their identity suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_frame_args(p):
        p.add_argument("--frame", help="path to a frame JSON file (3x3 'num/den' rows)")
        p.add_argument("--preset", default="vandermonde",
                       help="named frame preset (default: vandermonde)")

    gen = sub.add_parser("gen", help="generate a tau table over a lattice ball")
    add_frame_args(gen)
    gen.add_argument("--radius", type=int, default=1)
    gen.add_argument("--radius-limit", type=int, default=DEFAULT_RADIUS_LIMIT)
    gen.add_argument("--out", help="output path (stdout when omitted)")
    gen.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="run identity suites against a table")
    verify.add_argument("--table", required=True)
    verify.add_argument("--suites", default=",".join(sorted(SUITES)),
                        help="comma-separated subset of: " + ", ".join(sorted(SUITES)))
    verify.add_argument("--out", help="report path (stdout when omitted)")
    verify.add_argument("--configurations", action="store_true",
                        help="list every configuration checked, not only the failures")

    sigma = sub.add_parser("sigma", help="sigma function and parameters of a point")
    sigma.add_argument("--point", required=True, help="six comma-separated integers")
    sigma.add_argument("--table", required=True)
    sigma.add_argument("--out")

    mapf4 = sub.add_parser("map-f4", help="map a point into the 5-vector lattice")
    mapf4.add_argument("--point", required=True)
    mapf4.add_argument("--report", action="store_true",
                       help="include simple roots, short-root sets and step table")
    mapf4.add_argument("--out")

    cal = sub.add_parser("calibrate-eps", help="print the calibrated move-sign table")
    cal.add_argument("--table", required=True)
    cal.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sigma":
            return cmd_sigma(_parse_point(args.point), args.table, args.out)
        if args.command == "map-f4":
            return cmd_map_f4(_parse_point(args.point), args.report, args.out)
        if args.command == "calibrate-eps":
            return cmd_calibrate_eps(args.table, args.out)
    except (SingularFrame, UnknownPoint, ZeroTau, ValueError, OSError, GaugeDependence,
            HomogeneityViolation, MissingTau) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
