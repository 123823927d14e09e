"""Correctness gates: every output of a run is checked against its reference.

Each gate returns a list of (name, ok) pairs; every pair is one attempted
operation of the run and every False one failure.  The gates read only the
files the program wrote, never the program's own modules.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import (
    GEN_R3_SHA256,
    NEGATIVE_SUITES,
    SWEEP_CHECKS,
    VERIFY_R2_CHECKS,
)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gate_digest(path: Path, expected: str) -> list[tuple[str, bool]]:
    """The written table is byte-identical to the reference."""
    ok = Path(path).is_file() and sha256_of(path) == expected
    return [(f"{Path(path).name} sha256", ok)]


def gate_report(report: dict | None, expected_checks: dict[str, int],
                label: str) -> list[tuple[str, bool]]:
    """The report passed, and each expected suite passed with its check count."""
    if report is None:
        return [(f"{label} report written", False)]
    by_name = {s["suite"]: s for s in report.get("suites", [])}
    out = [(f"{label} passed", report.get("passed") is True),
           (f"{label} suites", sorted(by_name) == sorted(expected_checks))]
    for name, checks in expected_checks.items():
        suite = by_name.get(name, {})
        out.append((f"{label} {name} passed", suite.get("passed") is True))
        out.append((f"{label} {name} checks == {checks}", suite.get("checks") == checks))
    return out


def gate_negative(report: dict | None) -> list[tuple[str, bool]]:
    """Every negative-control suite reported at least one failure."""
    if report is None:
        return [("negative control report written", False)]
    by_name = {s["suite"]: s for s in report.get("suites", [])}
    out = [("negative control failed", report.get("passed") is False)]
    for name in NEGATIVE_SUITES:
        suite = by_name.get(name, {})
        out.append((f"negative control {name} caught",
                    suite.get("passed") is False and bool(suite.get("failures"))))
    return out


def read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def gate_run(workload: str, run, result: dict | None, workdir: Path) -> list[tuple[str, bool]]:
    """All gates of one run of `workload`, given its plan and the child's result."""
    if result is None:
        return [("run finished", False)]
    out = [(f"{phase['kind']} exit code", phase["rc"] == 0) for phase in result["phases"]]
    if workload == "gen-r3":
        out += gate_digest(run.tables[0], GEN_R3_SHA256)
    elif workload == "verify-r2":
        out += gate_report(read_json(run.reports[0]), VERIFY_R2_CHECKS, "verify")
    else:
        for i, report in enumerate(run.reports):
            out += gate_report(read_json(report), SWEEP_CHECKS, f"frame {i}")
    if run.control is not None:
        out.append(("negative control exit code", result.get("negative_rc") == 1))
        out += gate_negative(read_json(workdir / "perturbed_report.json"))
    return out


def table_sizes(paths) -> dict[str, int]:
    """Largest coefficient bit-length, term count and degree over the taus
    of the given table files.  A tau is t^m P(t); its degree is that of P."""
    bits = terms = degree = 0
    for path in paths:
        for entry in json.loads(Path(path).read_text())["entries"]:
            coeffs = [Fraction(c) for c in entry["T"]["coeffs"]]
            nonzero = [c for c in coeffs if c]
            if not nonzero:
                continue
            bits = max(bits, *(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                               for c in nonzero))
            terms = max(terms, len(nonzero))
            degree = max(degree, len(coeffs) - 1)
    return {"max_coeff_bits": bits, "max_terms": terms, "max_degree": degree}
