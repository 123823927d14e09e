"""Acceptance criteria for the whole artifact, one test per criterion.

Every check is exact (literal zero residuals, literal equality); the stated
wall-clock bounds are asserted as well.  Each criterion prints one summary
line so a verbose run reads as a checklist.
"""

import json
import time

import pytest

from p6tau import cli
from p6tau.exactalg import LaurentPoly
from p6tau.grassmann import FrameMatrix, TauTable, expand_wedge, tau_in_x, translation_gradient
from p6tau.lattice import LatticePoint, r_weight
from p6tau.suites import (
    perturb_table,
    suite_bilinear,
    suite_f4,
    suite_jmo,
    suite_miwa,
    suite_sigma_backlund,
    suite_symmetry,
    suite_toda,
)


@pytest.fixture(scope="module")
def frame():
    return FrameMatrix.vandermonde()


@pytest.fixture(scope="module")
def table(frame):
    return TauTable.build(frame, 2)


def _finish(number, label, started, limit, report=None, ok=None):
    elapsed = time.monotonic() - started
    passed = report.passed if report is not None else bool(ok)
    checks = report.checks if report is not None else "-"
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{label}]: {status} "
          f"({checks} checks, {elapsed:.2f}s < {limit}s)")
    if report is not None and report.failures:
        print(f"  first failure: {report.failures[0]}")
    assert passed, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_vacuum_and_charge(table):
    started = time.monotonic()
    vacuum = table.get(LatticePoint((0, 0, 0, 0, 0, 0))).T == LaurentPoly.constant(1)
    # exhaustive charge selection on every family of the ball
    for mu in sorted({p.mu for p in table.points()}):
        for term in expand_wedge(mu, table.frame):
            assert sum(term.charges) + sum(mu) == 0
    _finish(1, "vacuum and charge constraints", started, 1, ok=vacuum)


def test_criterion_02_homogeneity_and_gauge(table):
    started = time.monotonic()
    # every charge sector of every family of the ball
    for mu in sorted({p.mu for p in table.points()}):
        for charge, sector in tau_in_x(mu, table.frame).items():
            weight = r_weight(LatticePoint(charge + mu))
            assert all(sum(exps) == weight for exps in sector), (mu, charge)  # Euler
            assert not translation_gradient(sector), (mu, charge)
    _finish(2, "Euler identity and u-cancellation", started, 10, ok=True)


def test_criterion_03_toda(table):
    started = time.monotonic()
    rep = suite_toda(table)
    assert rep.checks > 150
    _finish(3, "Toda lines vs neighbor products", started, 30, rep)


def test_criterion_04_bilinear(table):
    started = time.monotonic()
    rep = suite_bilinear(table)
    assert rep.notes["eps_matches_closed_form"] is True
    assert rep.checks > 5000
    _finish(4, "bilinear relation and sign calibration", started, 60, rep)


def test_criterion_05_miwa(table):
    started = time.monotonic()
    rep = suite_miwa(table)
    assert rep.checks > 1000
    _finish(5, "six-point product identities", started, 30, rep)


def test_criterion_06_translation(table):
    started = time.monotonic()
    rep = suite_symmetry(table)
    translation = [c for c in rep.configurations if c["check"] == "translation"]
    assert len(translation) == 31
    _finish(6, "lattice translation relation", started, 5, ok=all(c["ok"] for c in translation))


def test_criterion_07_sigma_form(table):
    started = time.monotonic()
    rep = suite_jmo(table)
    assert rep.checks == len(table.nonzero_points())
    _finish(7, "second-order quadratic sigma equation", started, 60, rep)


def test_criterion_08_sigma_backlund(table):
    started = time.monotonic()
    rep = suite_sigma_backlund(table)
    assert rep.checks > 2000  # includes the pairwise implication checks
    _finish(8, "sigma-level relation and implication", started, 60, rep)


def test_criterion_09_f4_correspondence(table):
    started = time.monotonic()
    rep = suite_f4(table)
    assert rep.checks > 1000
    _finish(9, "5-vector lattice correspondence", started, 30, rep)


def test_criterion_10_symmetries(table):
    started = time.monotonic()
    rep = suite_symmetry(table)
    assert rep.checks > 500
    _finish(10, "parameter and relabeling symmetries", started, 30, rep)


def test_criterion_11_negative_controls(table, tmp_path, capsys):
    started = time.monotonic()
    probes = [
        LatticePoint((-1, 0, 0, 1, 0, 0)),
        LatticePoint((0, 0, 0, 1, -1, 0)),
        LatticePoint((-1, -1, 0, 2, 0, 0)),
    ]
    all_caught = True
    for point in probes:
        broken = perturb_table(table, point)
        caught = False
        for suite in (suite_toda, suite_miwa, suite_bilinear, suite_jmo):
            rep = suite(broken)
            if not rep.passed:
                caught = True
                break
        all_caught = all_caught and caught
    # the CLI names the failing configuration and exits nonzero
    broken = perturb_table(table, probes[0])
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({
        "frame": broken.frame.to_json(),
        "radius": broken.radius,
        "entries": broken.to_json(),
    }))
    report_file = tmp_path / "report.json"
    code = cli.main(["verify", "--table", str(bad_file), "--suites", "miwa",
                     "--out", str(report_file)])
    payload = json.loads(report_file.read_text())
    named = payload["suites"][0]["failures"]
    capsys.readouterr()
    ok = all_caught and code == 1 and named and "base" in named[0]
    _finish(11, "negative controls", started, 30, ok=ok)
