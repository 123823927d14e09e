"""run_suites walks the move squares once for bilinear, sigma-backlund and
f4 together (suites.SquarePass); every report must be byte-identical to the
suite run alone, each point set's polynomials are computed once, and the walk
stops once every suite in it is done."""

import json
import random

import pytest

from p6tau import backlund
from p6tau.grassmann import TauTable
from p6tau.lattice import LatticePoint
from p6tau.suites import SUITES, perturb_table, run_suites, suite_f4

DEFAULT = sorted(SUITES)
ORDERS = {
    "default": DEFAULT,
    "sigma-first": ["sigma-backlund", "bilinear"],
    # suite_symmetry computes missing points into the table; f4 must see them
    "after-symmetry": ["bilinear", "symmetry", "f4"],
    "repeated": ["bilinear", "f4", "bilinear"],
}
# each perturbed point makes bilinear calibration fail with one of the
# three NoConsistentSign messages
PERTURBED = {
    "no-sign-matches": (-1, 0, 0, 1, 0, 0),
    "product-zero": (1, 0, -1, 0, 0, 0),
    "base-dependent": (1, 1, 0, -1, -1, 0),
}
TABLES = ["r2", "thinned", "r1", *PERTURBED]
ERRORS = {"no-sign-matches": "no sign matches",
          "product-zero": "left side nonzero, product zero",
          "base-dependent": "sign depends on the base point"}


@pytest.fixture
def fresh(table1, table2):
    """fresh(name): a new copy of the named table, so that suite_symmetry's
    growth never leaks from one run into another."""
    points = table2.points()
    dropped = set(random.Random(8).sample(points, len(points) // 10))

    def make(name):
        if name in PERTURBED:
            return perturb_table(table2, LatticePoint(PERTURBED[name]))
        if name == "thinned":
            return TauTable(table2.frame, {p: t for p, t in table2.entries.items()
                                           if p not in dropped}, radius=2)
        base = table1 if name == "r1" else table2
        return TauTable(base.frame, dict(base.entries), radius=base.radius)

    return make


def _dumps(reports):
    return [json.dumps(r.to_json(), indent=2, sort_keys=True) for r in reports]


# the default order on every table; the other orders on r2, r1 and one
# perturbed table
CASES = ([(name, "default") for name in TABLES]
         + [(name, order) for name in ("r2", "r1", "no-sign-matches")
            for order in ORDERS if order != "default"])


@pytest.mark.parametrize("name, order", CASES)
def test_shared_walk_matches_the_suites_run_alone(fresh, name, order):
    names = ORDERS[order]
    # a summary report is the full one less its configurations
    # (test_suites_without_configurations_keep_only_failures); both are
    # compared on r2
    for configurations in (False, True) if name == "r2" else (True,):
        shared = run_suites(fresh(name), names, configurations)
        table = fresh(name)
        alone = [SUITES[n](table, configurations) for n in names]
        assert _dumps(shared) == _dumps(alone)
    bilinear = next(r for r in shared if r.name == "bilinear")
    if name in ERRORS:
        assert ERRORS[name] in bilinear.failures[0]["error"]
    else:
        assert bilinear.passed
    if order == "after-symmetry":
        assert shared[2].checks > suite_f4(fresh(name)).checks
    if order == "repeated":
        assert _dumps(shared[:1]) == _dumps(shared[2:])


def _count_calls(monkeypatch, *targets):
    """{name: 0} for each (owner, name), each counting its calls from now on."""
    calls = {}
    for owner, name in targets:
        original = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_shared_walk_computes_each_sigma_and_residual_once(fresh, monkeypatch):
    calls = _count_calls(monkeypatch, (backlund, "sigma_of"), (backlund, "sigma_square"),
                         (backlund.SquareSweep, "bilinear_sides"))
    table = fresh("r2")
    assert len(table.nonzero_points()) == 181
    reports = run_suites(table, DEFAULT, configurations=False)
    assert all(r.passed for r in reports)
    # 3,840 squares on 1,920 point sets: each set's polynomials are computed
    # once, by the square of (i, j, k) with i < k, although its mirror square
    # of (k, j, i) and the suites sigma-backlund and f4 all read them.  The
    # walk computes no sigma: R is a multiple of the Wronskian of the sides
    # (suite_jmo calls suites.sigma_of, not counted here)
    assert calls == {"sigma_of": 0, "sigma_square": 0, "bilinear_sides": 1920}
    checks = {r.name: r.checks for r in reports}
    assert (checks["bilinear"], checks["sigma-backlund"], checks["f4"]) == (6150, 2664, 1663)


@pytest.mark.parametrize("name, sides", [("no-sign-matches", 128), ("product-zero", 64),
                                         ("base-dependent", 1472)])
def test_a_failed_calibration_stops_a_lone_bilinear_walk(fresh, monkeypatch, name, sides):
    """Once calibration fails, bilinear ignores every later move, so a walk
    for bilinear alone stops at the failing move (64 squares of r2 per
    move); a walk that also serves sigma-backlund goes on to the end."""
    calls = _count_calls(monkeypatch, (backlund.SquareSweep, "bilinear_sides"))
    report = run_suites(fresh(name), ["bilinear"], configurations=False)[0]
    assert ERRORS[name] in report.failures[0]["error"] and report.checks == 1
    assert calls == {"bilinear_sides": sides}
    run_suites(fresh(name), ["bilinear", "sigma-backlund"], configurations=False)
    assert calls == {"bilinear_sides": sides + 1920}


def test_one_perturbed_point_fails_every_square_suite_of_a_shared_walk(table2):
    broken = perturb_table(table2, LatticePoint((0, 0, 0, 1, -1, 0)))
    reports = run_suites(broken, ["bilinear", "sigma-backlund", "f4"], configurations=False)
    assert [r.name for r in reports if not r.passed] == ["bilinear", "sigma-backlund", "f4"]
    steps = [f for f in reports[2].failures if f.get("check") == "sigma-step"]
    relation = [f for f in reports[1].failures if "check" not in f]
    assert len(steps) == len(relation) == 54
