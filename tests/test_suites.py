import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from p6tau import suites
from p6tau.backlund import (bilinear_residual, calibrate_eps, iter_move_configurations,
                            jmo_residual_with_v, sigma_of)
from p6tau.exactalg import LaurentPoly
from p6tau.grassmann import FrameMatrix, SingularFrame, TauTable
from p6tau.f4 import d4_action
from p6tau.lattice import LatticePoint, all_moves, ball, twice_v
from p6tau.suites import (SUITES, perturb_table, run_suites, suite_bilinear, suite_f4, suite_jmo,
                          suite_miwa, suite_sigma_backlund, suite_symmetry, suite_toda)


def test_sigma_level_suites_record_failures_on_perturbed_tables(table2):
    # The acceptance probe (-1, 0, 0, 1, 0, 0) is not reused: its T is
    # constant, so the bump only scales that tau, and scaling a tau leaves
    # sigma unchanged.  Here T = -10 + 4/t becomes -10 + 5/t.
    p = LatticePoint((0, 0, 0, 1, -1, 0))
    broken = perturb_table(table2, p)
    assert broken.get(p).T == LaurentPoly(-1, (5, -10))
    relation = [f for f in suite_sigma_backlund(broken).failures if "check" not in f]
    steps = [f for f in suite_f4(broken).failures if f.get("check") == "sigma-step"]
    assert len(relation) == 54 and len(steps) == 54
    assert all(f["terms"] > 0 for f in relation + steps)
    # -10 + 5/t still solves the sigma equation at p, so jmo needs another probe
    jmo = suite_jmo(perturb_table(table2, LatticePoint((0, 0, 0, -2, 0, 2))))
    assert [f["point"] for f in jmo.failures] == [[0, 0, 0, -2, 0, 2]]


@pytest.mark.parametrize("point", [(-1, 0, 0, 1, 0, 0), (0, 0, 0, 1, -1, 0),
                                   (-1, -1, 0, 2, 0, 0)])
def test_implication_failures_count_the_nonzero_residual(table2, point):
    # at these points the sigma relation holds on some squares whose bilinear
    # residual does not; those failures count the bilinear residual's terms
    rep = suite_sigma_backlund(perturb_table(table2, LatticePoint(point)))
    implication = [f for f in rep.failures if f.get("check") == "implication"]
    assert implication and all(f["terms"] > 0 for f in implication)


def test_smallest_perturbation_on_a_dense_frame_is_caught():
    """A bump of 1/(10^40 den) to one coefficient, on a frame whose taus
    carry unreduced denominators of about 150 bits, is still no zero."""
    f = Fraction
    frame = FrameMatrix([[f(59, 75), f(-73, 87), f(-82, 63)],
                         [f(54, 65), f(-85, 77), f(-86, 57)],
                         [f(-86, 87), f(53, 64), f(-85, 58)]])
    table = TauTable.build(frame, 2)
    assert suite_bilinear(table).passed and suite_jmo(table).passed
    p = next(q for q in table.points() if sum(1 for c in table.get(q).T.coeffs if c) >= 3)
    T = table.get(p).T
    bump = Fraction(1, 10 ** 40 * T.den)
    broken = perturb_table(table, p, bump)
    assert broken.get(p).T - T == LaurentPoly.monomial(bump, T.min_degree)
    eps = calibrate_eps(table)
    residuals = [bilinear_residual(*taus, m, eps[m]) for m in all_moves()
                 for taus in iter_move_configurations(broken, m)
                 if p in {t.point for t in taus}]
    assert residuals and any(not r.is_zero() for r in residuals)
    # after a JSON round trip each tau is held over the lcm of its reduced
    # coefficients' denominators, not over the determinant's denominator
    assert TauTable.from_json(table.to_json()).get(p).T.den < T.den
    reloaded = TauTable.from_json(broken.to_json(), frame=frame, radius=2)
    for twisted in (broken, reloaded):
        assert suite_bilinear(twisted).failures
        assert [x["point"] for x in suite_jmo(twisted).failures] == [p.to_json()]


# (radius, perturbed point or None, bilinear calibration error, and the first
# 16 hex digits of the sha256 of json.dumps(report, indent=2, sort_keys=True)
# for bilinear, sigma-backlund, f4 and miwa), frozen from the reports of the
# sweeps that looked every neighbour up as a LatticePoint.  Four sigma-backlund
# digests were frozen again when an implication failure with a zero sigma
# residual began to count the bilinear residual's terms; nothing else moved.
# The r1 bilinear digest and error were frozen again when a move whose
# squares all have L = P = 0 stopped failing calibration: the r1 table has 42
# such moves, so its calibration now fails later, at move (4, 1, 5).
FROZEN_REPORTS = [
    (2, None, None,
     ("3c7a68030e89a70f", "afa30fc675020154", "5531bd69f80d2759", "67e620c0b74f686e")),
    (2, (-1, 0, 0, 1, 0, 0), "move MoveIJK(i=1, j=2, k=4) at (-1,-1,0,2,0,0): no sign matches",
     ("e408a1192ac2823b", "f2e63313cf643a12", "5531bd69f80d2759", "c1c761867b200b07")),
    (2, (0, 0, 0, 1, -1, 0), "move MoveIJK(i=1, j=2, k=4) at (-1,0,0,2,-1,0): no sign matches",
     ("c72cf43a72208b4a", "01441d9995b5c3ad", "4d19a69e8872a62b", "66fa17a6425e76ee")),
    (2, (0, 0, 0, -2, 0, 2), "move MoveIJK(i=4, j=1, k=6) at (0,0,0,-2,0,2): no sign matches",
     ("3552e06010cfa2e0", "f7b6f20bd54d86ff", "0a3b30b2b87a6ec6", "67e620c0b74f686e")),
    (2, (1, 0, -1, 0, 0, 0),
     "move MoveIJK(i=1, j=2, k=3) at (0,0,0,0,0,0): left side nonzero, product zero",
     ("63c5f97554e20cc2", "1ca0a9e680ec3eac", "6588403ed83e5aba", "fa61d0f0be15f1fb")),
    (2, (1, 1, 0, -1, -1, 0), "move MoveIJK(i=4, j=1, k=6): sign depends on the base point",
     ("ad10fc2515bd3d25", "16fcfa2ec7e43ce2", "5531bd69f80d2759", "4d9ba0dfc0908f60")),
    (1, (0, 0, 0, 1, -1, 0), "move MoveIJK(i=4, j=1, k=5) at (0,0,0,0,0,0): no sign matches",
     ("8c0a4dc134f7c91a", "653eb01c648e365d", "c8e16e1c81c0aabe", "621d4ea18d78a8aa")),
]


@pytest.mark.parametrize("radius, point, error, digests", FROZEN_REPORTS,
                         ids=[f"r{r}-{p}" for r, p, _, _ in FROZEN_REPORTS])
def test_sweep_reports_match_frozen_digests(table1, table2, radius, point, error, digests):
    table = table2 if radius == 2 else table1
    if point is not None:
        table = perturb_table(table, LatticePoint(point))
    reports = [suite(table).to_json()
               for suite in (suite_bilinear, suite_sigma_backlund, suite_f4, suite_miwa)]
    failures = reports[0]["failures"]
    assert (failures[0]["error"] if failures else None) == error
    got = tuple(hashlib.sha256(json.dumps(r, indent=2, sort_keys=True).encode()).hexdigest()[:16]
                for r in reports)
    assert got == digests


# frames whose r2 tables leave every move without a square of nonzero P
ZERO_HEAVY_FRAMES = {
    "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "diagonal": [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
    "permutation": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
}


@pytest.mark.parametrize("name", ["r1", *ZERO_HEAVY_FRAMES])
def test_moves_without_an_informative_square_are_checked_uncalibrated(table1, name):
    """A move whose squares all have L = P = 0 holds with either sign: it is
    listed, checked with the closed-form sign, and every suite passes."""
    if name == "r1":
        table = TauTable(table1.frame, dict(table1.entries), radius=1)
    else:
        table = TauTable.build(FrameMatrix(ZERO_HEAVY_FRAMES[name]), 2)
    reports = run_suites(table, sorted(SUITES), False)
    assert [r.name for r in reports if not r.passed] == []
    notes = reports[0].notes
    uncalibrated = notes["uncalibrated_moves"]
    assert len(uncalibrated) == (42 if name == "r1" else 60)
    assert len(notes["eps_table"]) + len(uncalibrated) == 60
    assert notes["eps_matches_closed_form"]


def test_uncalibrated_moves_do_not_hide_a_perturbation(table1):
    rep = suite_bilinear(perturb_table(table1, LatticePoint((0, 0, 0, 1, -1, 0))))
    assert [f["error"] for f in rep.failures] == [
        "move MoveIJK(i=4, j=1, k=5) at (0,0,0,0,0,0): no sign matches"]


def test_the_per_point_suites_build_no_fraction(table2, monkeypatch):
    """The per-point scalars (c5, c6, v, the weight) are integers: no
    Fraction is built while jmo, toda, sigma-backlund, bilinear or miwa run."""
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} built on the sigma path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for suite in (suite_jmo, suite_toda, suite_sigma_backlund, suite_bilinear, suite_miwa):
        assert suite(table2, False).passed


def test_d4_value_is_implied_by_squares_and_product_on_the_r2_samples(table2):
    """suite_symmetry skips the d4 value check when the squares and the
    product agree; on every nonzero r2 point and sample it would pass."""
    done = 0
    for p in table2.nonzero_points():
        v = twice_v(p)
        probe = suites.d4_probe(sigma_of(table2.get(p)))
        base = jmo_residual_with_v(*probe, v)
        for perm, signs in suites.D4_SAMPLES:
            w = d4_action(v, perm, signs)
            assert sorted(x * x for x in w) == sorted(x * x for x in v)
            assert w[0] * w[1] * w[2] * w[3] == v[0] * v[1] * v[2] * v[3]
            assert jmo_residual_with_v(*probe, w) == base
            done += 1
    assert done == 905


def test_d4_check_evaluates_the_residual_only_when_needed(table1, monkeypatch):
    calls = []
    evaluate = suites.jmo_residual_with_v

    def counted(*args):
        calls.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(suites, "jmo_residual_with_v", counted)
    nonzero = len(table1.nonzero_points())
    # suite_symmetry computes missing points into its table, so it gets copies
    rep = suites.suite_symmetry(TauTable(table1.frame, dict(table1.entries), radius=1))
    d4 = [c for c in rep.configurations if c["check"] == "d4"]
    assert len(d4) == 5 * nonzero and all(c["ok"] for c in d4)
    assert not calls
    # a broken action changes v1 by 1 (2 v1 by 2): each check now evaluates
    # the residual, finds that the value moved and fails, counting the terms
    # of the probe's residual, which is never zero
    monkeypatch.setattr(suites, "d4_action", lambda w, perm, signs: (w[0] + 2,) + w[1:])
    broken = suites.suite_symmetry(TauTable(table1.frame, dict(table1.entries), radius=1))
    assert broken.checks == rep.checks and calls
    failures = [f for f in broken.failures if f["check"] == "d4"]
    assert len(failures) == len(d4)
    for f in failures:
        p = LatticePoint(f["point"])
        v = twice_v(p)
        probe = suites.d4_probe(sigma_of(table1.get(p)))
        base = evaluate(*probe, v)
        assert evaluate(*probe, (v[0] + 2,) + v[1:]) != base
        assert f["terms"] == sum(1 for c in base.coeffs if c) > 0


@pytest.mark.parametrize("radius", [2, 3])
def test_d4_probe_residual_is_nonzero_on_every_point(frame, table2, radius):
    """The d4 value check compares the sigma-form residuals of its probe at v
    and at the moved parameters; it reads as a check only where the residual
    at v is nonzero, which the probe sigma + t^2 is at every nonzero point of
    the r2 and r3 tables (sigma + t was zero at 55 of the 181 r2 points)."""
    table = table2 if radius == 2 else TauTable.build(frame, 3)
    points = table.nonzero_points()
    assert len(points) == {2: 181, 3: 777}[radius]
    for p in points:
        s = sigma_of(table.get(p))
        assert not jmo_residual_with_v(*suites.d4_probe(s), twice_v(p)).is_zero()


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suites_without_configurations_keep_only_failures(table2, name):
    point = (0, 0, 0, -2, 0, 2) if name == "jmo" else (0, 0, 0, 1, -1, 0)

    def table():  # a fresh copy each time: suite_symmetry grows its table
        return perturb_table(table2, LatticePoint(point))

    full, = suites.run_suites(table(), [name])
    short, = suites.run_suites(table(), [name], configurations=False)
    assert full.failures and full.checks == short.checks == len(full.configurations)
    assert short.failures == full.failures and short.configurations == []
    assert short.to_json() == {k: v for k, v in full.to_json().items() if k != "configurations"}


def _component_permute_failures(report):
    return [f for f in report.failures if f["check"] == "component-permute"]


def test_relabelings_are_checked_against_the_table(table2):
    p = LatticePoint((0, 0, 0, 1, -1, 0))
    assert not table2.get(p).is_zero()
    failures = _component_permute_failures(suite_symmetry(perturb_table(table2, p)))
    assert sorted(tuple(f["perm"]) for f in failures) == sorted(itertools.permutations(range(3)))
    assert all(f["mismatches"] == [p.to_json()] for f in failures)


# ---------------------------------------------------------------------------
# every suite on generic frames
# ---------------------------------------------------------------------------

NONZERO_ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(deadline=None, max_examples=6)
@given(st.lists(st.lists(NONZERO_ENTRIES, min_size=3, max_size=3), min_size=3, max_size=3))
@example([[1, 0, 0], [2, 3, 0], [4, 5, 6]])  # triangular
@example([[0, 1, 2], [3, 0, 5], [7, 11, 0]])  # a zero entry in every row
def test_every_suite_holds_on_a_frame_and_catches_perturbations(rows):
    try:
        frame = FrameMatrix(rows)
    except SingularFrame:
        assume(False)
    table = TauTable.build(frame, 2)
    assert [r.name for r in run_suites(table, sorted(SUITES), False) if not r.passed] == []
    # the benchmark's negative control: the first tau of three or more terms
    point = next(p for p in table.points() if sum(1 for c in table.get(p).T.coeffs if c) >= 3)
    broken = perturb_table(table, point)
    assert not suite_bilinear(broken, False).passed and not suite_jmo(broken, False).passed
    inner = next(p for p in sorted(ball(1), key=lambda q: q.alpha)
                 if p.alpha != (0,) * 6 and not table.get(p).is_zero())
    failures = _component_permute_failures(suite_symmetry(perturb_table(table, inner), False))
    assert len(failures) == 6 and all(f["mismatches"] == [inner.to_json()] for f in failures)
