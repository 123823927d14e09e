import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from p6tau import cli

from p6tau.exactalg import LaurentPoly, NotDivisible
from p6tau.backlund import (
    B_POLYS,
    DegenerateK,
    EpsTable,
    MIWA_STENCILS,
    MoveIJK,
    NoConsistentSign,
    PointIndex,
    SigmaFn,
    TODA_PAIRS,
    ZeroTau,
    bilinear_combination,
    bilinear_residual,
    calibrate_eps,
    eps_block_inversions,
    eps_pair,
    iter_miwa_stencils,
    iter_move_configurations,
    iter_move_squares,
    jmo_residual,
    jmo_residual_with_v,
    miwa_first_residual,
    miwa_second_residual,
    sigma_backlund_residual,
    sigma_difference,
    sigma_of,
    solve_fourth,
    toda_product,
    via_params,
)
from p6tau.f4 import sigma_step
from p6tau.grassmann import MissingTau, TauT, TauTable
from p6tau.f4 import d4_action
from p6tau.lattice import (LatticePoint, all_moves, ball, big_GH, c5_c6, delta, move_vector,
                           r_weight, twice_v)
from p6tau.suites import D4_SAMPLES, miwa_bases, perturb_table, suite_symmetry

T = LaurentPoly.t()
ORIGIN = LatticePoint((0, 0, 0, 0, 0, 0))


def test_directional_derivatives_sum_to_zero():
    assert (B_POLYS[1] + B_POLYS[2] + B_POLYS[3]).is_zero()
    # d_2 = t d/dt takes t^2 to 2t^2
    assert B_POLYS[2] * LaurentPoly(0, (0, 0, 1)).derivative() == LaurentPoly(2, (2,))


def test_toda_at_origin_is_zero():
    tau = TauT(ORIGIN, LaurentPoly.constant(1), 0)
    for pair in TODA_PAIRS:
        assert toda_product(tau, pair).is_zero()


def test_toda_matches_neighbor_products(table2):
    checked = 0
    for p in table2.points():
        tau = table2.get(p)
        for pair in TODA_PAIRS:
            v = move_vector(*pair)
            try:
                product = table2.get(p + v).T * table2.get(p - v).T
            except MissingTau:
                continue
            assert toda_product(tau, pair) == product
            checked += 1
    assert checked > 100


def test_bilinear_zero_configuration():
    m = MoveIJK(4, 1, 5)
    t_a = TauT(ORIGIN, LaurentPoly.zero(), 0)
    t_ik = TauT(ORIGIN + move_vector(4, 5), LaurentPoly.zero(), 1)
    t_ij = TauT(ORIGIN + move_vector(4, 1), LaurentPoly.zero(), 0)
    t_jk = TauT(ORIGIN + move_vector(1, 5), LaurentPoly.zero(), 0)
    assert bilinear_residual(t_a, t_ik, t_ij, t_jk, m, 1).is_zero()


def test_bilinear_sign_linearity(table2):
    m = MoveIJK(1, 2, 4)
    for t_a, t_ik, t_ij, t_jk in iter_move_configurations(table2, m):
        plus = bilinear_residual(t_a, t_ik, t_ij, t_jk, m, 1)
        minus = bilinear_residual(t_a, t_ik, t_ij, t_jk, m, -1)
        assert plus + minus == 2 * bilinear_combination(t_a, t_ik, m)
        break


def test_exactly_one_sign_fits_generic_configuration(table2):
    m = MoveIJK(1, 2, 3)
    hits = 0
    for t_a, t_ik, t_ij, t_jk in iter_move_configurations(table2, m):
        if (t_ij.T * t_jk.T).is_zero():
            continue
        fits = [e for e in (1, -1)
                if bilinear_residual(t_a, t_ik, t_ij, t_jk, m, e).is_zero()]
        assert len(fits) == 1
        hits += 1
    assert hits > 0


def test_solve_fourth_reproduces_and_rejects_wrong_sign(table2):
    eps = calibrate_eps(table2)
    reproduced = wrong_rejected = 0
    for m in all_moves()[::5]:
        sign = eps[(m.i, m.j, m.k)]
        for t_a, t_ik, t_ij, t_jk in iter_move_configurations(table2, m):
            if t_ij.is_zero():
                continue
            solved = solve_fourth(t_a, t_ik, t_ij, m, sign)
            assert solved.point == t_jk.point
            assert solved.T == t_jk.T
            reproduced += 1
            if not t_jk.is_zero() and not bilinear_combination(t_a, t_ik, m).is_zero():
                try:
                    bad = solve_fourth(t_a, t_ik, t_ij, m, -sign)
                except NotDivisible:
                    wrong_rejected += 1
                else:
                    assert bad.T == -t_jk.T  # divisible but wrong: sign flip
                    wrong_rejected += 1
            if reproduced > 200:
                break
    assert reproduced > 50 and wrong_rejected > 10


def test_solve_fourth_zero_numerator_gives_zero(table2):
    # at the origin, both (1,2)-line neighbors have negative weight
    t_a = table2.get(ORIGIN)
    m = MoveIJK(1, 2, 3)
    t_ik = table2.get(ORIGIN + move_vector(1, 3))
    t_ij = table2.get(ORIGIN + move_vector(1, 2))
    # t_ij is a zero tau here, so division must be rejected
    assert t_ij.is_zero()
    with pytest.raises(ZeroDivisionError):
        solve_fourth(t_a, t_ik, t_ij, m, 1)


def test_miwa_all_zero_and_missing(table2):
    base = (-2, 0, 0, 0, 0, 0)  # every product carries at least one zero tau
    assert miwa_first_residual(table2, base, 4).is_zero()
    assert miwa_second_residual(table2, base, 1, 2, 4, 5).is_zero()
    with pytest.raises(MissingTau):
        miwa_first_residual(table2, (-9, 7, 0, 0, 0, 0), 4)


def test_eps_pair_values():
    assert eps_pair(1, 2) == 1 and eps_pair(2, 1) == -1
    assert eps_pair(2, 2) == 1


def test_sigma_of_examples(table2):
    s = sigma_of(table2.get(ORIGIN))
    assert s.num.is_zero()
    with pytest.raises(ZeroTau):
        sigma_of(TauT(ORIGIN, LaurentPoly.zero(), 0))
    # synthetic point with c5 = -1, c6 = 0: sigma = -(t-1)
    p = LatticePoint((1, 0, -1, 0, 0, 0))
    s2 = sigma_of(TauT(p, LaurentPoly.constant(1), r_weight(p)))
    assert (s2.num, s2.den) == (LaurentPoly(0, (1, -1)), LaurentPoly.constant(1))
    # T = 1/t at the same point adds t(t-1) * (1/t)' / (1/t) = -(t-1)
    s3 = sigma_of(TauT(p, LaurentPoly.monomial(1, -1), r_weight(p)))
    assert (s3.num, s3.den) == (LaurentPoly(0, (2, -2)), LaurentPoly.constant(1))


def test_twice_v_examples():
    # (v1..v4) doubled: v = (1/2, -1/2, -1/2, -1/2) and (0, 1, -1, 0)
    assert twice_v(ORIGIN) == (0, 0, 0, 0)
    assert twice_v(LatticePoint((-1, 0, 0, 1, 0, 0))) == (1, -1, -1, -1)
    assert twice_v(LatticePoint((0, 0, 0, 0, 1, -1))) == (0, 2, -2, 0)


def test_via_params_examples():
    assert via_params((0, 0, 0, 0)) == (0, 0, 0, 0)
    a, b, g, d = via_params((1, 1, 0, 0))  # v = (1/2, 1/2, 0, 0)
    assert (a, b, g, d) == (0, Fraction(-1, 2), 0, 0)


def test_via_params_round_trip():
    w = (3, -1, 4, 1)
    v = [Fraction(x, 2) for x in w]
    alpha, beta, gamma, delta = via_params(w)
    # invert with exact square roots of perfect squares
    def isqrt_frac(x):
        from math import isqrt
        num, den = x.numerator, x.denominator
        r = Fraction(isqrt(num), isqrt(den))
        assert r * r == x
        return r
    s12 = isqrt_frac(-2 * beta)      # |v1 + v2|
    d12 = isqrt_frac(2 * gamma)      # |v1 - v2|
    s34 = isqrt_frac(1 - 2 * delta)  # |v3 + v4 + 1|
    d34 = isqrt_frac(2 * alpha)      # |v3 - v4|
    assert s12 == abs(v[0] + v[1]) and d12 == abs(v[0] - v[1])
    assert s34 == abs(v[2] + v[3] + 1) and d34 == abs(v[2] - v[3])
    recovered = {abs(Fraction(s12 + d12, 2)), abs(Fraction(s12 - d12, 2))}
    assert recovered == {abs(v[0]), abs(v[1])}


def _jmo_fraction_oracle(N, D, v):
    """The sigma equation's residual times D^8 at the parameters v1..v4,
    given as Fractions:  sigma'(t(t-1) sigma'')^2 + (sigma'[2 sigma -
    (2t-1) sigma'] + v1v2v3v4)^2 - prod_k (sigma' + v_k^2)."""
    dD = D.derivative()
    A = N.derivative() * D - N * dD
    B = A.derivative() * D - 2 * A * dD
    D2 = D * D
    tt1 = T * (T - 1)
    middle = 2 * A * N * D - (2 * T - 1) * (A * A) + (v[0] * v[1] * v[2] * v[3]) * (D2 * D2)
    rhs = LaurentPoly.constant(1)
    for vk in v:
        rhs = rhs * (A + (vk * vk) * D2)
    return tt1 * tt1 * A * (B * B) + middle * middle - rhs


def test_jmo_residual_is_256_times_the_fraction_form(table2):
    """On every nonzero r2 point, for its sigma and for sigma + t, at the
    point's doubled parameters, at their five D4 sample images and at one
    shift that is no symmetry."""
    nonzero = 0
    for p in table2.nonzero_points():
        s = sigma_of(table2.get(p))
        w = twice_v(p)
        params = [d4_action(w, perm, signs) for perm, signs in D4_SAMPLES]
        params.append((w[0] + 2,) + w[1:])
        for N, D in ((s.num, s.den), (s.num + T * s.den, s.den)):
            for x in params:
                oracle = _jmo_fraction_oracle(N, D, [Fraction(c, 2) for c in x])
                assert jmo_residual_with_v(N, D, x) == 256 * oracle
                nonzero += not oracle.is_zero()
    # sigma + t and the shift leave 903 of these 181 * 12 residuals nonzero
    assert nonzero == 903


def test_jmo_zero_sigma():
    res = jmo_residual(SigmaFn(ORIGIN, LaurentPoly.zero(), LaurentPoly.constant(1)))
    assert res.is_zero()


def test_jmo_detects_perturbation(table2):
    p = LatticePoint((-1, 0, 0, 1, 0, 0))
    s = sigma_of(table2.get(p))
    assert jmo_residual(s).is_zero()
    perturbed = SigmaFn(p, s.num + T * s.den, s.den)
    assert not jmo_residual(perturbed).is_zero()


def test_sigma_backlund_degenerate_raises(table2):
    # identical sigma at base and ik slot with H = 0 makes K vanish
    p = LatticePoint((0, 0, 0, 0, 1, -1))
    m = MoveIJK(4, 2, 5)
    s = sigma_of(table2.get(p))
    fake_ik = SigmaFn(p + move_vector(4, 5), s.num, s.den)
    s_ij = sigma_of(table2.get(p + move_vector(4, 2)))
    s_jk = sigma_of(table2.get(p + move_vector(2, 5)))
    with pytest.raises(DegenerateK):
        sigma_backlund_residual(s, fake_ik, s_ij, s_jk, m)


def test_sigma_backlund_holds_and_follows_bilinear(table2):
    eps = calibrate_eps(table2)
    checked = 0
    for m in all_moves()[::7]:
        sign = eps[(m.i, m.j, m.k)]
        for quad in iter_move_configurations(table2, m):
            if any(t.is_zero() for t in quad):
                continue
            t_a, t_ik, t_ij, t_jk = quad
            assert bilinear_residual(t_a, t_ik, t_ij, t_jk, m, sign).is_zero()
            res = sigma_backlund_residual(
                sigma_of(t_a), sigma_of(t_ik), sigma_of(t_ij), sigma_of(t_jk), m
            )
            assert res.is_zero()
            checked += 1
            if checked > 60:
                return
    assert checked > 0


def test_calibrate_eps_matches_closed_form_and_scales(table2):
    eps = calibrate_eps(table2)
    for m in all_moves():
        assert eps[(m.i, m.j, m.k)] == eps_block_inversions(m.i, m.j, m.k)
    scaled = TauTable(table2.frame, {
        p: TauT(p, 7 * t.T, t.weight) for p, t in table2.entries.items()
    }, radius=table2.radius)
    assert calibrate_eps(scaled).signs == eps.signs


def test_calibrate_eps_detects_corruption(table2):
    p = LatticePoint((-1, 0, 0, 1, 0, 0))
    corrupted = TauTable(table2.frame, dict(table2.entries), radius=table2.radius)
    tau = corrupted.get(p)
    corrupted.entries[p] = TauT(p, -tau.T, tau.weight)
    with pytest.raises(NoConsistentSign):
        calibrate_eps(corrupted)


def test_eps_table_serialization():
    eps = EpsTable({(1, 2, 3): 1, (2, 1, 3): -1})
    assert eps.to_json() == {"1,2,3": 1, "2,1,3": -1}


def test_sigma_and_jmo_scale_invariant(table2):
    p = LatticePoint((0, 0, 0, 1, -1, 0))
    tau = table2.get(p)
    scaled = TauT(p, Fraction(7, 3) * tau.T, tau.weight)
    assert sigma_of(scaled).num != sigma_of(tau).num
    assert sigma_difference(sigma_of(scaled), sigma_of(tau)).is_zero()
    assert jmo_residual(sigma_of(scaled)).is_zero()


def _at(T: LaurentPoly, t0: Fraction) -> Fraction:
    return sum(T.coeff(n) * t0 ** n for n in range(T.min_degree, T.degree + 1))


def _sigma_scalars(tau: TauT, t0: Fraction) -> tuple[Fraction, Fraction]:
    """sigma and sigma' at t0 from sigma = t(t-1) T'/T + c5 (t-1) - c6/2."""
    dT = tau.T.derivative()
    value = _at(tau.T, t0)
    L = _at(dT, t0) / value
    c5, c6 = (Fraction(c, 4) for c in c5_c6(tau.point))
    sigma = t0 * (t0 - 1) * L + c5 * (t0 - 1) - c6 / 2
    dsigma = ((2 * t0 - 1) * L + t0 * (t0 - 1) * (_at(dT.derivative(), t0) / value - L * L)
              + c5)
    return sigma, dsigma


def _first_square(table, wanted):
    for m in all_moves():
        for taus in iter_move_configurations(table, m):
            if any(t.is_zero() for t in taus):
                continue
            sigmas = tuple(sigma_of(t) for t in taus)
            try:
                res = sigma_backlund_residual(*sigmas, m)
            except DegenerateK:
                continue
            if any(s.den.degree > 0 for s in sigmas) and wanted(res):
                return m, taus, sigmas, res
    raise AssertionError("no such square")


def test_cleared_sigma_formulas_match_scalar_oracle(table2):
    """The cleared residual and the unreduced sigma-step against the uncleared
    scalar formulas at rational points, on nonzero residuals too."""
    genuine = _first_square(table2, lambda res: res.is_zero())
    broken = _first_square(perturb_table(table2, LatticePoint((0, 0, 0, 1, -1, 0))),
                           lambda res: not res.is_zero())
    for m, taus, sigmas, res in (genuine, broken):
        s_a, s_ik, s_ij, s_jk = sigmas
        stepped = sigma_step(s_a, s_ik, s_ij, m)
        G, H = big_GH(s_a.point, m)
        for t0 in (Fraction(1, 3), Fraction(2), Fraction(-5, 7)):
            sa, sik, sij, sjk = (_sigma_scalars(t, t0) for t in taus)
            K = sa[0] - sik[0] + H(t0)
            dK = sa[1] - sik[1] + H.derivative()(t0)
            assert K != 0
            uncleared = (sij[0] + sjk[0] - sik[0] - sa[0] - G(t0)) * K - t0 * (t0 - 1) * dK
            clearing = s_ij.den(t0) * s_jk.den(t0) * (s_a.den(t0) * s_ik.den(t0)) ** 2
            assert res(t0) == uncleared * clearing
            expected = sa[0] + sik[0] + G(t0) + t0 * (t0 - 1) * dK / K - sij[0]
            assert stepped.num(t0) / stepped.den(t0) == expected
            if res.is_zero():
                assert expected == sjk[0]


# ---------------------------------------------------------------------------
# integer point keys against LatticePoint lookups
# ---------------------------------------------------------------------------

COMMITTED_R2 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "vandermonde_r2.json"


@pytest.fixture(scope="module")
def sweep_tables():
    """The committed r2 table; it with a seeded tenth of its points deleted;
    it grown to 293 entries by suite_symmetry, which adds points outside the
    ball; and it, still labelled radius 2, with a copy of ball(1) translated
    by (5,-5,5,-5,5,-5) and a point at (1,-10,9,0,0,0), whose key in base 9
    (a width taken from the radius) would be the origin's."""
    r2 = cli.load_table(str(COMMITTED_R2))
    points = r2.points()
    dropped = set(random.Random(8).sample(points, len(points) // 10))
    thinned = TauTable(r2.frame, {p: t for p, t in r2.entries.items() if p not in dropped})
    grown = cli.load_table(str(COMMITTED_R2))
    suite_symmetry(grown)
    assert len(grown) == 293
    far = TauTable(r2.frame, dict(r2.entries), radius=2)
    shift = LatticePoint((5, -5, 5, -5, 5, -5))
    for p in ball(1):
        far.entries[p + shift] = r2.entries[p]
    far.entries[LatticePoint((1, -10, 9, 0, 0, 0))] = r2.entries[points[0]]
    return {"r2": r2, "thinned": thinned, "grown": grown, "far": far}


def _oracle_squares(table):
    """Every move square as LatticePoint sums, moves in all_moves() order."""
    for m in all_moves():
        v_ik, v_ij, v_jk = move_vector(m.i, m.k), move_vector(m.i, m.j), move_vector(m.j, m.k)
        for base in table.points():
            corners = (base, base + v_ik, base + v_ij, base + v_jk)
            if all(c in table.entries for c in corners):
                yield m, tuple(table.entries[c] for c in corners)


@pytest.mark.parametrize("name", ["r2", "thinned", "grown", "far"])
def test_move_squares_match_lattice_point_oracle(sweep_tables, name):
    table = sweep_tables[name]
    index = PointIndex(table)
    got = [(m, tuple(index.taus[k] for k in keys)) for m, keys in iter_move_squares(index)]
    expected = list(_oracle_squares(table))
    assert len(got) == len(expected) > 0
    for (m, taus), (m_exp, taus_exp) in zip(got, expected):
        assert m == m_exp and all(a is b for a, b in zip(taus, taus_exp))
    m = all_moves()[7]
    assert list(iter_move_configurations(table, m)) == [t for mm, t in expected if mm == m]


@pytest.mark.parametrize("name", ["r2", "thinned", "grown", "far"])
def test_miwa_stencils_match_lattice_point_oracle(sweep_tables, name):
    table = sweep_tables[name]
    bases = miwa_bases(table)
    expected = []
    for base in bases:
        for stencil in MIWA_STENCILS:
            try:
                polys = [table.get(LatticePoint(tuple(b + x + y for b, x, y in
                                                      zip(base, delta(i), delta(j))))).T
                         for i, j in stencil.pairs]
            except MissingTau:
                continue
            expected.append((base, stencil, polys))
    got = list(iter_miwa_stencils(PointIndex(table), bases))
    assert len(got) == len(expected) > 0
    for (base, stencil, polys), (base_exp, stencil_exp, polys_exp) in zip(got, expected):
        assert base == base_exp and stencil is stencil_exp
        assert all(a is b for a, b in zip(polys, polys_exp))


def test_point_index_keys_are_injective_near_the_table(sweep_tables):
    """Distinct vectors within two unit moves of the table get distinct keys,
    and the keys of the table's points sort like their coordinates."""
    steps = [move_vector(i, k).alpha for i in range(1, 7) for k in range(1, 7) if i != k]
    steps.append((0,) * 6)
    for name in ("grown", "far"):
        table = sweep_tables[name]
        index = PointIndex(table)
        near = {p.alpha for p in table.points()}
        for _ in range(2):
            near = {tuple(map(operator.add, a, u)) for a in near for u in steps}
        assert len({index.key(a) for a in near}) == len(near)
        assert index.bases == [index.key(p.alpha) for p in table.points()]
