import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from p6tau import cli, grassmann
from p6tau.exactalg import LaurentPoly
from p6tau.grassmann import (
    FrameMatrix,
    GaugeDependence,
    HomogeneityViolation,
    MissingTau,
    SingularFrame,
    TauTable,
    WedgeTerm,
    bosonize,
    expand_wedge,
    family_sign,
    schur_first_times,
    seed_table,
    specialize_to_t,
    tau_det,
    tau_in_x,
    translation_gradient,
)
from p6tau.lattice import LatticePoint, ball, e0_translate, r_weight


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def syt_count(parts):
    """Number of standard tableaux by recursive corner removal."""
    parts = tuple(p for p in parts if p)
    if not parts:
        return 1
    total = 0
    for i in range(len(parts)):
        if parts[i] and (i == len(parts) - 1 or parts[i] > parts[i + 1]):
            shrunk = parts[:i] + (parts[i] - 1,) + parts[i + 1:]
            total += syt_count(shrunk)
    return total


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_singular_frame_rejected():
    with pytest.raises(SingularFrame):
        FrameMatrix(((1, 2, 3), (1, 2, 3), (0, 1, 1)))


def test_frame_gauge_is_unimodular():
    f = FrameMatrix.vandermonde()
    assert f.det() == 1
    # rows 2 and 3 keep their integer entries; only row 1 is rescaled
    assert f.rows[1] == (1, 2, 4) and f.rows[2] == (1, 3, 9)


# ---------------------------------------------------------------------------
# wedge expansion
# ---------------------------------------------------------------------------

def test_vacuum_expansion():
    terms = expand_wedge((0, 0, 0), FrameMatrix.vandermonde())
    assert terms == [WedgeTerm((0, 0, 0), ((), (), ()), 1, Fraction(1))]


def test_single_shift_sectors_are_signed_minors():
    f = FrameMatrix.vandermonde()
    table = seed_table((1, 0, 0), f)
    rows = f.rows
    minor = lambda cols: (rows[1][cols[0]] * rows[2][cols[1]]
                          - rows[1][cols[1]] * rows[2][cols[0]])
    # charge (-1,0,0): columns 2,3 of the lower rows
    assert table[(-1, 0, 0)].T == LaurentPoly.constant(minor((1, 2)))
    assert table[(-1, 0, 0)].T == LaurentPoly.constant(6)
    assert table[(0, -1, 0)].T == LaurentPoly.constant(-minor((0, 2)))
    assert table[(0, 0, -1)].T == LaurentPoly.constant(minor((0, 1)))


def test_full_shift_is_signed_unit():
    # the wedge of mu = (1,1,1) is the standard tail shifted once; with the
    # unimodular gauge its only sector carries coefficient -1, as the lattice
    # translation relation demands.
    table = seed_table((1, 1, 1), FrameMatrix.vandermonde())
    assert table[(-1, -1, -1)].T == LaurentPoly.constant(-1)


def test_charge_selection_rule():
    f = FrameMatrix.vandermonde()
    for mu in ((1, 0, 0), (1, 1, 0), (2, -1, 0)):
        for term in expand_wedge(mu, f):
            assert sum(term.charges) == -sum(mu)
    assert (1, -1, 0) not in tau_in_x((0, 0, 0), f)
    assert (0, 0, 0) not in tau_in_x((1, 0, 0), f)


# ---------------------------------------------------------------------------
# bosonization
# ---------------------------------------------------------------------------

def partitions(n, largest=None):
    """Every partition of n with parts at most largest, as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_schur_specialization_against_tableau_oracle():
    every = [parts for n in range(10) for parts in partitions(n)]
    assert len(every) == 1 + 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22 + 30
    for parts in every:
        # s_lambda = x^n f^lambda / n!, f^lambda the number of standard tableaux
        assert schur_first_times(parts) == Fraction(syt_count(parts), factorial(sum(parts)))


def test_bosonize_examples():
    empty = WedgeTerm((0, 0, 0), ((), (), ()), 1, Fraction(3, 2))
    assert bosonize(empty) == ((0, 0, 0), Fraction(3, 2))
    row = WedgeTerm((0, 0, 0), ((4,), (), ()), 1, Fraction(1))
    assert bosonize(row) == ((4, 0, 0), Fraction(1, 24))
    col = WedgeTerm((0, 0, 0), ((), (1, 1), ()), 1, Fraction(1))
    # hook lengths of (1, 1) are 2 and 1, so s = x^2/2
    assert bosonize(col) == ((0, 2, 0), Fraction(1, 2))


def test_tau_in_x_sums_terms_and_drops_cancelled_ones():
    f = FrameMatrix.vandermonde()
    term = WedgeTerm((0, 0, 0), ((1,), (), ()), 1, Fraction(2))
    assert tau_in_x((0, 0, 0), f, [term, term]) == {(0, 0, 0): {(1, 0, 0): 4}}
    assert tau_in_x((0, 0, 0), f, [term, replace(term, sign=-1)]) == {}


# ---------------------------------------------------------------------------
# specialization to t
# ---------------------------------------------------------------------------

def test_specialize_examples():
    origin = LatticePoint((0, 0, 0, 0, 0, 0))
    assert specialize_to_t(origin, {(0, 0, 0): Fraction(1)}).T == LaurentPoly.constant(1)

    # x2 - x1 -> h, so T = 1 at weight 1
    tau = specialize_to_t(LatticePoint((0, 0, 0, 1, -1, 0)),
                          {(0, 1, 0): Fraction(1), (1, 0, 0): Fraction(-1)})
    assert tau.weight == 1 and tau.T == LaurentPoly.constant(1)

    # x3 - x1 -> h/t, so T = 1/t at weight 1
    tau3 = specialize_to_t(LatticePoint((0, 0, 0, 1, 0, -1)),
                           {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(-1)})
    assert tau3.T == LaurentPoly.monomial(1, -1)


def test_translation_gradient():
    # (d1 + d2 + d3)(x1^2 - x2^2 + x1 x3) = 3 x1 - 2 x2 + x3
    sector = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1), (1, 0, 1): Fraction(1)}
    assert translation_gradient(sector) == {(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 1}
    # (x2 - x1)(x3 - x1) is a function of differences only
    assert translation_gradient({(0, 1, 1): 1, (1, 1, 0): -1, (1, 0, 1): -1, (2, 0, 0): 1}) == {}


def test_specialize_rejects_gauge_dependent_input():
    # x1 at weight 1, and x2^2 - x1 x3 at weight 2: homogeneous of the weight
    # of its point, with an x1-free term that alone would give T = 1, but
    # d1 + d2 + d3 maps it to 2 x2 - x1 - x3, so u survives
    for point, sector in ((LatticePoint((0, 0, 0, 1, -1, 0)), {(1, 0, 0): 1}),
                          (LatticePoint((-1, 1, 0, 2, -1, -1)), {(0, 2, 0): 1, (1, 0, 1): -1})):
        assert all(sum(exps) == r_weight(point) for exps in sector)
        with pytest.raises(GaugeDependence):
            specialize_to_t(point, sector)


@pytest.mark.parametrize("terms", [
    pytest.param({(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): -1}, id="mixed-degrees"),
    pytest.param({(0, 2, 0): 1, (1, 1, 0): -2, (2, 0, 0): 1}, id="degree-above-weight"),
])
def test_specialize_rejects_inhomogeneous_sector(terms):
    # both sectors are killed by d1 + d2 + d3, so only the degree check can fail
    point = LatticePoint((0, 0, 0, 1, -1, 0))
    assert r_weight(point) == 1
    with pytest.raises(HomogeneityViolation):
        specialize_to_t(point, terms)


def test_translation_invariance_and_euler_on_ball():
    f = FrameMatrix.vandermonde()
    for mu in sorted({p.mu for p in ball(2)}):
        sectors = tau_in_x(mu, f)
        taus = seed_table(mu, f)
        assert set(sectors) <= set(taus)
        for charge, tau in taus.items():
            sector = sectors.get(charge)
            if sector is None:
                assert tau.is_zero()
                continue
            assert all(sector.values())
            assert translation_gradient(sector) == {}
            assert all(sum(exps) == tau.weight for exps in sector)


def test_seed_table_stores_zero_entries():
    table = seed_table((0, 0, 0), FrameMatrix.vandermonde())
    assert table[(0, 0, 0)].T == LaurentPoly.constant(1)
    assert all(t.is_zero() for c, t in table.items() if c != (0, 0, 0))


def test_family_sign_translation_invariant():
    for mu in itertools.product(range(-2, 3), repeat=3):
        shifted = tuple(m - 1 for m in mu)
        assert family_sign(mu) == family_sign(shifted)


def test_frame_row_permutation_changes_tau_by_sign_at_most():
    f = FrameMatrix.vandermonde()
    for perm in itertools.permutations(range(3)):
        g = f.permuted(perm)
        inverse = tuple(perm.index(a) for a in range(3))
        for p in ball(1):
            mu_p = tuple(p.mu[perm[a]] for a in range(3))
            ch_p = tuple(p.charge[perm[a]] for a in range(3))
            tp = tau_in_x(p.mu, f).get(p.charge, {})
            tq = {(k[inverse[0]], k[inverse[1]], k[inverse[2]]): v
                  for k, v in tau_in_x(mu_p, g).get(ch_p, {}).items()}
            assert tq == tp or tq == {k: -v for k, v in tp.items()}


# ---------------------------------------------------------------------------
# the determinant against the wedge expansion
# ---------------------------------------------------------------------------

ORACLE_FRAMES = {
    "vandermonde": ((1, 1, 1), (1, 2, 4), (1, 3, 9)),
    # entries +-a/b with 50 <= a, b <= 99, as the benchmark's frame sweep draws them
    "dense": (("-67/53", "89/71", "55/97"),
              ("73/61", "-59/83", "91/67"),
              ("-79/89", "97/59", "-63/73")),
    "triangular": ((1, 0, 0), (2, 3, 0), (4, 5, 6)),
    "zero-entries": ((0, 1, 2), (3, 0, 5), (7, 11, 0)),
}


@pytest.mark.parametrize("rows", ORACLE_FRAMES.values(), ids=ORACLE_FRAMES.keys())
def test_tau_det_matches_wedge_expansion_on_ball2(rows):
    f = FrameMatrix(rows)
    families = {mu: seed_table(mu, f) for mu in {p.mu for p in ball(2)}}
    nonzero = 0
    for p in ball(2):
        got = tau_det(p, f)
        assert got.weight == r_weight(p)
        if got.weight < 0:
            assert got.is_zero()
            continue
        assert got == families[p.mu][p.charge], p
        nonzero += not got.is_zero()
    assert nonzero > 0


def test_tau_det_is_zero_when_a_charge_is_below_the_head():
    # weight 0, yet L + c_1 = 1 - 2 < 0 leaves component 1 no rows
    f = FrameMatrix.vandermonde()
    p = LatticePoint((-2, 1, 1, -2, 1, 1))
    assert r_weight(p) == 0
    assert tau_det(p, f).is_zero()
    assert seed_table(p.mu, f)[p.charge].is_zero()


def test_tau_det_rejects_x1_dependent_entry(monkeypatch, tmp_path, capsys):
    build = grassmann._integer_matrix

    def x1_in_first_entry(rows, entries, x):
        out = build(rows, entries, x)
        if out:
            out[0][0] += x[0]
        return out

    monkeypatch.setattr(grassmann, "_integer_matrix", x1_in_first_entry)
    with pytest.raises(GaugeDependence):
        TauTable.build(FrameMatrix.vandermonde(), 1)
    assert cli.main(["gen", "--radius", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "u survives" in capsys.readouterr().err


def test_tau_det_rejects_a_wrong_degree_count(monkeypatch, tmp_path, capsys):
    # one more than the slot degrees sum(k') - sum(k) can give
    weight = grassmann.r_weight
    monkeypatch.setattr(grassmann, "r_weight", lambda p: weight(p) + 1)
    with pytest.raises(HomogeneityViolation):
        TauTable.build(FrameMatrix.vandermonde(), 1)
    assert cli.main(["gen", "--radius", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "degree" in capsys.readouterr().err


def test_tau_det_rejects_an_entry_table_without_the_shift(monkeypatch, tmp_path, capsys):
    # C(1, 0) read as 2 breaks D N = N T in the entry table itself, which the
    # shift check sees before any determinant is evaluated
    comb = math.comb
    monkeypatch.setattr(grassmann.math, "comb", lambda n, k: comb(n, k) + ((n, k) == (1, 0)))
    with pytest.raises(GaugeDependence, match="entry table"):
        TauTable.build(FrameMatrix.vandermonde(), 1)
    assert cli.main(["gen", "--radius", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "u survives in the entry table" in capsys.readouterr().err


@pytest.mark.parametrize("frame_rows", ORACLE_FRAMES.values(), ids=ORACLE_FRAMES.keys())
def test_shift_check_and_translation_lemma_on_ball2(monkeypatch, frame_rows):
    # the shift check runs on every point with a matrix and passes; and the
    # lemma behind it holds on each rescaled matrix M on its own:
    # M(x + u(1,1,1)) = M(x) V(u) with V[(j, k''), (j, k)] = C(k''-m, k-m) u^(k''-k)
    check = grassmann._check_shift
    seen = []

    def spy(point, rows, cols, entries, m):
        check(point, rows, cols, entries, m)
        seen.append((point, rows, cols, entries, m))

    monkeypatch.setattr(grassmann, "_check_shift", spy)
    f = FrameMatrix(frame_rows)
    for p in ball(2):
        tau_det(p, f)
    assert {s[0] for s in seen} == {
        p for p in ball(2)
        if r_weight(p) >= 0 and all(max(p.mu) + c >= 0 for c in p.charge)}
    x, u = (3, -2, 5), 2
    for point, rows, cols, entries, m in seen:
        v = [[math.comb(k2 - m, k - m) * u ** (k2 - k) if j2 == j and k2 >= k else 0
              for j, k in cols] for j2, k2 in cols]
        at_x = grassmann._integer_matrix(rows, entries, x)
        times_v = [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in at_x]
        assert grassmann._integer_matrix(rows, entries, tuple(xa + u for xa in x)) == times_v, point


def _nonsingular(rows):
    try:
        return FrameMatrix(rows)
    except grassmann.SingularFrame:
        return None


@settings(deadline=None, max_examples=15)
@given(st.lists(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_tau_det_matches_seed_table_on_random_frames(frame_rows):
    f = _nonsingular(frame_rows)
    assume(f is not None)
    families = {mu: seed_table(mu, f) for mu in {p.mu for p in ball(1)}}
    for p in ball(1):
        got = tau_det(p, f)
        if got.weight < 0:
            assert got.is_zero()
        else:
            assert got == families[p.mu][p.charge], p


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_build_and_json_round_trip():
    f = FrameMatrix.vandermonde()
    table = TauTable.build(f, 1)
    assert len(table) == 31
    reloaded = TauTable.from_json(table.to_json(), frame=f, radius=1)
    assert reloaded.entries == table.entries


def test_table_missing_point_raises():
    table = TauTable.build(FrameMatrix.vandermonde(), 0)
    with pytest.raises(MissingTau):
        table.get(LatticePoint((1, -1, 0, 0, 0, 0)))


def test_translation_relation_on_ball():
    table = TauTable.build(FrameMatrix.vandermonde(), 1)
    for p in ball(1):
        q, sign = e0_translate(p)
        assert table.tau(p).T == sign * table.tau(q).T
