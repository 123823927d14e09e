from fractions import Fraction

import pytest

from p6tau.backlund import DegenerateK, iter_move_configurations, sigma_difference, sigma_of
from p6tau.f4 import (
    E0_F4,
    F4Vector,
    MissingPreimage,
    OddSignCount,
    PERMUTATION_T_MAPS,
    TODA_GAMMAS,
    a5_to_f4,
    component_permute,
    d4_action,
    short_sets,
    sigma_step,
    simple_roots_check,
    toda_gamma_table,
    toda_step_f4,
)
from p6tau.grassmann import MissingTau
from p6tau.lattice import E0_VECTOR, LatticePoint, MoveIJK, ball, e0_translate, move_vector

ORIGIN = LatticePoint((0, 0, 0, 0, 0, 0))
# F4Vector(v0, (2v1, 2v2, 2v3, 2v4)): the entries are stored doubled
E1 = F4Vector(0, (2, 0, 0, 0))
E2 = F4Vector(0, (0, 2, 0, 0))
E3 = F4Vector(0, (0, 0, 2, 0))
E4 = F4Vector(0, (0, 0, 0, 2))


def test_membership_rule_enforced():
    F4Vector(2, (1, 1, -1, 1))
    F4Vector(0, (2, 0, -4, 6))
    with pytest.raises(ValueError):
        F4Vector(0, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        F4Vector(0, (Fraction(2, 3), 0, 0, 0))


def test_a5_to_f4_accepts_every_point_of_ball_3():
    # the doubled coordinates (a1+a3)+2a_{3+i} and a1-a3 always share parity
    for p in ball(3):
        image = a5_to_f4(p)
        assert len({x % 2 for x in image.twice}) == 1


def test_a5_to_f4_examples():
    assert a5_to_f4(ORIGIN) == F4Vector(0, (0, 0, 0, 0))
    assert a5_to_f4(move_vector(5, 6)) == E2 - E3
    p = LatticePoint((0, 1, 1, 0, -1, -1))
    assert a5_to_f4(p) == F4Vector(0, (1, -1, -1, -1))


def test_e0_identities():
    assert a5_to_f4(E0_VECTOR) == E0_F4
    from p6tau.lattice import r_weight

    assert r_weight(E0_VECTOR) == 0
    for p in ball(1)[::4]:
        q, _ = e0_translate(p)
        assert a5_to_f4(q) == a5_to_f4(p) + E0_F4


def test_linearity_and_kernel_on_ball():
    pts = ball(2)
    for p in pts[::17]:
        for q in pts[::23]:
            assert a5_to_f4(p + q) == a5_to_f4(p) + a5_to_f4(q)
    for p in pts:
        img = a5_to_f4(p)
        if img == F4Vector(0, (0, 0, 0, 0)):
            assert p == ORIGIN


def test_simple_roots_all_match():
    report = simple_roots_check()
    assert len(report) == 5
    assert all(row["match"] for row in report)


def test_short_sets_contents():
    s1, s2, s3 = short_sets()
    for s in (s1, s2, s3):
        assert len(s.elements) == 5
        for vec in s.elements:
            assert vec.finite_norm() == 1
    for e in (E1, E2, E3):
        assert e in s2.elements
    assert E0_F4 + E4 in s3.elements
    half_combo = F4Vector(0, (-1, -1, -1, 1))
    assert half_combo in s3.elements
    assert E0_F4 + E4 in s1.elements
    assert E0_F4 + F4Vector(0, (1, 1, 1, 1)) in s1.elements


def _nonzero_squares(table, m):
    for taus in iter_move_configurations(table, m):
        if not any(t.is_zero() for t in taus):
            yield tuple(sigma_of(t) for t in taus)


def _short_root_move(j, a, b):
    """The move of a step along (g1, g2) in S_j whose preimages are d_a - d_j
    and d_b - d_j (in S1: d_1 - d_a and d_1 - d_b): d_i - d_k = pre(g1) - pre(g2)."""
    s_j = short_sets()[j - 1]
    pre = dict(zip((i for i in range(1, 7) if i != j), s_j.preimages))
    diff = pre[a] - pre[b]
    i, k = diff.alpha.index(1) + 1, diff.alpha.index(-1) + 1
    return MoveIJK(i, j, k)


def test_short_root_pairs_are_moves():
    moves = {_short_root_move(j, a, b)
             for j in (1, 2, 3) for a in range(1, 7) for b in range(1, 7)
             if len({j, a, b}) == 3}
    assert len(moves) == 60
    assert _short_root_move(2, 1, 4) == MoveIJK(1, 2, 4)
    assert _short_root_move(1, 2, 4) == MoveIJK(4, 1, 2)


def test_sigma_step_round_trip(table2):
    done = 0
    for j, a, b in ((2, 1, 4), (2, 5, 3), (1, 2, 4), (3, 6, 1)):
        m = _short_root_move(j, a, b)
        for s_a, s_ik, s_ij, s_jk in list(_nonzero_squares(table2, m))[::11]:
            try:
                got = sigma_step(s_a, s_ik, s_ij, m)
            except DegenerateK:
                continue
            assert got.point == s_jk.point
            assert sigma_difference(got, s_jk).is_zero()
            done += 1
    assert done > 4


def test_sigma_step_rejects_points_off_the_move(table2):
    m = MoveIJK(1, 2, 4)
    s_a, s_ik, s_ij, s_jk = next(_nonzero_squares(table2, m))
    with pytest.raises(MissingPreimage):
        sigma_step(s_a, s_ik, s_a, m)
    with pytest.raises(MissingPreimage):
        sigma_step(s_a, s_ij, s_jk, m)
    with pytest.raises(MissingPreimage):
        sigma_step(s_a, s_ik, s_ij, MoveIJK(1, 3, 4))


def test_toda_gamma_table_covers_three_lines():
    rows = toda_gamma_table()
    assert len(rows) == 6
    pairs = {tuple(r["pair"]) for r in rows}
    assert pairs == {(1, 2), (1, 3), (2, 3)}
    # the three tabulated step vectors match their stated images
    gammas = {tuple(vec.to_json()) for vec, _ in TODA_GAMMAS}
    assert tuple((E0_F4 + F4Vector(0, (1, 1, 1, 1))).to_json()) in gammas
    assert tuple(F4Vector(0, (1, 1, 1, -1)).to_json()) in gammas
    assert tuple((E0_F4 + E4).to_json()) in gammas


def test_toda_step_round_trip(table2):
    done = 0
    for vec, pair in TODA_GAMMAS:
        a, b = pair
        v = move_vector(a, b)
        for p in table2.points():
            t_beta = table2.get(p)
            if t_beta.is_zero():
                continue
            try:
                t_plus, t_minus = table2.get(p + v), table2.get(p - v)
            except MissingTau:
                continue
            if t_plus.is_zero():
                continue
            stepped = toda_step_f4(t_beta, t_plus, vec)
            assert stepped.point == p - v and stepped.T == t_minus.T
            done += 1
    assert done > 20


def test_toda_step_zero_product_forces_zero(table2):
    # T = 1 at the origin: the Toda product vanishes, so any nonzero known
    # neighbor forces the opposite neighbor to zero.  Fake a nonzero neighbor.
    from p6tau.grassmann import TauT

    vec, pair = TODA_GAMMAS[0]
    v = move_vector(*pair)
    fake = TauT(ORIGIN + v, type(table2.get(ORIGIN).T).constant(3), -1)
    stepped = toda_step_f4(table2.get(ORIGIN), fake, vec)
    assert stepped.is_zero()


def test_d4_action_examples():
    v = (1, 2, 3, 4)
    assert d4_action(v, (0, 1, 2, 3), (1, 1, 1, 1)) == v
    swapped = d4_action(v, (1, 0, 2, 3), (-1, -1, 1, 1))
    assert swapped == (-2, -1, 3, 4)
    with pytest.raises(OddSignCount):
        d4_action(v, (0, 1, 2, 3), (-1, 1, 1, 1))


def test_component_permute_identity_and_signs(table1):
    new_table, signs, t_map = component_permute((0, 1, 2), table1)
    assert t_map == "t"
    assert all(new_table.get(p) == table1.get(p) for p in table1.points())
    assert all(s in (1, None) for s in signs.values())
    for perm, expected in (((2, 1, 0), "1-t"), ((1, 0, 2), "t/(t-1)"), ((0, 2, 1), "1/t")):
        _, signs, t_map = component_permute(perm, table1)
        assert t_map == expected
        assert all(s != 0 for s in signs.values())


@pytest.mark.parametrize("perm", sorted(PERMUTATION_T_MAPS))
def test_each_named_t_map_sends_the_relabeled_t_back_to_t(perm):
    for t in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
        y = (0, 1, 1 / t)
        x = [y[perm.index(b)] for b in range(3)]
        t_prime = (x[1] - x[0]) / (x[2] - x[0])
        assert eval(PERMUTATION_T_MAPS[perm], {"t": t_prime}) == t


def test_sigma_step_reverse_direction(table2):
    m = MoveIJK(5, 3, 2)
    for s_a, s_ik, s_ij, s_jk in _nonzero_squares(table2, m):
        try:
            got = sigma_step(s_a, s_ik, s_jk, m)
        except DegenerateK:
            continue
        assert got.point == s_ij.point
        assert sigma_difference(got, s_ij).is_zero()
        return
    raise AssertionError("no configuration found")
