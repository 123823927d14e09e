"""Identity suites over a tau table, shared by the CLI and the test suite.

Each suite sweeps every admissible configuration inside the table, checks an
exact residual, and reports the configurations that fail (with the term count
of the offending residual).  A table passes a suite iff the failure list is
empty; nothing is tolerance-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .backlund import (
    EpsTable,
    InsufficientData,
    NoConsistentSign,
    PointIndex,
    TODA_PAIRS,
    SigmaFn,
    SquareSweep,
    T_SQUARED,
    eps_block_inversions,
    iter_miwa_stencils,
    jmo_residual,
    jmo_residual_with_v,
    move_sign,
    sigma_of,
    stencil_residual,
    toda_product,
)
from .exactalg import LaurentPoly
from .f4 import (
    TODA_GAMMAS,
    a5_to_f4,
    component_permute,
    d4_action,
    short_sets,
    simple_roots_check,
    toda_step_f4,
)
from .grassmann import TauT, TauTable
from .lattice import LatticePoint, ball, e0_translate, twice_v


@dataclass
class SuiteReport:
    """A suite's checks and failures, and with keep every configuration."""

    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    configurations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    keep: bool = True

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, terms: int = 0, **labels):
        self.checks += 1
        if not ok:
            self.failures.append({**labels, "ok": False, "terms": terms})
        if self.keep:
            self.configurations.append(self.failures[-1] if not ok else {**labels, "ok": True})

    def to_json(self) -> dict:
        out = {"suite": self.name, "checks": self.checks, "passed": self.passed,
               "failures": self.failures, "notes": self.notes}
        if self.keep:
            out["configurations"] = self.configurations
        return out


def _terms(poly) -> int:
    return sum(1 for c in poly.coeffs if c)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def suite_toda(table: TauTable, configurations: bool = True) -> SuiteReport:
    rep = SuiteReport("toda", keep=configurations)
    index = PointIndex(table)
    taus = index.taus
    lines = [(pair, index.shift(*pair)) for pair in TODA_PAIRS]
    for k in index.bases:
        tau = taus[k]
        for pair, v in lines:
            t_plus, t_minus = taus.get(k + v), taus.get(k - v)
            if t_plus is None or t_minus is None:
                continue
            residual = toda_product(tau, pair) - t_plus.T * t_minus.T
            rep.record(residual.is_zero(), _terms(residual),
                       point=tau.point.to_json(), pair=list(pair))
    return rep


def miwa_bases(table: TauTable):
    """Candidate 6-vectors beta (entries summing to -2) near the table."""
    seen = set()
    for p in table.points():
        for da in range(1, 7):
            for db in range(da + 1, 7):
                base = list(p.alpha)
                base[da - 1] -= 1
                base[db - 1] -= 1
                seen.add(tuple(base))
    return sorted(seen)


def suite_miwa(table: TauTable, configurations: bool = True) -> SuiteReport:
    rep = SuiteReport("miwa", keep=configurations)
    for base, stencil, polys in iter_miwa_stencils(PointIndex(table), miwa_bases(table)):
        res = stencil_residual(stencil, polys)
        if stencil.identity == 1:
            labels = {"ell": stencil.indices[0]}
        else:
            labels = {"indices": list(stencil.indices)}
        rep.record(res.is_zero(), _terms(res), identity=stencil.identity, base=list(base),
                   **labels)
    return rep


def suite_jmo(table: TauTable, configurations: bool = True) -> SuiteReport:
    rep = SuiteReport("jmo", keep=configurations)
    for p in table.nonzero_points():
        res = jmo_residual(sigma_of(table.get(p)))
        rep.record(res.is_zero(), _terms(res), point=p.to_json())
    return rep


# ---------------------------------------------------------------------------
# move-square suites: one walk feeds bilinear, sigma-backlund and f4
# ---------------------------------------------------------------------------

class _Bilinear:
    """Per move, the sign is calibrated from the squares' (L, P) pairs, then
    each square checks L - eps P (the walk's difference) and the solve-fourth
    division L / (eps Tij) against Tjk.  A move whose squares all have P = 0
    cannot be calibrated; move_sign raises NoConsistentSign for a nonzero L
    first, so each such square has L = 0 too and the relation holds with
    either sign: the move is listed in the notes' uncalibrated_moves and
    checked with the closed-form sign.  Any other calibration failure
    replaces the whole report, with calibrate_eps's error, and ends the suite."""

    done = False

    def __init__(self, sweep: SquareSweep, configurations: bool):
        self.rep = SuiteReport("bilinear", keep=configurations)
        self.signs, self.uncalibrated, self.error = {}, [], None

    def move(self, m, squares):
        if self.done:
            return
        closed = eps_block_inversions(m.i, m.j, m.k)
        try:
            sign = self.signs[(m.i, m.j, m.k)] = move_sign(m, squares)
        except InsufficientData:
            self.uncalibrated.append([m.i, m.j, m.k])
            sign = closed
        except NoConsistentSign as exc:
            self.error, self.done = exc, True
            return
        labels = {"move": [m.i, m.j, m.k]}
        for square in squares:
            t_a, _, t_ij, t_jk = square.taus
            lhs, rhs = square.sides
            residual = square.difference if sign == closed else lhs - sign * rhs
            base = t_a.point.to_json()
            self.rep.record(residual.is_zero(), _terms(residual), **labels, base=base)
            if not t_ij.is_zero():
                solved = lhs.exact_divide(t_ij.T if sign == 1 else -t_ij.T)
                self.rep.record(solved == t_jk.T, _terms(solved - t_jk.T), check="solve-fourth",
                                **labels, base=base)

    def report(self) -> SuiteReport:
        rep = self.rep
        if self.error is not None:
            rep = SuiteReport("bilinear", keep=rep.keep)
            rep.record(False, 1, check="calibration", error=str(self.error))
            return rep
        rep.notes["eps_table"] = EpsTable(self.signs).to_json()
        if self.uncalibrated:
            rep.notes["uncalibrated_moves"] = self.uncalibrated
        formula_matches = all(
            sign == eps_block_inversions(*move) for move, sign in self.signs.items()
        )
        rep.notes["eps_matches_closed_form"] = formula_matches
        if not formula_matches:
            rep.record(False, 0, check="eps-closed-form")
        return rep


class _SigmaBacklund:
    """The sigma-level relation on every square of four nonzero taus, and its
    implication: the bilinear residual, with the closed-form sign, vanishes
    on the same square.  Squares where K vanishes are counted, not checked.
    The walk's R needs no sigma: K = (t(t-1)/b_j) L/(Ta Tik) vanishes exactly
    when L = 0, and R is a multiple of the Wronskian of the bilinear sides
    (backlund.sigma_residual_of_sides)."""

    done = False

    def __init__(self, sweep: SquareSweep, configurations: bool):
        self.rep = SuiteReport("sigma-backlund", keep=configurations)
        self.degenerate = 0

    def move(self, m, squares):
        rep = self.rep
        for square in squares:
            if any(tau.is_zero() for tau in square.taus):
                continue
            res = square.residual
            if res is None:
                self.degenerate += 1
                continue
            labels = {"move": [m.i, m.j, m.k], "base": square.taus[0].point.to_json()}
            rep.record(res.is_zero(), _terms(res), **labels)
            # a failure counts the terms of whichever residual is nonzero, sigma's first
            bil = square.difference
            rep.record(bil.is_zero() and res.is_zero(), _terms(bil if res.is_zero() else res),
                       check="implication", **labels)

    def report(self) -> SuiteReport:
        self.rep.notes["degenerate_K"] = self.degenerate
        return self.rep


class _F4:
    """The F4 correspondence on the table: membership of each point's image,
    the simple roots, the short-root sets and the Toda steps, recorded before
    the walk, and the sigma steps, recorded from the walk's squares.

    A sigma step's round-trip residual sigma_difference(sigma_step(s_a,
    s_ik, s_ij, m), s_jk) is exactly -R, R the sigma-backlund residual of
    the square, degenerate on the same squares; so each step is checked
    through the walk's R, with the same verdict and term count.  That R
    needs no sigma: K = (t(t-1)/b_j) L/(Ta Tik) vanishes exactly when L = 0,
    and R is a multiple of the Wronskian of the bilinear sides
    (backlund.sigma_residual_of_sides).

    The membership check cannot fail: a5_to_f4 writes the doubled coordinates
    (a1+a3)+2a_{3+i} and a1-a3, which always share their parity, so every
    lattice point has an image.  It is kept, one check per point, as the
    record that every point of the table was mapped.
    """

    done = False

    def __init__(self, sweep: SquareSweep, configurations: bool):
        self.rep = rep = SuiteReport("f4", keep=configurations)
        for p in sweep.table.points():
            try:
                a5_to_f4(p)
                ok = True
            except ValueError:
                ok = False
            rep.record(ok, 0 if ok else 1, check="membership", point=p.to_json())
        roots = simple_roots_check()
        rep.notes["simple_roots"] = roots
        for row in roots:
            rep.record(row["match"], 0 if row["match"] else 1, check="simple-root",
                       root=row["root"])
        short = all(v.finite_norm() == 1 for s in short_sets() for v in s.elements)
        rep.record(short, 0 if short else 1, check="short-sets")
        rep.notes["toda_gamma_pairs"] = [
            {"gamma": vec.to_json(), "pair": list(pair)} for vec, pair in TODA_GAMMAS
        ]
        index = sweep.index
        taus = index.taus
        for vec, pair in TODA_GAMMAS:
            v = index.shift(*pair)
            for k in index.bases:
                t_beta = taus[k]
                if t_beta.is_zero():
                    continue
                t_plus, t_minus = taus.get(k + v), taus.get(k - v)
                if t_plus is None or t_minus is None or t_plus.is_zero():
                    continue
                stepped = toda_step_f4(t_beta, t_plus, vec)
                rep.record(stepped.T == t_minus.T, _terms(stepped.T - t_minus.T),
                           check="toda-step", point=t_beta.point.to_json(), pair=list(pair))

    def move(self, m, squares):
        # a step along (g1, g2) in S_j is the move (i, j, k) with
        # d_i - d_k = pre(g1) - pre(g2), so every move square is one step
        for square in squares:
            res = square.residual
            if res is not None:
                self.rep.record(res.is_zero(), _terms(res), check="sigma-step",
                                move=[m.i, m.j, m.k], base=square.taus[0].point.to_json())

    def report(self) -> SuiteReport:
        return self.rep


SQUARE_SUITES = {"bilinear": _Bilinear, "sigma-backlund": _SigmaBacklund, "f4": _F4}


class SquarePass:
    """The reports of the move-square suites in `names`, repeats included,
    from one SquareSweep walk, stopped once every suite is done.  It runs
    when the first report is taken, and again, for the reports not yet
    taken, when the table has grown since (suite_symmetry adds points)."""

    def __init__(self, table: TauTable, names, configurations: bool = True):
        self.table, self.names, self.configurations = table, list(names), configurations
        self.reports, self.size = [], None

    def take(self, name: str) -> SuiteReport:
        if self.size != len(self.table):
            sweep = SquareSweep(self.table)
            suites = [SQUARE_SUITES[n](sweep, self.configurations) for n in self.names]
            for m, squares in sweep.moves():
                for suite in suites:
                    suite.move(m, squares)
                if all(suite.done for suite in suites):
                    break
            self.reports, self.size = [suite.report() for suite in suites], len(self.table)
        i = self.names.index(name)
        del self.names[i]
        return self.reports.pop(i)


def suite_bilinear(table: TauTable, configurations: bool = True,
                   squares: SquarePass | None = None) -> SuiteReport:
    """_Bilinear's report, from run_suites' shared walk when given one."""
    return (squares or SquarePass(table, ["bilinear"], configurations)).take("bilinear")


def suite_sigma_backlund(table: TauTable, configurations: bool = True,
                         squares: SquarePass | None = None) -> SuiteReport:
    """_SigmaBacklund's report, from run_suites' shared walk when given one."""
    return (squares or SquarePass(table, ["sigma-backlund"], configurations)).take(
        "sigma-backlund")


def suite_f4(table: TauTable, configurations: bool = True,
             squares: SquarePass | None = None) -> SuiteReport:
    """The F4 correspondence (_F4).  Its sigma steps are checked through the
    R of each square that the walk computes once, for this suite and
    sigma-backlund alike; from run_suites' shared walk when given one."""
    return (squares or SquarePass(table, ["f4"], configurations)).take("f4")


# ---------------------------------------------------------------------------
# correspondence and symmetry suites
# ---------------------------------------------------------------------------

D4_SAMPLES = (
    ((0, 1, 2, 3), (1, 1, 1, 1)),
    ((1, 0, 2, 3), (-1, -1, 1, 1)),
    ((3, 2, 1, 0), (1, -1, -1, 1)),
    ((2, 3, 0, 1), (-1, -1, -1, -1)),
    ((1, 2, 3, 0), (1, 1, 1, 1)),
)


def d4_probe(s: SigmaFn) -> tuple[LaurentPoly, LaurentPoly]:
    """sigma + t^2 as (num, den): its sigma-form residual is nonzero for
    every parameter quadruple.  sigma = O(t) at infinity, so the probe is
    t^2 + O(t) and its residual is 16 t^6 + O(t^5), times 256 den^8."""
    return s.num + T_SQUARED * s.den, s.den


def suite_symmetry(table: TauTable, configurations: bool = True) -> SuiteReport:
    rep = SuiteReport("symmetry", keep=configurations)
    for p in table.nonzero_points():
        v = twice_v(p.alpha)
        squares, product = sorted(x * x for x in v), math.prod(v)
        for perm, signs in D4_SAMPLES:
            w = d4_action(v, perm, signs)
            squares_ok = sorted(x * x for x in w) == squares
            product_ok = math.prod(w) == product
            # the residual reads v only through v1v2v3v4 and the multiset of
            # the v_k^2, so equal squares and product imply an equal value
            value_ok = squares_ok and product_ok
            if not value_ok:
                probe = d4_probe(sigma_of(table.get(p)))
                base_res = jmo_residual_with_v(*probe, v)
                value_ok = jmo_residual_with_v(*probe, w) == base_res
            rep.record(squares_ok and product_ok and value_ok,
                       0 if value_ok else _terms(base_res),
                       check="d4", point=p.to_json(), perm=list(perm),
                       signs=list(signs))
    # frame/time relabelings
    sub = TauTable(table.frame, radius=1)
    for q in ball(1):
        sub.entries[q] = table.tau(q)
    maps = {}
    for perm in itertools.permutations(range(3)):
        _, signs, t_map = component_permute(perm, sub)
        bad = [p.to_json() for p, s in signs.items() if s == 0]
        maps["".join(str(x + 1) for x in perm)] = t_map
        rep.record(not bad, len(bad), check="component-permute", perm=list(perm),
                   mismatches=bad)
    rep.notes["t_maps"] = maps
    # lattice translation
    for p in ball(1):
        q, sign = e0_translate(p)
        residual = table.tau(p).T - sign * table.tau(q).T
        rep.record(residual.is_zero(), _terms(residual), check="translation",
                   point=p.to_json())
    return rep


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = {
    "toda": suite_toda,
    "bilinear": suite_bilinear,
    "miwa": suite_miwa,
    "jmo": suite_jmo,
    "sigma-backlund": suite_sigma_backlund,
    "f4": suite_f4,
    "symmetry": suite_symmetry,
}


def run_suites(table: TauTable, names, configurations: bool = True) -> list[SuiteReport]:
    """The reports of the named suites, in order; the move-square suites
    among them share one walk of the table's squares (SquarePass)."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    squares = SquarePass(table, [n for n in names if n in SQUARE_SUITES], configurations)
    return [SUITES[name](table, configurations, *([squares] if name in SQUARE_SUITES else []))
            for name in names]


def perturb_table(table: TauTable, point: LatticePoint, bump=1) -> TauTable:
    """Copy of the table with one tau coefficient shifted (negative control)."""
    twisted = TauTable(table.frame, dict(table.entries), radius=table.radius)
    tau = twisted.get(point)
    bumped = tau.T + LaurentPoly.monomial(bump, tau.T.min_degree if not tau.T.is_zero() else 0)
    twisted.entries[point] = TauT(point, bumped, tau.weight)
    return twisted
