from dataclasses import replace

from p6tau import grassmann, suites
from p6tau.grassmann import TauTable
from p6tau.suites import suite_homogeneity, suite_vacuum_charge


def _inject(monkeypatch, bad_mu, charges):
    """Make suites.expand_wedge append one term of the given charges for bad_mu."""
    expand = suites.expand_wedge

    def with_bad_term(mu, frame):
        terms = expand(mu, frame)
        if tuple(mu) == bad_mu:
            terms = terms + [replace(terms[0], charges=charges)]
        return terms

    monkeypatch.setattr(suites, "expand_wedge", with_bad_term)


def test_vacuum_charge_records_one_check_per_mu(table1, monkeypatch):
    bad_mu = (0, 0, 0)
    _inject(monkeypatch, bad_mu, (5, 0, 0))
    rep = suite_vacuum_charge(table1)
    selection = [c for c in rep.configurations if c.get("check") == "charge-selection"]
    mus = [tuple(c["mu"]) for c in selection]
    assert len(mus) == len(set(mus)) == len({p.mu for p in table1.points()})
    for entry in selection:
        assert entry["ok"] == (tuple(entry["mu"]) != bad_mu)
    assert [f["charges"] for f in rep.failures] == [[[5, 0, 0]]]


def test_vacuum_charge_records_a_nonzero_off_charge_sector(frame, monkeypatch):
    # (1, 0, 0) is exactly the off charge the suite looks up for mu = (0, 0, 0)
    _inject(monkeypatch, (0, 0, 0), (1, 0, 0))
    rep = suite_vacuum_charge(TauTable.build(frame, 0))
    off = [c for c in rep.configurations
           if c.get("check") == "off-charge-zero" and c["mu"] == [0, 0, 0]]
    assert len(off) == 1 and off[0]["ok"] is False


def test_homogeneity_records_euler_failures(table1, monkeypatch):
    bosonize = grassmann.bosonize

    def times_x1(term):
        (d1, d2, d3), c = bosonize(term)
        return (d1 + 1, d2, d3), c

    monkeypatch.setattr(grassmann, "bosonize", times_x1)
    rep = suite_homogeneity(table1)
    euler = [c for c in rep.configurations if c.get("check") == "euler"]
    assert euler and not any(c["ok"] for c in euler)
    assert any(f.get("check") == "euler" for f in rep.failures)
