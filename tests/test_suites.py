from dataclasses import replace

from p6tau import suites
from p6tau.suites import suite_vacuum_charge


def test_vacuum_charge_records_one_check_per_mu(table1, monkeypatch):
    expand = suites.expand_wedge
    bad_mu = (0, 0, 0)

    def with_bad_term(mu, frame):
        terms = expand(mu, frame)
        if tuple(mu) == bad_mu:
            terms = terms + [replace(terms[0], charges=(5, 0, 0))]
        return terms

    monkeypatch.setattr(suites, "expand_wedge", with_bad_term)
    rep = suite_vacuum_charge(table1)
    selection = [c for c in rep.configurations if c.get("check") == "charge-selection"]
    mus = [tuple(c["mu"]) for c in selection]
    assert len(mus) == len(set(mus)) == len({p.mu for p in table1.points()})
    for entry in selection:
        assert entry["ok"] == (tuple(entry["mu"]) != bad_mu)
    assert [f["charges"] for f in rep.failures] == [[[5, 0, 0]]]
