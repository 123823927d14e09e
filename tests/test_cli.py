import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from p6tau.cli import main
from p6tau.grassmann import GaugeDependence, HomogeneityViolation, MissingTau, TauTable
from p6tau.lattice import LatticePoint
from p6tau.suites import perturb_table
from p6tau import cli


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "ball2.json"
    assert main(["gen", "--radius", "2", "--out", str(path)]) == 0
    return path


def test_gen_radius_zero(tmp_path):
    out = tmp_path / "t0.json"
    assert main(["gen", "--radius", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["entries"] == [
        {"point": [0, 0, 0, 0, 0, 0], "weight": 0,
         "T": {"min_degree": 0, "coeffs": ["1"]}}
    ]


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--radius", "1", "--out", str(a)])
    main(["gen", "--radius", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("radius, digest", [
    ("3", "143db651da0d29a6a3ca57b69557777e6b3bb8121e38e1126ecf27496324fe7e"),
    # within the default radius limit
    ("4", "6a2cbe483ef311da4c2b0a5cdd947b13f60d557ac8b5a0caf86461b018fd6500"),
])
def test_gen_output_digest(tmp_path, radius, digest):
    out = tmp_path / "table.json"
    assert main(["gen", "--radius", radius, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_radius_limit(tmp_path, capsys):
    assert main(["gen", "--radius", "9", "--out", str(tmp_path / "x.json")]) == 2
    assert "radius" in capsys.readouterr().err


def test_gen_rejects_singular_frame(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps([["1", "1", "1"], ["1", "1", "1"], ["0", "1", "2"]]))
    code = main(["gen", "--frame", str(frame), "--radius", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "dependent" in capsys.readouterr().err


def test_round_trip_reload(table_file):
    table = cli.load_table(str(table_file))
    rebuilt = TauTable.build(table.frame, 2)
    assert table.entries == rebuilt.entries


def test_csv_export(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["gen", "--radius", "1", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("a1,a2,a3,a4,a5,a6,weight")
    assert len(lines) == 32


def test_verify_passes_and_exit_zero(table_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--table", str(table_file), "--suites", "toda,jmo",
                 "--out", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    names = {s["suite"] for s in payload["suites"]}
    assert names == {"toda", "jmo"}


def test_verify_names_failing_configuration(table_file, tmp_path, capsys):
    table = cli.load_table(str(table_file))
    point = LatticePoint((-1, 0, 0, 1, 0, 0))
    broken = perturb_table(table, point)
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({
        "frame": broken.frame.to_json(),
        "radius": broken.radius,
        "entries": broken.to_json(),
    }))
    report = tmp_path / "bad_report.json"
    code = main(["verify", "--table", str(bad_file), "--suites", "miwa,bilinear",
                 "--out", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    failing = [s for s in payload["suites"] if not s["passed"]]
    assert failing
    named = [f for s in failing for f in s["failures"]]
    assert any("base" in f or "error" in f or "point" in f for f in named)


# sha256 of the report `verify` wrote for every configuration, on the radius-2
# Vandermonde table, before the summary report became the default.
FULL_REPORT_R2_SHA256 = "fece8d843032349e12f0496f5e515eec2e27b4d3e6af11714bd1482bb6be5c12"


def test_verify_configurations_report_is_byte_identical(table_file, tmp_path, capsys):
    report = tmp_path / "full.json"
    assert main(["verify", "--table", str(table_file), "--configurations",
                 "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == FULL_REPORT_R2_SHA256


def test_verify_summary_holds_the_full_report_less_its_configurations(
        table_file, tmp_path, capsys):
    broken = perturb_table(cli.load_table(str(table_file)), LatticePoint((-1, 0, 0, 1, 0, 0)))
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"frame": broken.frame.to_json(), "radius": broken.radius,
                                    "entries": broken.to_json()}))
    runs = {}
    for name, extra in (("summary", []), ("full", ["--configurations"])):
        out = tmp_path / f"{name}.json"
        code = main(["verify", "--table", str(bad_file), "--suites",
                     "bilinear,sigma-backlund,jmo", "--out", str(out)] + extra)
        runs[name] = (code, capsys.readouterr().out.splitlines(),
                      json.loads(out.read_text()))
    (code, lines, summary), (full_code, full_lines, full) = runs["summary"], runs["full"]
    assert code == full_code == 1
    assert lines == full_lines and len(lines) == 3
    assert summary["passed"] is full["passed"] is False
    assert [s["suite"] for s in summary["suites"]] == ["bilinear", "sigma-backlund", "jmo"]
    for short, long in zip(summary["suites"], full["suites"], strict=True):
        assert "configurations" not in short and long["configurations"]
        assert short == {k: v for k, v in long.items() if k != "configurations"}
        assert sorted(short) == ["checks", "failures", "notes", "passed", "suite"]


def test_python_m_p6tau_runs_verify(table_file, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    bad = tmp_path / "bad.json"
    bad.write_text("{}")

    def verify(path):
        return subprocess.run([sys.executable, "-m", "p6tau", "verify", "--table", str(path),
                               "--suites", "toda", "--out", str(tmp_path / "report.json")],
                              env=env, capture_output=True, text=True)

    good = verify(table_file)
    assert good.returncode == 0 and good.stdout.startswith("toda: pass")
    malformed = verify(bad)
    assert malformed.returncode == 2 and "bad.json" in malformed.stderr


def test_verify_empty_suites_warns(table_file, capsys):
    code = main(["verify", "--table", str(table_file), "--suites", ""])
    assert code == 0
    assert "nothing checked" in capsys.readouterr().out


def test_sigma_command(table_file, capsys):
    code = main(["sigma", "--point=-1,0,0,1,0,0", "--table", str(table_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["v"] == ["1/2", "-1/2", "-1/2", "-1/2"]
    # constant tau: sigma is the linear part c5*(t-1) - c6/2 = -t/4
    assert payload["sigma"]["num"] == {"1": "-1/4"}


# the first 16 hex digits of the sha256 of `p6tau sigma`'s output at every
# point of ball(1) with a nonzero tau in the radius-2 table, frozen when the
# per-point scalars were held as Fractions
SIGMA_DIGESTS = {
    "-1,0,0,0,0,1": "7e0adb542aab4732",
    "-1,0,0,0,1,0": "0fed0d2c9e38de7c",
    "-1,0,0,1,0,0": "8d15b7ad5a9c127e",
    "0,-1,0,0,0,1": "a474fadc87fa6785",
    "0,-1,0,0,1,0": "30f3f2556819ba5b",
    "0,-1,0,1,0,0": "da756f9ba7194e64",
    "0,0,-1,0,0,1": "9de4fb91ed4088f3",
    "0,0,-1,0,1,0": "c169905f021dfb49",
    "0,0,-1,1,0,0": "88ff18912772be88",
    "0,0,0,-1,0,1": "2a276e8036b8f8be",
    "0,0,0,-1,1,0": "d66e21bbe5f24fb9",
    "0,0,0,0,-1,1": "67907875d4cd2c44",
    "0,0,0,0,0,0": "76816f76e79ad5ed",
    "0,0,0,0,1,-1": "4a1c1b6ce01f0673",
    "0,0,0,1,-1,0": "99942d8fa1b9c1c2",
    "0,0,0,1,0,-1": "4802d99a21b0c404",
    "0,0,1,-1,0,0": "fa57e24e1ac5700c",
    "0,0,1,0,-1,0": "edf3a0c004a937f3",
    "0,0,1,0,0,-1": "2ae678f99ba087ab",
    "0,1,0,-1,0,0": "7d53016b2df64fc6",
    "0,1,0,0,-1,0": "1dc85381146ce082",
    "0,1,0,0,0,-1": "657087fb27a29f44",
    "1,0,0,-1,0,0": "5af13865bdb4a621",
    "1,0,0,0,-1,0": "9d22e291fc75613f",
    "1,0,0,0,0,-1": "a063151a7c128785",
}


def test_sigma_command_output_is_frozen(table_file, capsys):
    for point, digest in SIGMA_DIGESTS.items():
        assert main(["sigma", f"--point={point}", "--table", str(table_file)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, point


def test_sigma_command_reduces_the_quotient(table_file, capsys):
    # T = (t - 1)/(4t): the unreduced sigma is (-t^2/16 + 3t/16 - 1/8) / ((t - 1)/4),
    # which cancels to a polynomial
    code = main(["sigma", "--point=-1,0,0,-1,1,1", "--table", str(table_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == {"num": {"0": "1/2", "1": "-1/4"}, "den": {"0": "1"}}


def test_sigma_unknown_point(table_file, capsys):
    code = main(["sigma", "--point", "5,-5,0,0,0,0", "--table", str(table_file)])
    assert code == 2


def test_sigma_zero_tau(table_file, capsys):
    code = main(["sigma", "--point", "1,-1,0,0,0,0", "--table", str(table_file)])
    assert code == 2


def test_map_f4_command(capsys):
    code = main(["map-f4", "--point", "0,0,0,0,1,-1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["image"] == [0, "0", "1", "-1", "0"]


def test_map_f4_report(capsys):
    code = main(["map-f4", "--point", "0,0,0,0,0,0", "--report"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["match"] for r in payload["simple_roots"])
    assert len(payload["short_sets"]) == 3
    assert len(payload["toda_gamma_pairs"]) == 6


def test_calibrate_eps_command(table_file, tmp_path):
    out = tmp_path / "eps.json"
    assert main(["calibrate-eps", "--table", str(table_file), "--out", str(out)]) == 0
    eps = json.loads(out.read_text())
    assert len(eps) == 60
    assert eps["1,2,3"] == 1 and eps["1,3,2"] == -1


def test_calibrate_eps_without_a_consistent_sign_fails_like_an_identity(table_file, tmp_path,
                                                                        capsys):
    broken = perturb_table(cli.load_table(str(table_file)), LatticePoint((-1, 0, 0, 1, 0, 0)))
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"frame": broken.frame.to_json(), "radius": broken.radius,
                                    "entries": broken.to_json()}))
    out = tmp_path / "eps.json"
    assert main(["calibrate-eps", "--table", str(bad_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: move MoveIJK(i=1, j=2, k=4) at (-1,-1,0,2,0,0):"
                                       " no sign matches\n")
    assert not out.exists()
    # a table too small to calibrate stays an input error
    small = tmp_path / "r1.json"
    assert main(["gen", "--radius", "1", "--out", str(small)]) == 0
    assert main(["calibrate-eps", "--table", str(small)]) == 2
    assert capsys.readouterr().err.startswith("error: no informative configuration")


def test_verify_missing_table_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "--table", str(missing)]) == 2
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["entries", "frame", "point", "weight", "T"])
def test_table_without_field_rejected(table_file, tmp_path, capsys, key):
    payload = json.loads(table_file.read_text())
    del (payload if key in payload else payload["entries"][0])[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--table", str(bad), "--suites", "toda"]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "bad.json" in err


def _first_T(payload):
    return next(e["T"] for e in payload["entries"] if e["T"]["coeffs"])


def _float_in_frame(payload):
    payload["frame"][0][0] = 0.5


def _float_in_coeffs(payload):
    _first_T(payload)["coeffs"][0] = 0.5


def _entries_not_a_list(payload):
    payload["entries"] = {"0": payload["entries"][0]}


def _entry_not_an_object(payload):
    payload["entries"][0] = ["point", "weight", "T"]


def _trailing_zero(payload):
    _first_T(payload)["coeffs"].append("0")


def _leading_zero(payload):
    T = _first_T(payload)
    T["min_degree"] -= 1
    T["coeffs"].insert(0, "0")


def _unreduced_fraction(payload):
    coeffs = _first_T(payload)["coeffs"]
    c = Fraction(coeffs[0])
    coeffs[0] = f"{2 * c.numerator}/{2 * c.denominator}"


def _bool_in_frame(payload):
    payload["frame"][0][0] = True


def _zero_denominator_in_frame(payload):
    payload["frame"][0][0] = "1/0"


def _zero_denominator_in_coeffs(payload):
    _first_T(payload)["coeffs"][0] = "1/0"


def _fractional_point(payload):
    # truncated entry by entry, this would read as (-2, 0, 0, 0, 0, 2)
    payload["entries"][0]["point"] = [-2.25, 0.25, 0.25, 0.25, 0.25, 2.25]


def _bool_in_point(payload):
    point = payload["entries"][0]["point"]
    payload["entries"][0]["point"] = [True] + point[1:]


def _float_weight(payload):
    payload["entries"][0]["weight"] = float(payload["entries"][0]["weight"])


def _bool_weight(payload):
    payload["entries"][0]["weight"] = False


def _radius(value):
    def mutate(payload):
        payload["radius"] = value
    return mutate


@pytest.mark.parametrize("mutate, problem", [
    pytest.param(_float_in_frame, "0.5", id="float-in-frame"),
    pytest.param(_bool_in_frame, "frame: cannot interpret True", id="bool-in-frame"),
    pytest.param(_zero_denominator_in_frame, "frame: '1/0' has a zero denominator",
                 id="zero-denominator-in-frame"),
    pytest.param(_zero_denominator_in_coeffs, "'1/0' has a zero denominator",
                 id="zero-denominator-in-coeffs"),
    pytest.param(_fractional_point, "is not a list of integers", id="fractional-point"),
    pytest.param(_bool_in_point, "is not a list of integers", id="bool-in-point"),
    pytest.param(_float_weight, "is not an integer", id="float-weight"),
    pytest.param(_bool_weight, "weight False", id="bool-weight"),
    pytest.param(_radius("r"), "radius 'r'", id="radius-not-a-number"),
    pytest.param(_radius(-7), "radius -7", id="negative-radius"),
    pytest.param(_radius(2.0), "radius 2.0", id="float-radius"),
    pytest.param(_float_in_coeffs, "0.5", id="float-in-coeffs"),
    pytest.param(_entries_not_a_list, "not a list", id="entries-not-a-list"),
    pytest.param(_entry_not_an_object, "not an object", id="entry-not-an-object"),
    pytest.param(_trailing_zero, "not canonical", id="trailing-zero"),
    pytest.param(_leading_zero, "not canonical", id="leading-zero"),
    pytest.param(_unreduced_fraction, "not canonical", id="unreduced-fraction"),
])
def test_table_with_malformed_value_rejected(table_file, tmp_path, capsys, mutate, problem):
    payload = json.loads(table_file.read_text())
    mutate(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--table", str(bad), "--suites", "toda"]) == 2
    err = capsys.readouterr().err
    assert problem in err and "bad.json" in err


@pytest.mark.parametrize("entry, problem", [("1/0", "'1/0' has a zero denominator"),
                                            (0.5, "cannot interpret 0.5")])
def test_gen_rejects_malformed_frame_entry(tmp_path, capsys, entry, problem):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps([["1", "1", "1"], ["1", "2", entry], ["1", "3", "9"]]))
    code = main(["gen", "--frame", str(frame), "--radius", "1",
                 "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert code == 2 and problem in err and "frame.json: frame:" in err
    assert not (tmp_path / "x.json").exists()


def test_table_with_duplicate_point_rejected(table_file, tmp_path, capsys):
    payload = json.loads(table_file.read_text())
    payload["entries"].append(payload["entries"][0])
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--table", str(bad), "--suites", "toda"]) == 2
    assert "twice" in capsys.readouterr().err


def test_table_with_wrong_weight_rejected(table_file, tmp_path, capsys):
    payload = json.loads(table_file.read_text())
    payload["entries"][0]["weight"] += 1
    bad = tmp_path / "weight.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--table", str(bad), "--suites", "toda"]) == 2
    assert "weight" in capsys.readouterr().err


def test_committed_benchmark_table_loads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "vandermonde_r2.json"
    assert len(cli.load_table(str(path))) == 271


@pytest.mark.parametrize("exc", [GaugeDependence, HomogeneityViolation, MissingTau])
def test_core_errors_exit_two(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("sector (0, 0, 0) is broken")

    monkeypatch.setattr(cli.TauTable, "build", fail)
    assert main(["gen", "--radius", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "sector (0, 0, 0) is broken" in capsys.readouterr().err


def test_frame_sweep_path_on_a_dense_frame(tmp_path, capsys):
    """gen --radius 2 on a dense generic frame, then the four sweep suites,
    with the check counts every generic radius-2 table gives."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps([["59/75", "-73/87", "-82/63"],
                                 ["54/65", "-85/77", "-86/57"],
                                 ["-86/87", "53/64", "-85/58"]]))
    table, report = tmp_path / "table.json", tmp_path / "report.json"
    assert main(["gen", "--frame", str(frame), "--radius", "2", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["verify", "--table", str(table), "--suites", "toda,bilinear,jmo,sigma-backlund",
                 "--out", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "toda: pass (153 checks)", "bilinear: pass (6150 checks)", "jmo: pass (181 checks)",
        "sigma-backlund: pass (2664 checks)"]
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert [(s["suite"], s["checks"]) for s in payload["suites"]] == [
        ("toda", 153), ("bilinear", 6150), ("jmo", 181), ("sigma-backlund", 2664)]


def test_verify_says_when_a_suite_had_nothing_to_check(tmp_path, capsys):
    """On the identity frame every move square holds a zero tau, so
    sigma-backlund passes with 0 checks; the summary line says so, and the
    report records the bare count."""
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    table, report = tmp_path / "table.json", tmp_path / "report.json"
    assert main(["gen", "--frame", str(frame), "--radius", "2", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["verify", "--table", str(table), "--out", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "bilinear: pass (4308 checks)", "f4: pass (277 checks)", "jmo: pass (25 checks)",
        "miwa: pass (1404 checks)",
        "sigma-backlund: pass (0 checks, nothing to check on this table)",
        "symmetry: pass (162 checks)", "toda: pass (156 checks)"]
    sigma, = [s for s in json.loads(report.read_text())["suites"]
              if s["suite"] == "sigma-backlund"]
    assert sigma == {"suite": "sigma-backlund", "checks": 0, "passed": True, "failures": [],
                     "notes": {"degenerate_K": 0}}
