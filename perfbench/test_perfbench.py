"""Tests of the benchmark itself: tracer, frame generator, ruler and gates.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction

from workloads import (
    END_TO_END,
    REPO_ROOT,
    SRC_DIR,
    VERIFY_R2_CHECKS,
    VERIFY_R2_TABLE,
    per_layer_metrics,
)

sys.path.insert(0, str(SRC_DIR))

import p6tau.backlund  # noqa: E402
import p6tau.cli  # noqa: E402
import p6tau.suites  # noqa: E402
from child import negative_control  # noqa: E402
from frames import draw_frames, is_generic, minors_2x2  # noqa: E402
from gates import gate_digest, gate_negative, gate_report, sha256_of  # noqa: E402
from ruler import REFERENCE_KERNEL_S, Ruler, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

SIGMA = ("backlund.sigma_of", "p6tau.backlund", "sigma_of")
JMO = ("suites.jmo", "p6tau.suites", "suite_jmo")


def small_table():
    from p6tau.grassmann import FrameMatrix, TauTable

    return TauTable.build(FrameMatrix.vandermonde(), 1)


def test_tracer_counts_calls_through_reimported_names():
    table = small_table()
    tau = table.get(table.nonzero_points()[0])
    original = p6tau.backlund.sigma_of
    with Tracer([SIGMA]) as tracer:
        assert p6tau.suites.sigma_of is not original
        p6tau.suites.sigma_of(tau)   # bound by `from .backlund import sigma_of`
        p6tau.backlund.sigma_of(tau)
    assert tracer.summary()["backlund.sigma_of"]["calls"] == 2
    assert p6tau.suites.sigma_of is original and p6tau.backlund.sigma_of is original


def test_tracer_patches_registry_and_splits_self_time():
    table = small_table()
    with Tracer([SIGMA, JMO]) as tracer:
        p6tau.suites.SUITES["jmo"](table)
    stats = tracer.summary()
    assert stats["suites.jmo"]["calls"] == 1
    assert stats["backlund.sigma_of"]["calls"] == len(table.nonzero_points())
    jmo = stats["suites.jmo"]
    assert 0 < jmo["self_s"] < jmo["total_s"]
    assert jmo["total_s"] >= stats["backlund.sigma_of"]["total_s"]
    assert p6tau.suites.SUITES["jmo"] is p6tau.suites.suite_jmo


def test_tracer_counts_generator_calls_only():
    target = ("backlund.iter_move_configurations", "p6tau.backlund", "iter_move_configurations")
    with Tracer([target]) as tracer:
        p6tau.suites.suite_bilinear(small_table())
    stats = tracer.summary()["backlund.iter_move_configurations"]
    assert stats["calls"] > 0 and stats["total_s"] == 0


def test_same_seed_gives_same_generic_frames():
    first, again, other = draw_frames(7, 3), draw_frames(7, 3), draw_frames(8, 3)
    assert first == again
    assert first != other
    for rows in first + other:
        assert is_generic(rows)
        assert all(x != 0 for row in rows for x in row)
        assert all(m != 0 for m in minors_2x2(rows))
        # in lowest terms, numerator and denominator in one octave
        assert all(50 <= abs(x.numerator) <= 99 and 50 <= x.denominator <= 99
                   for row in rows for x in row)
    # pinned, so a change to the draw shows: runs name their frames by seed
    assert draw_frames(7, 1)[0] == [
        [Fraction(59, 75), Fraction(-73, 87), Fraction(-82, 63)],
        [Fraction(54, 65), Fraction(-85, 77), Fraction(-86, 57)],
        [Fraction(-86, 87), Fraction(53, 64), Fraction(-85, 58)],
    ]


def test_reference_seconds_rescales_each_gap_by_kernel_speed():
    ref = REFERENCE_KERNEL_S
    # 1 s of work between a sample at reference speed and one at twice it,
    # then 1 s between two samples at twice the reference speed
    samples = [(0.0, 0.1, ref), (1.1, 1.2, ref / 2), (2.2, 2.3, ref / 2)]
    wall, scaled = reference_seconds(samples)
    assert abs(wall - 2.0) < 1e-9
    assert abs(scaled - (1.0 * 1.5 + 1.0 * 2.0)) < 1e-9


def test_ruler_samples_while_work_runs_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Ruler() as ruler:
        total = 0
        while time.perf_counter() - t0 < 0.3:
            total += 1
    elapsed = time.perf_counter() - t0
    assert len(ruler.samples) >= 4
    assert 0 < ruler.wall_s < elapsed and ruler.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_digest_gate_trips_on_wrong_digest(tmp_path):
    path = tmp_path / "table.json"
    path.write_text("{}\n")
    assert gate_digest(path, sha256_of(path)) == [("table.json sha256", True)]
    assert gate_digest(path, "0" * 64) == [("table.json sha256", False)]
    assert gate_digest(tmp_path / "missing.json", sha256_of(path))[0][1] is False


def test_gates_trip_on_perturbed_table(tmp_path):
    assert negative_control(p6tau.cli, VERIFY_R2_TABLE, tmp_path) == 1
    perturbed = json.loads((tmp_path / "perturbed_report.json").read_text())
    assert all(ok for _, ok in gate_negative(perturbed))
    expected = {name: VERIFY_R2_CHECKS[name] for name in ("bilinear", "jmo")}
    assert not all(ok for _, ok in gate_report(perturbed, expected, "verify"))

    clean = tmp_path / "clean_report.json"
    assert p6tau.cli.main(["verify", "--table", str(VERIFY_R2_TABLE),
                           "--suites", "bilinear,jmo", "--out", str(clean)]) == 0
    report = json.loads(clean.read_text())
    assert all(ok for _, ok in gate_report(report, expected, "verify"))
    assert not all(ok for _, ok in gate_negative(report))


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better in per_layer_metrics()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
