"""Workloads, traced functions and reference values of the p6tau benchmark.

Shared by the orchestrator (``run.py``), the measured process (``child.py``)
and the gates (``gates.py``).  See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
DATA_DIR = BENCH_DIR / "data"

WORKLOADS = ("gen-r3", "verify-r2", "frame-sweep")

# verify-r2 judges this committed table: `p6tau gen --radius 2` on the
# Vandermonde frame.
VERIFY_R2_TABLE = DATA_DIR / "vandermonde_r2.json"

# frame-sweep: frames drawn per run, table radius, suites run on each table.
SWEEP_FRAMES = 3
SWEEP_RADIUS = 2
SWEEP_SUITES = ("toda", "bilinear", "jmo", "sigma-backlund")

# Negative control: suites run on a copy of the table with one coefficient
# shifted; both must report failures.
NEGATIVE_SUITES = ("bilinear", "jmo")

# ---------------------------------------------------------------------------
# reference values, observed at the commit that introduced the benchmark
# ---------------------------------------------------------------------------

# sha256 of `p6tau gen --radius 3 --out FILE` (Vandermonde frame).
GEN_R3_SHA256 = "143db651da0d29a6a3ca57b69557777e6b3bb8121e38e1126ecf27496324fe7e"

# Check counts of `p6tau verify` (all suites, default order) on the radius-2
# Vandermonde table.  toda reads 156, not 153: it runs after symmetry, which
# has already computed 22 missing points into the loaded table, and three
# more toda configurations then lie inside it.
VERIFY_R2_CHECKS = {
    "bilinear": 6150,
    "f4": 1663,
    "jmo": 181,
    "miwa": 1404,
    "sigma-backlund": 2664,
    "symmetry": 942,
    "toda": 156,
}

# Check counts of the frame-sweep suites on any generic frame at radius 2.
SWEEP_CHECKS = {"toda": 153, "bilinear": 6150, "jmo": 181, "sigma-backlund": 2664}

# End-to-end metrics of an untraced run, as reported in its JSON line.
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# ---------------------------------------------------------------------------
# traced functions: (label, defining module, attribute)
# ---------------------------------------------------------------------------

_FUNCTIONS = {
    "grassmann": ("expand_wedge", "schur_first_times", "bosonize", "specialize_to_t",
                  "tau_in_x", "seed_table"),
    "exactalg": ("poly_gcd",),
    "backlund": ("sigma_of", "jmo_residual_with_v", "sigma_backlund_residual",
                 "bilinear_residual", "solve_fourth", "calibrate_eps",
                 "miwa_first_residual", "miwa_second_residual", "toda_product",
                 "iter_move_configurations"),
    "lattice": ("big_GH",),
    "f4": ("short_sets", "sigma_step", "a5_to_f4", "toda_step_f4", "component_permute"),
    "cli": ("load_table",),
}
GENERATORS = ("backlund.iter_move_configurations",)
SUITE_NAMES = ("toda", "bilinear", "miwa", "jmo", "sigma-backlund", "f4", "symmetry")

TRACE_TARGETS = [
    (f"{module}.{fn}", f"p6tau.{module}", fn)
    for module, fns in _FUNCTIONS.items()
    for fn in fns
] + [
    (f"suites.{name}", "p6tau.suites", "suite_" + name.replace("-", "_"))
    for name in SUITE_NAMES
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every metric of a traced run, as (name, unit, better)."""
    out = []
    for label, _, _ in TRACE_TARGETS:
        if label.startswith("suites."):
            out += [(f"{label}.total_s", "s", "lower"), (f"{label}.checks", "count", "higher")]
            continue
        if label == "cli.load_table":
            out += [(f"{label}.calls", "count", "lower"), (f"{label}.total_s", "s", "lower")]
            continue
        out.append((f"{label}.calls", "count", "lower"))
        if label not in GENERATORS:
            out += [(f"{label}.self_s", "s", "lower"), (f"{label}.total_s", "s", "lower")]
        if label == "grassmann.expand_wedge":
            out.append((f"{label}.terms", "count", "lower"))
        if label == "grassmann.seed_table":
            out += [(f"{label}.p50_ms", "ms", "lower"), (f"{label}.p90_ms", "ms", "lower")]
        if label == "backlund.sigma_of":
            out += [(f"{label}.distinct_points", "count", "lower"),
                    (f"{label}.useful_ratio", "ratio", "higher")]
    out += [
        ("grassmann.tau.max_coeff_bits", "bit", "lower"),
        ("grassmann.tau.max_terms", "count", "lower"),
        ("grassmann.tau.max_degree", "count", "lower"),
        ("suites.table_growth", "count", "lower"),
        ("cli.report_bytes", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


# ---------------------------------------------------------------------------
# run plans
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """What one run of a workload executes and where its files go."""

    steps: list = field(default_factory=list)    # (kind, argv) of each timed CLI call
    frames: list = field(default_factory=list)   # frame files the run hands to `gen`
    tables: list = field(default_factory=list)   # tables written or judged
    reports: list = field(default_factory=list)  # verify reports
    inputs: list = field(default_factory=list)   # tables loaded during set-up
    control: Path | None = None                  # table perturbed for the negative control

    def outputs(self, workdir: Path) -> list:
        """Files a run writes; cleared before each run so none is read stale."""
        return ([t for t in self.tables if t not in self.inputs] + self.reports
                + [workdir / name for name in ("result.json", "perturbed.json",
                                               "perturbed_report.json")])


def plan(workload: str, workdir: Path) -> Plan:
    if workload == "gen-r3":
        table = workdir / "table.json"
        return Plan(steps=[("gen", ["gen", "--radius", "3", "--out", str(table)])],
                    tables=[table])
    if workload == "verify-r2":
        report = workdir / "report.json"
        return Plan(steps=[("verify", ["verify", "--table", str(VERIFY_R2_TABLE),
                                       "--out", str(report)])],
                    tables=[VERIFY_R2_TABLE], reports=[report], inputs=[VERIFY_R2_TABLE],
                    control=VERIFY_R2_TABLE)
    if workload == "frame-sweep":
        out = Plan()
        for i in range(SWEEP_FRAMES):
            frame, table, report = (workdir / f"{stem}{i}.json"
                                    for stem in ("frame", "table", "report"))
            out.frames.append(frame)
            out.tables.append(table)
            out.reports.append(report)
            out.steps.append(("gen", ["gen", "--frame", str(frame), "--radius",
                                      str(SWEEP_RADIUS), "--out", str(table)]))
            out.steps.append(("verify", ["verify", "--table", str(table), "--suites",
                                         ",".join(SWEEP_SUITES), "--out", str(report)]))
        out.control = out.tables[0]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
