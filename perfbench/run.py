"""The p6tau benchmark: one command for every workload, metric and gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gen-r3|verify-r2|frame-sweep \\
        --seed N --seconds S --trace 0|1

Each measured run of the workload body happens in a fresh child process
(child.py) that imports p6tau from ``src`` and calls ``p6tau.cli.main``
in-process.  With ``--trace 0`` the command prints the end-to-end metrics;
with ``--trace 1`` it makes one untraced and one traced run and prints the
per-layer metrics.  Every output is checked (gates.py); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 iff every output was correct.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from frames import draw_frames, frame_to_json
from gates import gate_run, read_json, table_sizes
from ruler import rescale
from workloads import (
    BENCH_DIR,
    END_TO_END,
    REPO_ROOT,
    SRC_DIR,
    SWEEP_FRAMES,
    WORKLOADS,
    per_layer_metrics,
    plan,
)

# set-up is timed in this many setup-only processes before the measured
# ones and as many after them, and in each measured one; the median of all
# is reported
SETUP_SAMPLES = 5
# a run must end within this many seconds
RUN_DEADLINE_S = 170.0
WORK_ROOT = BENCH_DIR / "_work"


class ChildFailed(RuntimeError):
    pass


class Run:
    """Starts child processes for one workload and collects their figures."""

    def __init__(self, workload: str, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.plan = plan(workload, workdir)
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def child(self, trace: int, setup_only: bool = False) -> tuple[tuple, dict | None]:
        """Start child.py; returns ((set-up wall seconds, set-up reference
        seconds), result or None if setup-only)."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", self.workload,
               "--workdir", str(self.workdir), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        else:
            for path in self.plan.outputs(self.workdir):
                path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            fields = ready.split()
            if len(fields) != 4 or fields[0] != "ready":
                raise ChildFailed(f"child did not finish set-up: {ready!r}")
            kernel_before, kernel_after, kernel_spent = map(float, fields[1:])
            setup_wall = elapsed - kernel_spent
            setup = (setup_wall, rescale(setup_wall, kernel_before, kernel_after))
            remaining = self.deadline - time.monotonic()
            out, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed("run exceeded its deadline") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for line in out.splitlines():
            print(f"  | {line}")
        if proc.returncode != 0:
            raise ChildFailed(f"child exited with code {proc.returncode}")
        if setup_only:
            return setup, None
        return setup, read_json(self.workdir / "result.json")


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile of durations in seconds, in milliseconds (0 if none)."""
    if len(values) < 2:
        return sum(values) * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def body_seconds(result: dict, kind: str | None = None, key: str = "seconds") -> float:
    """Time of the body's phases (of one `kind`, or all): wall seconds, or
    reference seconds with key="ref_seconds"."""
    return sum(p[key] for p in result["phases"] if kind in (None, p["kind"]))


def count_points(tables) -> int:
    return sum(len(json.loads(Path(t).read_text())["entries"]) for t in tables)


def count_checks(reports) -> int:
    return sum(s["checks"] for r in reports for s in (read_json(r) or {}).get("suites", []))


def measure(run: Run, seconds: float, checks: list) -> dict:
    """Untraced runs: end-to-end metrics.  The body runs once, then again in
    fresh processes while another run still fits within `seconds` of
    measured body time; set-up is sampled around and in the measured runs."""
    setups = [run.child(trace=0, setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    results, measured = [], 0.0
    while not results or measured + body_seconds(results[-1]) <= seconds:
        setup, result = run.child(trace=0)
        setups.append(setup)
        checks += gate_run(run.workload, run.plan, result, run.workdir)
        if result is None:
            raise ChildFailed("child wrote no result")
        results.append(result)
        measured += body_seconds(result)
    setups += [run.child(trace=0, setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    walls = [body_seconds(r) for r in results]
    refs = [body_seconds(r, key="ref_seconds") for r in results]
    gen_s = [body_seconds(r, "gen") for r in results]
    verify_s = [body_seconds(r, "verify") for r in results]
    points = count_points(run.plan.tables) if gen_s[0] else 0
    n_checks = count_checks(run.plan.reports)
    print(f"{run.workload}: {len(results)} measured run(s), body seconds "
          + ", ".join(f"{w:.3f}" for w in walls)
          + "; reference seconds " + ", ".join(f"{w:.3f}" for w in refs)
          + "; set-up seconds " + ", ".join(f"{s:.3f}" for s, _ in setups)
          + "; set-up reference seconds " + ", ".join(f"{s:.3f}" for _, s in setups))
    print(f"{run.workload}: table sizes {json.dumps(table_sizes(run.plan.tables))}")
    return {
        "setup_wall_s": statistics.median(s for s, _ in setups),
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(walls),
        "wall_ref_s": statistics.median(refs),
        "points_per_s": points / statistics.median(gen_s) if points else None,
        "checks_per_s": n_checks / statistics.median(verify_s) if n_checks else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def trace_metrics(run: Run, checks: list) -> dict:
    """One untraced and one traced run: per-layer metrics."""
    _, plain = run.child(trace=0)
    checks += gate_run(run.workload, run.plan, plain, run.workdir)
    _, traced = run.child(trace=1)
    checks += gate_run(run.workload, run.plan, traced, run.workdir)
    if plain is None or traced is None:
        raise ChildFailed("child wrote no result")
    info = traced["trace"]
    funcs = info["functions"]
    values = {}
    for label, stats in funcs.items():
        for key, value in stats.items():
            values[f"{label}.{key}"] = value
    values["grassmann.expand_wedge.terms"] = info["expand_wedge_terms"]
    values["grassmann.seed_table.p50_ms"] = percentile_ms(info["seed_table_s"], 50)
    values["grassmann.seed_table.p90_ms"] = percentile_ms(info["seed_table_s"], 90)
    sigma_calls = funcs["backlund.sigma_of"]["calls"]
    values["backlund.sigma_of.distinct_points"] = info["sigma_distinct_points"]
    values["backlund.sigma_of.useful_ratio"] = (
        info["sigma_distinct_points"] / sigma_calls if sigma_calls else 0.0)
    for key, value in table_sizes(run.plan.tables).items():
        values[f"grassmann.tau.{key}"] = value
    reports = [read_json(r) or {} for r in run.plan.reports]
    for name in {s["suite"] for r in reports for s in r.get("suites", [])}:
        values[f"suites.{name}.checks"] = sum(
            s["checks"] for r in reports for s in r.get("suites", []) if s["suite"] == name)
    values["suites.table_growth"] = info["table_growth"]
    values["cli.report_bytes"] = sum(Path(r).stat().st_size for r in run.plan.reports)
    values["trace.overhead_ratio"] = (body_seconds(traced, key="ref_seconds")
                                      / body_seconds(plain, key="ref_seconds"))
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="p6tau benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the body in fresh processes while it fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the `finally` blocks that stop the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC_DIR / "p6tau" / "cli.py").is_file():
        print(f"error: no p6tau sources under {SRC_DIR}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    checks: list[tuple[str, bool]] = []
    metrics: dict = {}
    try:
        run = Run(args.workload, workdir, deadline)
        for path, rows in zip(run.plan.frames, draw_frames(args.seed, SWEEP_FRAMES)):
            path.write_text(json.dumps(frame_to_json(rows)) + "\n")
            print(f"frame {path.name} (seed {args.seed}): {json.dumps(frame_to_json(rows))}")
        try:
            if args.trace:
                metrics = trace_metrics(run, checks)
            else:
                figures = measure(run, args.seconds, checks)
                failed = sum(1 for _, ok in checks if not ok)
                figures["fail_ratio"] = failed / len(checks)
                units = {"setup_wall_s": "s", "setup_s": "s", "wall_s": "s", "wall_ref_s": "s",
                         "points_per_s": "1/s", "checks_per_s": "1/s", "peak_rss_mb": "MB",
                         "fail_ratio": "ratio"}
                for name, unit in units.items():
                    value = figures[name]
                    shown = "n/a (no such phase)" if value is None else f"{value:.6g} {unit}"
                    print(f"{args.workload} {name}: {shown}")
                metrics = {name: {"value": figures[name], "unit": unit}
                           for name, unit in END_TO_END.items()}
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            checks.append(("run finished", False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in checks:
        if not ok:
            print(f"FAILED: {name}")
    failed = sum(1 for _, ok in checks if not ok)
    correct = failed == 0 and bool(checks)
    print(json.dumps({"correct": correct, "attempted": max(len(checks), 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
