"""One measured run of a workload, in a fresh single-threaded process.

Started by run.py as ``python3 perfbench/child.py --workload W --workdir D
--trace 0|1 [--setup-only]``.  The process imports p6tau from the checkout's
``src``, does the workload's set-up (frame construction, ``cli.load_table``),
prints ``ready`` with the calibration kernel's timings from just before and
just after the set-up and, unless ``--setup-only``, runs the timed body: the
workload's CLI calls through ``p6tau.cli.main``, in-process, each timed by a
``Ruler`` in wall and reference seconds.  With
``--trace 1`` the tracer is installed after set-up, so it sees the body
only.  After the body, outside the timed region, it runs the negative
control.  It writes its figures to ``D/result.json``; run.py checks the
output files.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from ruler import Ruler, median_kernel
from workloads import (
    NEGATIVE_SUITES,
    SRC_DIR,
    TRACE_TARGETS,
    plan,
)


def import_program():
    sys.path.insert(0, str(SRC_DIR))
    import p6tau.cli  # noqa: F401  (imports every module of the package)

    origin = Path(sys.modules["p6tau"].__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"p6tau was imported from {origin}, not from {SRC_DIR}")
    return sys.modules["p6tau.cli"]


def make_tracer():
    from tracer import Tracer

    tracer = Tracer(TRACE_TARGETS)
    terms = [0]
    sigma_points = set()
    loaded = []
    tracer.observe("grassmann.expand_wedge", lambda args, result: terms.__setitem__(
        0, terms[0] + len(result)))
    tracer.observe("backlund.sigma_of", lambda args, result: sigma_points.add(result.point))
    tracer.observe("cli.load_table", lambda args, result: loaded.append((result, len(result))))
    return tracer, terms, sigma_points, loaded


def negative_control(cli, control: Path, workdir: Path) -> int:
    """Verify a copy of `control` with one coefficient shifted; returns the exit code."""
    from p6tau.suites import perturb_table

    table = cli.load_table(str(control))
    # the first point whose tau has three or more terms: shifting a tau with
    # one or two terms can leave sigma a solution of the sigma form, and the
    # residual of a shifted five-term tau takes seconds to reduce
    point = next(p for p in table.points()
                 if sum(1 for c in table.get(p).T.coeffs if c) >= 3)
    twisted = perturb_table(table, point)
    path = workdir / "perturbed.json"
    payload = {"frame": twisted.frame.to_json(), "radius": twisted.radius,
               "entries": twisted.to_json()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return cli.main(["verify", "--table", str(path), "--suites", ",".join(NEGATIVE_SUITES),
                     "--out", str(workdir / "perturbed_report.json")])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    kernel_before = median_kernel()
    kernel_spent = time.perf_counter() - t0
    cli = import_program()
    run = plan(args.workload, args.workdir)
    # set-up: everything the first timed call needs
    from p6tau.grassmann import FrameMatrix

    frames = [FrameMatrix.from_json(json.loads(f.read_text())) for f in run.frames]
    if not frames:
        frames.append(FrameMatrix.vandermonde())
    inputs = [cli.load_table(str(t)) for t in run.inputs]
    t0 = time.perf_counter()
    kernel_after = median_kernel()
    kernel_spent += time.perf_counter() - t0
    # the parent rescales its set-up time by these kernel timings
    print(f"ready {kernel_before!r} {kernel_after!r} {kernel_spent!r}", flush=True)
    if args.setup_only:
        return 0
    # the CLI builds its own objects; holding these would inflate peak_rss_mb
    del frames, inputs
    if args.trace:
        tracer, terms, sigma_points, loaded = make_tracer()
        tracer.install()

    phases = []
    for kind, argv in run.steps:
        with Ruler() as ruler:
            rc = cli.main(argv)
        phases.append({"kind": kind, "seconds": ruler.wall_s, "ref_seconds": ruler.ref_s,
                       "rc": rc})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"phases": phases, "peak_rss_mb": peak_rss_mb, "trace": None,
              "negative_rc": None}
    if args.trace:
        tracer.uninstall()
        result["trace"] = {
            "functions": tracer.summary(),
            "seed_table_s": tracer.durations("grassmann.seed_table"),
            "expand_wedge_terms": terms[0],
            "sigma_distinct_points": len(sigma_points),
            "table_growth": sum(len(table) - size for table, size in loaded),
        }
    if run.control is not None:
        result["negative_rc"] = negative_control(cli, run.control, args.workdir)
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
