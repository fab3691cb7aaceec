"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cohomology|verify|deform --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from the
seed into a scratch directory under ``perfbench/_work``; its jobs then run as
a closed loop, one after another in this single-threaded process, each one a
call of ``lyalg.cli.run`` with stdout captured.  The job list is repeated for
``max(1, S // NOMINAL_PASS_S[workload])`` passes, which lasts about S seconds
on a 2-core x86-64 container running CPython 3.11, and every output is
checked against its expected value.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one untraced pass runs first, then the traced passes, and the per-layer
metrics (per traced pass) are reported with the tracing overhead.  Spans are
written to ``perfbench/out/trace-<workload>-<seed>.jsonl``.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# seconds one pass of each job list takes on the reference machine
NOMINAL_PASS_S = {"cohomology": 10.0, "verify": 9.5, "deform": 9.5}
# seconds ``calibrate`` typically takes between jobs on the reference machine
CALIBRATION_REF_S = 0.026
SETUP_REPEATS = 3
TAIL_BEYOND = 10

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB"}

# the per-layer metrics, derived from the tracer per traced pass
SELF_TIMES = ["linalg.rref", "linalg.solve", "cohomology.coboundary_matrix_for",
              "cohomology.SparseMat.rank", "cohomology.cohomology_witnesses",
              "cohomology.induced_rep", "reps.check_representation", "reps.check_action",
              "reps.semidirect_product", "core.check_ly_axioms", "rrb.check_rrb",
              "rrb.graph_subalgebra_check", "rrb.check_nijenhuis", "rrb.descent_algebra",
              "postlya.induced_post_from_rrb", "postlya.check_post_axioms",
              "deformation.check_order_n", "deformation.obstruction_class",
              "deformation.extend", "deformation.check_linear_deformation",
              "deformation.check_equivalence", "io.load", "io.canonical_json"]
CALLS = ["linalg.rref", "linalg.solve", "cohomology.coboundary_matrix_for",
         "reps.check_representation", "core.check_ly_axioms"]
PER_JOB = ["reps.check_representation", "deformation.check_order_n"]
COUNTS = ["linalg.rref.cells", "cohomology.matrix.rows", "cohomology.matrix.cols",
          "cohomology.matrix.nnz", "reports.violations"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_job(job, cli, tracer=None):
    """Run one job; returns (seconds, error message or None)."""
    out = io.StringIO()

    def invoke():
        if job.call is not None:
            return job.call()
        return cli.run(job.argv + ["--json"]), out.getvalue()

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc, text = tracer.span("job", invoke) if tracer else invoke()
    except Exception as e:  # a raising job is a failed job, not a crashed run
        return time.perf_counter() - t0, "raised %s: %s" % (type(e).__name__, e)
    dt = time.perf_counter() - t0
    if job.save:
        with open(job.save, "w", encoding="utf-8") as fh:
            fh.write(text)
    if rc != job.rc:
        return dt, "exit code %d, want %d" % (rc, job.rc)
    try:
        return dt, job.check(text)
    except (ValueError, KeyError, TypeError) as e:
        return dt, "unreadable output: %s" % e


def calibrate():
    """Time a fixed slice of pure-Python Fraction work (garbage collector off).

    The cores of the container are shared, and the speed they give swings by
    tens of percent, within a run and from one run to the next, for lyalg and
    this loop alike.  A calibration runs before the first job and after every
    job, and each job's time is reported multiplied by CALIBRATION_REF_S /
    (mean of the two calibrations around it): seconds at the reference
    machine's typical speed.  The raw seconds are printed beside every time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, two_thirds = Fraction(0), Fraction(2, 3)
        for i in range(1, 6000):
            x += Fraction(i % 7 - 3, i % 5 + 1) * two_thirds
        cells = [(x, i) for i in range(8000)]
        cells.sort(key=lambda c: -c[1])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it
    (the lowest sample when there are fewer); returns (value, percentile)."""
    xs = sorted(samples)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


class Run:
    """Passes over a job list, one job after another (a closed loop).

    Every timed interval is kept with the calibrations around it and scaled
    once the run is over (see ``calibrate``)."""

    def __init__(self, cli):
        self.cli = cli
        self.jobs = []               # (pass, raw seconds, calibration around it)
        self.setups = []             # (raw seconds, calibration around it)
        self.passes = 0
        self.attempted = 0
        self.errors = []

    def do_pass(self, jobs, tracer=None):
        cal = calibrate()
        for job in jobs:
            if tracer:
                tracer.job = "%s#%d" % (job.name, self.attempted)
            dt, err = run_job(job, self.cli, tracer)
            after = calibrate()
            self.jobs.append((self.passes, dt, (cal + after) / 2))
            cal = after
            self.attempted += 1
            if err:
                self.errors.append("%s: %s" % (job.name, err))
        self.passes += 1

    def setup(self, workload, seed, work_root):
        """Interpreter start and ``import lyalg`` (timed in a child), input
        generation and warm-up; returns the job list."""
        import workloads
        cal = calibrate()
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-c", "import lyalg"], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        expected = workloads.load_expected()
        wd = tempfile.mkdtemp(dir=work_root)
        jobs = workloads.WORKLOADS[workload](seed, wd, expected)
        for job in workloads.fixture_checks("warmup", expected):
            err = run_job(job, self.cli)[1]
            if err:
                self.errors.append("%s: %s" % (job.name, err))
        raw = time.perf_counter() - t0
        self.setups.append((raw, (cal + calibrate()) / 2))
        return jobs

    def scaled(self):
        """(scaled setup times, scaled job times by pass) and their raw twins."""
        setups = [(t * CALIBRATION_REF_S / c, t) for t, c in self.setups]
        by_pass = [[] for _ in range(self.passes)]
        for p, t, c in self.jobs:
            by_pass[p].append((t * CALIBRATION_REF_S / c, t))
        return setups, by_pass


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    try:
        from lyalg import cli
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise ValueError("unknown workload %r (choose from %s)"
                             % (args.workload, ", ".join(sorted(workloads.WORKLOADS))))
        if not os.path.isdir(workloads.FIXTURES):
            raise OSError("missing fixtures directory %s" % workloads.FIXTURES)
    except (ImportError, OSError, ValueError) as e:
        print("perfbench: cannot run: %s" % e, file=sys.stderr)
        return 2

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    before = set(os.listdir(work_root))
    try:
        return measure(args, cli, work_root)
    finally:
        for name in set(os.listdir(work_root)) - before:
            shutil.rmtree(os.path.join(work_root, name), ignore_errors=True)


def measure(args, cli, work_root):
    run = Run(cli)
    for _ in range(SETUP_REPEATS):
        jobs = run.setup(args.workload, args.seed, work_root)
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    run.do_pass(jobs)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        restore = tracer.install()
        try:
            for _ in range(max(1, passes - 1)):
                run.do_pass(jobs, tracer)
        finally:
            restore()
    else:
        for _ in range(passes - 1):
            run.do_pass(jobs)

    setups, by_pass = run.scaled()
    walls = [(sum(s for s, _ in p), sum(r for _, r in p)) for p in by_pass]
    failed = len(run.errors) - sum(e.startswith("warmup.") for e in run.errors)
    lines = ["workload %s, seed %d: %d jobs per pass, %d passes%s"
             % (args.workload, args.seed, len(jobs), run.passes,
                " (first one untraced)" if tracer else ""),
             "error_rate %.4f (%d of %d jobs)" % (failed / run.attempted, failed, run.attempted)]
    lines += ["  wrong: %s" % e for e in run.errors[:20]]
    lines += ["pass walls, scaled / raw s: " + ", ".join("%.3f / %.3f" % w for w in walls)]
    if tracer:
        traced = walls[1:]
        speed = sum(s for s, _ in traced) / sum(r for _, r in traced)
        overhead = statistics.median(s for s, _ in traced) - walls[0][0]
        metrics = layer_metrics(tracer, len(traced), len(jobs), speed, overhead)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", "trace-%s-%d.jsonl" % (args.workload, args.seed)))
        lines += module_shares(tracer)
        lines += ["%s %s %s (per traced pass of %d jobs, %d traced passes)"
                  % (k, fmt(v["value"]), v["unit"], len(jobs), len(traced))
                  for k, v in metrics.items()]
    else:
        jobs_s = [j for p in by_pass for j in p]
        values, raw = {}, {}
        for key, pairs in (("setup_s", setups), ("wall_s", walls), ("job_p50_s", jobs_s)):
            values[key] = statistics.median(s for s, _ in pairs)
            raw[key] = statistics.median(r for _, r in pairs)
        values["job_tail_s"], pct = tail([s for s, _ in jobs_s])
        raw["job_tail_s"] = tail([r for _, r in jobs_s])[0]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        samples = {"setup_s": "median of %d set-ups" % len(setups),
                   "wall_s": "median of %d passes" % len(walls),
                   "job_p50_s": "median of %d jobs" % len(jobs_s),
                   "job_tail_s": "p%.1f of %d jobs, %d beyond it"
                                 % (pct, len(jobs_s), round(len(jobs_s) * (1 - pct / 100))),
                   "peak_rss_mb": "whole process"}
        lines += ["%s %s %s (%s%s)" % (k, fmt(v), E2E_UNITS[k], samples[k],
                                       "; raw %s s" % fmt(raw[k]) if k in raw else "")
                  for k, v in values.items()]
    for line in lines:
        print(line)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def per_pass(total, passes):
    return total // passes if isinstance(total, int) and total % passes == 0 else total / passes


def layer_metrics(tracer, passes, jobs_per_pass, speed, overhead):
    """Per traced pass; self times are scaled like the end-to-end times."""
    m = {}
    for name in SELF_TIMES:
        m[name + ".self_s"] = (tracer.self_s.get(name, 0.0) * speed / passes, "s")
    for name in CALLS:
        m[name + ".calls"] = (per_pass(tracer.calls.get(name, 0), passes), "count")
    for name in PER_JOB:
        m[name + ".calls_per_job"] = (tracer.calls.get(name, 0) / (passes * jobs_per_pass), "1/job")
    for name in COUNTS:
        m[name] = (per_pass(tracer.counts.get(name, 0), passes), "count")
    rows = tracer.counts.get("linalg.rref.rows", 0)
    m["linalg.rref.pivot_share"] = (tracer.counts.get("linalg.rref.pivots", 0) / rows
                                    if rows else 0.0, "ratio")
    builds = tracer.calls.get("cohomology.TComplex", 0)
    m["cohomology.TComplex.builds"] = (per_pass(builds, passes), "count")
    m["cohomology.TComplex.builds_per_job"] = (builds / (passes * jobs_per_pass), "1/job")
    m["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def module_shares(tracer):
    """Self time per lyalg module (and unattributed job time) as a share."""
    by_mod = {}
    for name, s in tracer.self_s.items():
        mod = name.split(".")[0]
        by_mod[mod] = by_mod.get(mod, 0.0) + s
    total = sum(by_mod.values()) or 1.0
    return ["self-time share: " + ", ".join("%s %.1f%%" % (k, 100 * v / total)
                                            for k, v in sorted(by_mod.items(),
                                                               key=lambda kv: -kv[1]))]


if __name__ == "__main__":
    sys.exit(main())
