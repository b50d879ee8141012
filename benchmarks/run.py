"""Benchmark of qaw: one workload per run, checked against mpmath.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): shipped-suite and primitives.  Each
runs in this one process, with no worker pool, on the qaw sources under
src/ of the checkout this file sits in.  With --trace 0 the last stdout line
carries the end-to-end metrics, whose times are scaled to a reference speed
of the host (SpeedClock); with --trace 1 every public qaw function is
wrapped in a span and the last line carries the per-layer metrics.  Every
output is checked after the timed part against oracle.py.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Two things keep the metrics steady on a shared virtual machine.  Every
# timed unit (one qaw check, one suite or primitives pass, one set-up
# interpreter) is scaled to a reference speed of the host (SpeedClock).  And
# a run is built from cycles that spread every kind of sample over the whole
# run: one pass of the workload's own traffic, one round of the 12 fixed
# points (for check_ms.*) and SETUP_PER_CYCLE set-up samples.  A traced run
# makes the same cycles and traces only the passes, so that its passes run
# in the same surroundings as untraced ones.
SETUP_PER_CYCLE = 3
# A run makes max(2, round(seconds / CYCLE_S[workload])) cycles, a fixed
# count, so that every sample count, peak_rss_mb (which grows with every new
# suite draw) and the traced counts are the same on every run of a given
# length.  CYCLE_S is about the length of one cycle on a 2-core machine.
CYCLE_S = {"shipped-suite": 15.0, "primitives": 11.0}
PRIMITIVE_PASSES = 20      # primitives passes per cycle
PRIMITIVES_PER_KIND = 40
# A speed probe is the median of PROBE_REPS timings of _probe_loop, which
# takes about PROBE_REF_S at the reference speed.
PROBE_REPS = 5
PROBE_REF_S = 1e-4

_WALL_TIME = re.compile(r'("wall_time":)\s*[-+.0-9eE]+')

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def _fail_setup(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _probe_loop():
    # pure Python complex arithmetic, like the scalar code of qaw; it tracks
    # the host's drift more closely than a loop over small numpy arrays
    z, w = 0j, complex(0.3, 0.4)
    for k in range(400):
        z = z * w + k
        z = z / (1.0 + abs(z))
    return z


def speed_probe():
    """Seconds that _probe_loop takes now (median of PROBE_REPS timings)."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """Wall times scaled to a reference speed of the host.

    The host's speed drifts by 15-30% within seconds and over minutes, and
    every timing moves with it.  A speed probe runs after every timed unit.
    A unit that ran for d seconds is scaled by PROBE_REF_S over the mean of
    the probes taken within d of it, always counting the probes just before
    and just after it: a short unit is scaled by the speed of its moment, a
    long one by the speed over a stretch about three times its length.
    """

    def __init__(self):
        self.at = []          # start time of every probe
        self.probe_s = []     # and its result
        self.probe()

    def probe(self):
        self.at.append(time.perf_counter())
        self.probe_s.append(speed_probe())

    def time(self, fn):
        """(unit, fn()), where unit records when fn ran, for seconds()."""
        before = len(self.at) - 1
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.probe()
        return (t0, t1, before), result

    def speed(self, unit):
        """PROBE_REF_S over the mean probe around the unit."""
        t0, t1, before = unit
        d = t1 - t0
        lo = min(bisect.bisect_left(self.at, t0 - d), before)
        hi = max(bisect.bisect_right(self.at, t1 + d), before + 2)
        return PROBE_REF_S / statistics.fmean(self.probe_s[lo:hi])

    def seconds(self, unit):
        """The scaled seconds of the unit."""
        return (unit[1] - unit[0]) * self.speed(unit)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counters, timings and outputs of one benchmark run."""

    def __init__(self, seed, seconds, tracer, out_dir):
        from qaw import cli
        self.cli_module = cli
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        # timings are kept as SpeedClock units until the run ends
        self.clock = SpeedClock()
        self.passes = []          # the unit of every measured pass
        self.tracing = False
        self.setup_units = []     # fresh interpreters importing qaw.cli
        self.samples = {}         # identity -> units of its measured checks
        self.first_call = {}      # identity -> unit of its first call
        self.reports = []         # CLI reports to check against mpmath
        self.point_refs = {}      # identity -> first fixed-point report
        self.primitive_outputs = []
        self.mismatches = []      # repeated outputs that changed
        self.peak_rss_mb = None

    @property
    def traced(self):
        return self.tracer is not None

    def elapsed(self):
        return time.perf_counter() - self.start

    def measure(self, one_pass):
        """Time one pass; in a traced run, with every qaw function wrapped."""
        if not self.traced:
            self.passes.append(one_pass())
            return
        self.tracer.install()
        self.tracing = True
        try:
            self.passes.append(one_pass())
        finally:
            self.tracing = False
            self.tracer.uninstall()

    def add_report_bytes(self, text):
        # wall_time values count as one digit each: their length varies
        # from call to call, and traced counts must repeat exactly
        if self.tracing:
            text = _WALL_TIME.sub(r"\1 0", text)
            self.tracer.counts["report_bytes"] += len(text.encode())

    def setup_samples(self):
        """Time fresh interpreters doing `import qaw.cli`, which every qaw
        command pays."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for _ in range(SETUP_PER_CYCLE):
            unit, _ = self.clock.time(lambda: subprocess.run(
                [sys.executable, "-c", "import qaw.cli"], env=env, cwd=ROOT, check=True))
            self.setup_units.append(unit)

    def cli(self, argv):
        """qaw.cli.main(argv) in-process: (exit code, unit, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            unit, code = self.clock.time(lambda: self.cli_module.main(argv))
        return code, unit, out.getvalue()

    def warm_up(self):
        """One unmeasured call of each cheap fixed point.  The first qaw
        check in a process pays one-off set-up (lazy imports, quadrature
        rules, per-q tables); without this it lands on a measured call."""
        for name in wl.WARM_UP:
            _, unit, _ = self.cli(["check", name] + wl.FIXED_POINTS[name][0].split())
            self.first_call[name] = unit

    def point_round(self):
        """One round of the fixed points, in a seed-shuffled order."""
        calls = wl.point_round(self.rng.getrandbits(32))
        texts = [(name,) + self.cli(argv) for name, argv in calls]
        for name, code, unit, text in texts:
            self.attempted += 1
            self.add_report_bytes(text)
            self.first_call.setdefault(name, unit)
            self.samples.setdefault(name, []).append(unit)
            if code != 0:
                self.failed += 1
                continue
            report = json.loads(text)
            ref = self.point_refs.get(name)
            if ref is None:
                self.reports.append(report)
                self.point_refs[name] = report
            elif (report["lhs"], report["rhs"]) != (ref["lhs"], ref["rhs"]):
                self.mismatches.append(f"{name}: output changed between calls")

    def cycles(self, workload):
        return max(2, round(self.seconds / CYCLE_S[workload]))

    def cycle_tail(self):
        """The check_ms round and set-up samples of a cycle."""
        self.point_round()
        self.setup_samples()

    def check_ms(self):
        return {f"check_ms.{name}": 1e3 * statistics.median(
                    self.clock.seconds(u) for u in self.samples[name])
                for name in wl.FIXED_POINTS}

    def wall_s(self):
        return statistics.fmean(self.clock.seconds(u) for u in self.passes)

    def setup_s(self):
        return statistics.median(self.clock.seconds(u) for u in self.setup_units)


def run_shipped_suite(run):
    from qaw.suite import default_suite

    def suite_pass(i):
        spec_path = run.out_dir / f"spec_{i}.json"
        report_path = run.out_dir / f"report_{i}.json"
        spec_path.write_text(json.dumps(wl.suite_spec(default_suite, run.seed, i)))
        code, unit, _ = run.cli(["suite", "--spec", str(spec_path), "--out", str(report_path)])
        text = report_path.read_text()
        run.add_report_bytes(text)
        entries = json.loads(text)["reports"]
        for entry in entries:
            run.attempted += 1
            if entry["status"] == "passed":
                run.reports.append(entry["report"])
            else:
                run.failed += 1
        if code != 0 and all(e["status"] == "passed" for e in entries):
            run.mismatches.append(f"suite pass {i}: exit code {code} with every entry passed")
        return unit

    run.warm_up()
    for i in range(run.cycles("shipped-suite")):
        run.measure(lambda: suite_pass(i))
        run.cycle_tail()


def run_primitives(run):
    import qaw
    calls = [(kind, args, qaw.QContext(q=args["q"]))
             for kind, args in wl.primitive_inputs(run.seed, PRIMITIVES_PER_KIND)]
    errors = (qaw.QawError, ArithmeticError)

    def call_all():
        values = []
        for kind, args, ctx in calls:
            try:
                values.append(wl.call_primitive(qaw, kind, args, ctx))
            except errors:
                values.append(None)
        return values

    def one_pass():
        unit, values = run.clock.time(call_all)
        run.attempted += len(calls)
        run.failed += values.count(None)
        if not run.primitive_outputs:
            run.primitive_outputs = [(kind, args, v) for (kind, args, _), v
                                     in zip(calls, values)]
        elif values != [v for _, _, v in run.primitive_outputs]:
            run.mismatches.append("primitives: outputs changed between passes")
        return unit

    one_pass()  # warm-up, excluded
    run.warm_up()
    for _ in range(run.cycles("primitives")):
        for _ in range(PRIMITIVE_PASSES):
            run.measure(one_pass)
        run.cycle_tail()


WORKLOADS = {
    "shipped-suite": run_shipped_suite,
    "primitives": run_primitives,
}


def check_outputs(run):
    """Every output against mpmath; returns the list of problems found."""
    import oracle
    problems = list(run.mismatches)
    for report in run.reports:
        msg = oracle.check_report(report)
        if msg:
            problems.append(msg)
    for kind, args, value in run.primitive_outputs:
        if value is not None:
            msg = oracle.check_primitive(kind, args, value)
            if msg:
                problems.append(msg)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.SHIPPED_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qaw" / "__init__.py").is_file():
        return _fail_setup(f"no qaw sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qaw
    if Path(qaw.__file__).resolve().parent != SRC / "qaw":
        return _fail_setup(f"imported qaw from {qaw.__file__}, not from {SRC}")
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    run = Run(args.seed, args.seconds, tracer, out_dir)
    WORKLOADS[args.workload](run)
    run.peak_rss_mb = peak_rss_mb()

    problems = check_outputs(run)
    for msg in problems[:20]:
        print(f"benchmark: wrong output: {msg}", file=sys.stderr)
    wall_s = run.wall_s()
    label = "traced wall_s" if run.traced else "wall_s"
    print(f"# {args.workload}: {len(run.passes)} passes, {run.attempted} operations, "
          f"{run.elapsed():.1f} s")
    print(f"# {label} {wall_s!r}")
    speeds = [run.clock.speed(u) for u in run.passes]
    print(f"# pass speed over the probe reference: median {statistics.median(speeds):.4f}, "
          f"lowest {min(speeds):.4f}, highest {max(speeds):.4f}")
    if run.first_call:
        print("# first-call check_ms " + json.dumps(
            {k: round(run.clock.seconds(u) * 1e3, 3) for k, u in run.first_call.items()}))

    if tracer is None:
        metrics = {"setup_s": (run.setup_s(), "s"),
                   "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (run.peak_rss_mb, "MB")}
        metrics.update({k: (v, "ms") for k, v in run.check_ms().items()})
    else:
        from tracing import unit_of
        tracer.save(out_dir / "spans.npz")
        metrics = {k: (v, unit_of(k)) for k, v in
                   tracer.layer_metrics(len(run.passes)).items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
