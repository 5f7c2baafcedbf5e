"""vw3d benchmark: one workload, one seeded closed loop, every output verified.

Run from the repository root:

    python3 bench/run.py --workload qseries --seed 1 --seconds 25 --trace 0

One caller in one process issues library calls and in-process
`vw3d ... --json` invocations; each call starts when the previous one has
returned.  The run first times a fresh interpreter getting ready (`setup_s`),
then runs the workload's README commands twice and seeded passes of its call
list until `--seconds` have elapsed.  The last line of standard output is the
result object; the line before it holds the run's context.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of the traced passes
(see layers.py); spans and counters go to `.bench_out/`.  `--profile N`
also saves the cProfile top N functions of the run to `.bench_out/`.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and its children; must precede numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("VW3D_ORDER", None)      # the CLI would read it as its default order

import argparse
import bisect
import cProfile
import io
import json
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bethe_sweep", "qseries", "closed_forms", "brst_closure")
SETUP_REPEATS = 5
SETUP_CODE = ("import vw3d\n"
              "from vw3d import brst, cli\n"
              "for name in ('abelian', 'nonabelian', 'covariant', 'threed'):\n"
              "    brst.get_table(name)\n"
              "cli.build_parser()\n")
MAX_ERRORS_KEPT = 20

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="save the cProfile top N functions of the run")
    return p.parse_args(argv)


def measure_setup(probe):
    """Seconds for fresh interpreters to import vw3d, load the tables and
    build the CLI parser: (raw, at reference speed) per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        probe.read()
        start = clock()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        raw = clock() - start
        before = probe.readings[-1][1]
        probe.read()
        after = probe.readings[-1][1]
        samples.append((raw, raw * speed.REFERENCE_S / ((before + after) / 2)))
    return samples


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
    }


class Runner:
    """Executes calls, times them and records verification failures.

    Each call becomes a sample (pass, position, traced, start, end, call
    seconds, call-plus-check seconds); README calls have pass -1 or -2.  The
    speed probe is read before a call when its last reading is stale and
    after every call long enough to span a change of host speed.
    """

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.samples = []
        self.by_slot = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def execute(self, call, where, traced=False):
        tracer = self.tracer
        self.probe.refresh()
        self.attempted += 1
        if traced:
            tracer.call_id += 1
            tracer.enabled = True
        start = clock()
        try:
            result = call.run()
            error = None
        except Exception as exc:        # a failed call is counted, not fatal
            result, error = None, exc
        finally:
            end = clock()
            if traced:
                tracer.enabled = False
        if error is None:
            try:
                call.check(result)
            except Exception as exc:
                error = exc
            if traced and call.cli:
                tracer.counters["cli.json_bytes"] += len(result[1].encode())
        done = clock()
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{call.slot}: {type(error).__name__}: {error}")
        self.samples.append((*where, traced, start, done, end - start, done - start))
        self.by_slot.setdefault(call.slot.rstrip("0123456789.").split("-")[0],
                                []).append(end - start)
        if done - start >= speed.EVERY_S:
            self.probe.read()
        return done - start


def readme_calls(workload, first_outputs):
    """The README commands; the second round also compares --json bytes."""
    from workloads import Call, need, run_cli

    calls = []
    for argv, check, compare in workload.readme():
        key = tuple(argv)

        def verify(result, key=key, check=check, compare=compare):
            check(result)
            if compare and key in first_outputs:
                need(result[1] == first_outputs[key], "README --json bytes differ between runs")
            first_outputs.setdefault(key, result[1])

        calls.append(Call("readme", lambda a=argv: run_cli(a), verify, cli=True))
    return calls


def run_loop(args, workload, runner, tracer):
    """README commands twice, then seeded passes until the deadline.

    Every pass of a workload has the same call positions.  A call starts only
    if its position's duration in the previous pass still fits before the
    deadline (the first pass, and in trace mode the first traced pass,
    always run whole), so a run stays within `--seconds`.  In trace mode the
    README commands are traced too, so the traced aggregates hold their
    repeated work (`brst --calibrate` re-checking a calibration seed, the
    second README round), spread over the traced passes.  Returns the indices
    of the complete passes, untraced and traced, and the tracer snapshot
    after the last complete traced pass.
    """
    from layers import namespaces

    deadline = clock() + args.seconds
    spaces = namespaces() if args.trace else ()
    first_outputs = {}
    if args.trace:
        tracer.install(spaces)
    try:
        for round_ in (-1, -2):
            for position, call in enumerate(readme_calls(workload, first_outputs)):
                runner.execute(call, (round_, position), bool(args.trace))
    finally:
        if tracer:
            tracer.uninstall()
    complete_passes = ([], [])     # [traced] -> indices of complete passes
    snapshot = None
    estimates = {}
    forced = 2 if args.trace else 1
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        calls = workload.next_pass()
        if traced:
            tracer.install(spaces)
        complete = True
        try:
            for position, call in enumerate(calls):
                if index >= forced and clock() + estimates.get(position, 0.0) > deadline:
                    complete = False
                    break
                estimates[position] = runner.execute(call, (index, position), traced)
        finally:
            if traced:
                tracer.uninstall()
        if not complete:
            break
        complete_passes[traced].append(index)
        if traced:
            snapshot = tracer.snapshot()
        index += 1
        if clock() >= deadline:
            break
    return complete_passes, snapshot


def scaled(samples, readings):
    """Each sample's call and call-plus-check seconds at the reference speed,
    using the mean of the probe readings just before and just after it."""
    times = [t for t, _ in readings]
    out = []
    for sample in samples:
        pass_, position, traced, start, done, call_s, total_s = sample
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, done)
        near = [readings[i][1] for i in (before, after) if 0 <= i < len(readings)]
        factor = speed.REFERENCE_S / statistics.fmean(near)
        out.append((pass_, position, traced, call_s * factor, total_s * factor))
    return out


def pass_seconds(samples, traced):
    """The median pass, assembled call by call: the sum over call positions
    of each position's median call-plus-check time across passes.  Unlike
    the median of whole-pass times, it stays put when a burst of machine
    noise slows part of one pass."""
    by_position = {}
    for pass_, position, was_traced, _, total_s in samples:
        if pass_ >= 0 and was_traced == traced:
            by_position.setdefault(position, []).append(total_s)
    return sum(statistics.median(v) for v in by_position.values())


def percentile_ms(values, k):
    """k-th decile cut (k = 5 median, 9 the 90th percentile), in ms."""
    if len(values) < 2:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1] * 1000.0


def timing_metrics(samples, setup, complete):
    """End-to-end timings.  The latency percentiles use the calls of the
    `complete` untraced passes only, so every run's sample holds the same
    mix of call kinds (README calls and a pass cut at the deadline left out);
    a percentile that falls between two kinds of call would otherwise jump
    with that mix."""
    untraced = [s for s in samples if not s[2]]
    latencies = [s[3] for s in untraced if s[0] in complete]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": pass_seconds(untraced, False), "unit": "s"},
        "call_p50_ms": {"value": percentile_ms(latencies, 5), "unit": "ms"},
        "call_p90_ms": {"value": percentile_ms(latencies, 9), "unit": "ms"},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vw3d" / "__init__.py").is_file():
        print(f"bench: no vw3d sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    probe = speed.SpeedProbe()
    setup = None if args.trace else measure_setup(probe)
    sys.path.insert(0, str(SRC))
    from layers import layer_metrics, make_tracer, missing_layers
    from workloads import WORKLOADS

    ctx = context(args)
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = WORKLOADS[args.workload](rng, args.seed)
    tracer = make_tracer() if args.trace else None
    runner = Runner(probe, tracer)
    profiler = cProfile.Profile() if args.profile > 0 else None
    started = clock()
    if profiler:
        profiler.enable()
    complete_passes, snapshot = run_loop(args, workload, runner, tracer)
    if profiler:
        profiler.disable()
    probe.read()
    samples = scaled(runner.samples, probe.readings)
    probe_s = [r for _, r in probe.readings]
    ctx.update({
        "run_s": clock() - started,
        "passes": len(complete_passes[False]),
        "traced_passes": len(complete_passes[True]),
        "calls": runner.attempted,
        "input_repeats": workload.stats["repeats"],
        "probe_ms": {"median": statistics.median(probe_s) * 1000.0,
                     "min": min(probe_s) * 1000.0, "max": max(probe_s) * 1000.0,
                     "reference": speed.REFERENCE_S * 1000.0},
    })
    record = {"context": ctx, "errors": runner.errors,
              "samples": runner.samples, "probe": probe.readings,
              "slot_median_ms": {k: statistics.median(v) * 1000.0
                                 for k, v in sorted(runner.by_slot.items())}}
    missing = []
    if args.trace:
        overhead = pass_seconds(samples, True) / pass_seconds(samples, False) - 1.0
        metrics = layer_metrics(snapshot, ctx["traced_passes"], overhead)
        missing = missing_layers(args.workload, snapshot)
        record.update({"aggregates": snapshot, "missing_layers": missing,
                       "bindings": tracer.bindings,
                       "dropped_spans": tracer.dropped_spans,
                       "spans": tracer.spans})
    else:
        complete = set(complete_passes[False])
        metrics = timing_metrics(samples, [ref for _, ref in setup], complete)
        metrics.update({
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "verified_frac": {"value": (runner.attempted - runner.failed) / runner.attempted,
                              "unit": "frac"},
        })
        raw = [(p, pos, tr, call_s, total_s) for p, pos, tr, _, _, call_s, total_s in runner.samples]
        record["raw_metrics"] = timing_metrics(raw, [r for r, _ in setup], complete)
        record["setup_samples_s"] = setup
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    if profiler:
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text)
        for key in ("cumulative", "tottime"):
            stats.sort_stats(key).print_stats(args.profile)
        (OUT / f"profile-{stem}.txt").write_text(text.getvalue())
    if missing:
        print(f"bench: traced layers saw no calls on {args.workload}: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for line in runner.errors:
        print(f"bench: failed call {line}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
