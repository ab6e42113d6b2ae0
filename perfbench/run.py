"""surfmap benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload corpus|covers|bounds --seed N \\
        --seconds S --trace 0|1 [--limit K]

Operations run back to back on one thread.  A pass visits the workload's
whole catalog (see workloads.py) in a seeded order.  The number of
passes comes from `--seconds` and the pass time measured on the seed
commit, so every run with the same `--seconds` does the same work on
every commit: at the seed commit a run measures for about `--seconds`,
and a faster program finishes sooner.  Every answer goes through the
correctness gate; an operation that raises, exits with an unexpected
code, breaks an identity or disagrees with its stored answer record
counts as failed.

Each operation is timed by wall clock and by the process's CPU time.  The
program is single-threaded and CPU-bound, so on a quiet machine the two
agree.  On a shared virtual machine both drift with the load of other
tenants: ten identical corpus runs took from 19.8 to 29.4 CPU seconds.
Around every operation the loop therefore times a fixed pure-Python
reference loop (one call per 0.02 s of operation CPU time, at least one),
and scales the operation's CPU time by REF_NOMINAL_S over the mean time
of one reference call in the batches just before and just after it.  The
bounded metrics (`norm_*`, `setup_s`) are such normalized CPU seconds:
the time at the speed where one reference call takes REF_NOMINAL_S.  On
those ten runs the spread (IQR / median) of the total fell from 0.12 raw
to 0.03.  The report lines also give the raw wall-clock and CPU figures.

--trace 0 prints the end-to-end metrics.  --trace 1 sets up once under
the tracer, runs half the passes untraced, runs the same operations
again with the tracer installed (tracer.py), and prints the per-layer
metrics with the tracing overhead: traced minus untraced time of the
same operations.  Spans are written to perfbench/out/ when the run ends.
--limit caps the operations per pass; the smoke test uses it.

Human-readable report lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
full result, with metadata and every latency, is written to
perfbench/out/<workload>-seed<N>-trace<T>.result.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Set up at least this many times and for at least this many seconds;
# setup_s is the median.  A cheap set-up is repeated many times, so that
# its median is steady; the bounds set-up (about 3.5 s) runs three times.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
# CPU seconds of one pass over each catalog at the seed commit (Python
# 3.11, 2-core x86-64 virtual machine).  Fixed, so that the work per run
# never depends on how fast the program is.
NOMINAL_PASS_S = {"corpus": 12.5, "covers": 11.6, "bounds": 15.0}
# CPU seconds of one reference_loop() call between operations, at the
# machine speed the normalized metrics are expressed in.
REF_NOMINAL_S = 0.9e-3
REF_EVERY_S = 0.02
# Imports the package in a fresh interpreter; prints wall and CPU seconds.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t, c = time.perf_counter(), time.process_time(); import surfmap.cli; "
                "print(time.perf_counter() - t, time.process_time() - c)")


def reference_loop():
    """Fixed dict, tuple and sort work, the same kinds the program does."""
    d = {}
    for i in range(2000):
        d[(i * 7919) % 10007] = (i, i + 1)
    return sorted(d.items())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="surfmap benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="at most this many operations per pass")
    return p.parse_args(argv)


def metadata() -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "src_lines": src_lines}


# --------------------------------------------------------------------------
# Set-up


def setup_once(wl, workload, workdir):
    """One set-up: import the package in a fresh interpreter, load every
    built-in triangulation through JSON and validate it, build the
    catalog, and for `bounds` write the map files through the CLI.
    Returns (specs, facts, wall_s, cpu_s)."""
    from surfmap import surfaces
    code = IMPORT_PROBE.format(src=os.path.join(ROOT, "src"))
    probe = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                           text=True, timeout=120, check=True)
    wall, cpu = (float(x) for x in probe.stdout.split())
    t0, c0 = time.perf_counter(), time.process_time()
    for name in surfaces.BUILTIN_NAMES:
        tri = surfaces.Triangulation.from_json(
            surfaces.builtin_triangulation(name).to_json())
        if tri.validate():
            raise RuntimeError(f"built-in triangulation {name} does not validate")
    specs = wl.catalog(workload)
    facts = wl.bounds_setup(workdir) if workload == "bounds" else None
    return (specs, facts, wall + time.perf_counter() - t0,
            cpu + time.process_time() - c0)


def schedule(specs, seed, passes, limit):
    """Pass k is the k-th seeded permutation of the catalog."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        order = list(specs)
        rng.shuffle(order)
        out.append(order[:limit] if limit else order)
    return out


# --------------------------------------------------------------------------
# The timed loop


class Speed:
    """Times reference_loop() batches taken between pieces of timed work."""

    def __init__(self):
        self.cpu = 0.0
        self.calls = 0

    @property
    def scale(self) -> float:
        """Mean factor from this run's CPU seconds to nominal seconds."""
        return REF_NOMINAL_S * self.calls / self.cpu if self.cpu else 1.0

    def sample(self, work_cpu: float) -> float:
        """Run one call per REF_EVERY_S of the work just timed, at least
        one; return the mean CPU seconds per call.  The cyclic collector
        is off meanwhile, so that the reference cost does not depend on
        what the program left on the heap."""
        n = 1 + int(work_cpu / REF_EVERY_S)
        gc.disable()
        try:
            c0 = time.process_time()
            for _ in range(n):
                reference_loop()
            dt = time.process_time() - c0
        finally:
            gc.enable()
        self.cpu += dt
        self.calls += n
        return dt / n

    @staticmethod
    def normalize(cpu: float, before: float, after: float) -> float:
        return cpu * 2 * REF_NOMINAL_S / (before + after)


class Outcome:
    def __init__(self):
        # (key, wall s, cpu s, normalized cpu s) of every passed operation
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = 0.0             # the whole timed section
        self.cpu = 0.0              # the operations only
        self.norm_cpu = 0.0
        self.speed = Speed()

    def fail(self, key, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append({"op": key, "problems": problems})

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems = other.problems + self.problems


class Runner:
    def __init__(self, wl, workload, facts, workdir, answers):
        self.wl, self.workload, self.answers = wl, workload, answers
        self.op, self.check = {
            "corpus": (wl.corpus_op, wl.check_corpus),
            "covers": (wl.covers_op, wl.check_covers),
            "bounds": (lambda s: wl.bounds_op(s, workdir),
                       lambda s, a: wl.check_bounds(s, a, facts)),
        }[workload]

    def run(self, passes, tracer=None) -> Outcome:
        outcome = Outcome()
        speed = outcome.speed
        t_start = time.perf_counter()
        before = speed.sample(0.0)
        for order in passes:
            for spec in order:
                if tracer is not None:
                    tracer.op = outcome.attempted
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    ans = self.op(spec)
                except Exception as ex:           # a failed operation; keep going
                    outcome.attempted += 1
                    outcome.fail(spec["key"], [f"{type(ex).__name__}: {ex}"])
                    before = speed.sample(0.0)
                    continue
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                after = speed.sample(cpu)
                norm = Speed.normalize(cpu, before, after)
                before = after
                outcome.cpu += cpu
                outcome.norm_cpu += norm
                if ans is None:                   # a refused covers spec: no operation
                    continue
                outcome.attempted += 1
                problems = self.check(spec, ans) + self.wl.compare_record(
                    self.answers.get(spec["key"]), self.workload, ans)
                if problems:
                    outcome.fail(spec["key"], problems)
                else:
                    outcome.samples.append((spec["key"], wall, cpu, norm))
        outcome.wall = time.perf_counter() - t_start
        return outcome


def latency_stats(values):
    """(median ms, p90 ms or None, samples beyond p90).  The p90 is the
    nearest-rank value, given only when at least ten samples lie beyond."""
    s = sorted(values)
    if not s:
        return 0.0, None, 0
    rank = math.ceil(0.9 * len(s))
    beyond = len(s) - rank
    return statistics.median(s) * 1e3, (s[rank - 1] * 1e3 if beyond >= 10 else None), beyond


def pass_count(args) -> int:
    return max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))


def measure_untraced(args, wl, answers, workdir):
    reps, setup_norm, speed = [], [], Speed()
    before = speed.sample(0.0)
    t0 = time.perf_counter()
    while len(reps) < SETUP_MIN_REPEATS or time.perf_counter() - t0 < SETUP_MIN_S:
        reps.append(setup_once(wl, args.workload, workdir))
        after = speed.sample(reps[-1][3])
        setup_norm.append(Speed.normalize(reps[-1][3], before, after))
        before = after
    specs, facts = reps[-1][0], reps[-1][1]
    setup_wall = statistics.median(r[2] for r in reps)
    setup_cpu = statistics.median(r[3] for r in reps)
    setup_s = statistics.median(setup_norm)
    passes = schedule(specs, args.seed, pass_count(args), args.limit)
    out = Runner(wl, args.workload, facts, workdir, answers).run(passes)
    passed = out.attempted - out.failed
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_ratio = out.failed / out.attempted if out.attempted else 0.0
    p50, p90, beyond = latency_stats([s[1] for s in out.samples])
    p50n, p90n, _ = latency_stats([s[3] for s in out.samples])
    metrics = {
        "norm_cpu_s": {"value": out.norm_cpu, "unit": "s"},
        "norm_ops_per_s": {"value": passed / out.norm_cpu, "unit": "1/s"},
        "norm_latency_p50_ms": {"value": p50n, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    w, n = args.workload, len(out.samples)

    def p90_line(name, value):
        if value is None:
            return (f"[{w}] {name} = undefined (n = {n}: {beyond} samples beyond "
                    f"p90, needs 10)")
        return f"[{w}] {name} = {value:.3f} ms (n = {n}, {beyond} beyond)"

    report = [
        f"[{w}] seed {args.seed}: {len(passes)} pass(es), {out.attempted} "
        f"operations, {out.failed} failed",
        f"[{w}] wall_s = {out.wall:.4f} s",
        f"[{w}] ops_per_s = {passed / out.wall:.4f} 1/s",
        f"[{w}] latency_p50_ms = {p50:.3f} ms (n = {n})",
        p90_line("latency_p90_ms", p90),
        f"[{w}] fail_ratio = {fail_ratio:.4f} ({out.failed}/{out.attempted})",
        f"[{w}] peak_rss_mb = {rss:.1f} MB",
        f"[{w}] setup_s = {setup_s:.4f} s normalized CPU ({setup_cpu:.4f} s CPU, "
        f"{setup_wall:.4f} s wall; medians of {len(reps)} set-ups)",
        f"[{w}] CPU time of the operations, raw: {out.cpu:.4f} s; mean speed "
        f"factor {out.speed.scale:.4f} ({out.speed.calls} reference calls)",
        f"[{w}] norm_cpu_s = {out.norm_cpu:.4f} s",
        f"[{w}] norm_ops_per_s = {passed / out.norm_cpu:.4f} 1/s",
        f"[{w}] norm_latency_p50_ms = {p50n:.3f} ms (n = {n})",
        p90_line("norm_latency_p90_ms", p90n),
    ]
    extra = {"wall_s": out.wall, "ops_per_s": passed / out.wall, "latency_p50_ms": p50,
             "latency_p90_ms": p90, "latency_p90_beyond": beyond,
             "fail_ratio": fail_ratio, "cpu_s": out.cpu, "scale": out.speed.scale,
             "setup_wall_s": setup_wall, "setup_cpu_s": setup_cpu,
             "setup_reps_wall_cpu": [r[2:] for r in reps]}
    return out, metrics, report, extra


def measure_traced(args, wl, answers, workdir, stem):
    from tracer import Tracer
    tracer = Tracer().install()
    try:
        specs, facts, _wall, _cpu = setup_once(wl, args.workload, workdir)
    finally:
        tracer.uninstall()
    runner = Runner(wl, args.workload, facts, workdir, answers)
    passes = schedule(specs, args.seed, max(1, pass_count(args) // 2), args.limit)
    untraced = runner.run(passes)
    tracer.install()
    try:
        out = runner.run(passes, tracer)
    finally:
        tracer.uninstall()
    tracer.write(stem + ".trace")
    metrics = tracer.per_layer()
    cpu_u, cpu_t = untraced.norm_cpu, out.norm_cpu
    overhead = cpu_t - cpu_u
    for name, value, unit in (("trace.untraced_cpu_s", cpu_u, "s"),
                              ("trace.traced_cpu_s", cpu_t, "s"),
                              ("trace.overhead_s", overhead, "s"),
                              ("trace.overhead_ratio", overhead / cpu_u, "ratio")):
        metrics[name] = {"value": value, "unit": unit}
    out.merge(untraced)
    w = args.workload
    report = [f"[{w}] seed {args.seed}: {len(passes)} pass(es), normalized CPU "
              f"untraced {cpu_u:.3f} s, traced {cpu_t:.3f} s, overhead {overhead:+.3f} s "
              f"({overhead / cpu_u:+.1%}); wall untraced {untraced.wall:.3f} s, "
              f"traced {out.wall:.3f} s; set-up traced once; spans in "
              f"{os.path.relpath(stem, ROOT)}.trace.*"]
    report += [f"[{w}] {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    return out, metrics, report, {"untraced_wall_s": untraced.wall,
                                  "traced_wall_s": out.wall,
                                  "untraced_cpu_s": untraced.cpu, "traced_cpu_s": out.cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    try:
        import workloads as wl
    except ImportError as ex:
        print(f"cannot import surfmap from {os.path.join(ROOT, 'src')}: {ex}",
              file=sys.stderr)
        return 2

    for _ in range(20):             # so that no timed reference call is a first call
        reference_loop()
    with open(os.path.join(BENCH_DIR, "answers.json")) as fh:
        answers = json.load(fh)[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = stem + ".work"
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            out, metrics, report, extra = measure_traced(args, wl, answers, workdir, stem)
        else:
            out, metrics, report, extra = measure_untraced(args, wl, answers, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for prob in out.problems[:5]:
        report.append(f"[{args.workload}] FAILED {prob['op']}: {prob['problems'][:3]}")
    meta = metadata()
    report.append(f"[{args.workload}] meta: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "limit": args.limit, "meta": meta,
              "attempted": out.attempted, "failed": out.failed,
              "problems": out.problems, "metrics": metrics, "extra": extra,
              "samples_key_wall_cpu": out.samples, "report": report}
    with open(stem + ".result.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for line in report:
        print(line)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
