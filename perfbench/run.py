"""Benchmark of the quatem CLI: end-to-end timings and per-layer traces.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload extend-check --seed 1 --seconds 30 --trace 0

One process, one client in a closed loop: each operation (one CLI command,
called in-process through ``quatem.cli.main``) starts when the previous one
has finished and been checked.  A fixed reference kernel is timed between
operations (``yardstick.py``), and operation times are reported also in
units of its median time in the same run.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics.  ``--workload all`` runs every workload in
its own process, one after another, and prints a summary table.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (environment, sizes, sample counts, tail latency, error
rate), also written with the spans to ``perfbench/work/``.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy is imported: the benchmark is sized for a
# 2-core machine and must not oversubscribe it.
THREAD_CAP = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = BENCH / "work"
NAMES = ("extend-check", "reconstruct-probes", "verify-bp", "mesh-gen")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples required beyond the tail percentile

# (metric, unit) reported by an untraced run, in BENCHMARK.json order.
END_TO_END = [
    ("op_p50_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("result_error", "rel"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_quatem():
    """Import quatem from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quatem" / "__init__.py").is_file():
        raise SystemExit("perfbench: no quatem sources under %s" % src)
    sys.path.insert(0, str(src))
    import quatem

    if Path(quatem.__file__).resolve().parent != (src / "quatem").resolve():
        raise SystemExit("perfbench: imported quatem from %s" % quatem.__file__)
    return quatem


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_thread_cap": int(THREAD_CAP),
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def tail(samples) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return {"omitted": "fewer than %d samples" % (TAIL_BEYOND + 1), "samples": n}
    return {"value": sorted(samples)[n - TAIL_BEYOND - 1], "unit": "s",
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.hashes: dict[str, list[str]] = {}
        self.problems: list[str] = []

    def run(self, op, op_id: int, traced: bool = False):
        """Run one operation; returns (seconds, problems)."""
        from workloads import invoke

        results = []
        start = time.perf_counter()
        try:
            with self.tracer.install(op_id) if traced else contextlib.nullcontext():
                for argv in op.argvs:
                    results.append(invoke(argv))
            elapsed = time.perf_counter() - start
            first = op.key not in self.hashes
            problems = op.check([code for code, _ in results],
                                [text for _, text in results], first)
            digest = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
                      for p in op.artifacts]
            if first:
                self.hashes[op.key] = digest
            elif digest != self.hashes[op.key]:
                problems.append("artifacts of %s differ from an earlier run" % op.key)
        except Exception:  # a crash is a failed operation, not a benchmark error
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        for p in problems:
            if len(self.problems) < 20:
                self.problems.append("op %d (%s): %s" % (op_id, op.key, p))
        return elapsed, problems


def run_workload(args, quatem) -> tuple[dict, dict]:
    import workloads
    from tracing import PER_LAYER, Tracer
    from yardstick import Yardstick

    size = "fast" if args.fast else "full"
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, size)

    # Set-up: input generation, repeated, then one warm-up operation.
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        gen_times.append(time.perf_counter() - t0)
    ops = workload.ops()
    tracer = Tracer(quatem) if args.trace else None
    runner = Runner(tracer)
    warmup_s, warmup_problems = runner.run(next(ops), 0)
    setup_s = statistics.median(gen_times) + warmup_s

    # Measurement: a closed loop until the time is up.  A traced run
    # alternates pairs of untraced and traced operations, so that both see
    # the same state and both kinds of an alternating workload are traced.
    # The reference kernel is timed between operations, outside their times.
    times = {False: [], True: []}
    failed = 0
    yardstick = Yardstick()
    deadline = time.perf_counter() + args.seconds
    op_id = 0
    while True:
        yardstick.sample(force=op_id == 0)
        op_id += 1
        traced = bool(args.trace) and op_id % 4 in (2, 3)
        elapsed, problems = runner.run(next(ops), op_id, traced)
        times[traced].append(elapsed)
        failed += bool(problems)
        if time.perf_counter() >= deadline and (not args.trace or times[True]):
            break
    yardstick.sample(force=True)
    attempted = op_id
    untraced = times[False]

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "size": size,
        "seed_dependent": workload.seed_dependent,
        "sizes": workload.sizes(),
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "loop": "closed, 1 client, 1 process",
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "warmup_ok": not warmup_problems,
        "problems": runner.problems,
        "op_p50_s": statistics.median(untraced),
        "op_tail_s": tail(untraced),
        "op_times_s": untraced,
        "reference_p50_s": yardstick.median(),
        "reference_times_s": yardstick.times,
        "setup_generation_s": gen_times,
        "setup_warmup_s": warmup_s,
    }
    if args.trace:
        traced_ids = [i for i in range(1, attempted + 1) if i % 4 in (2, 3)]
        layer = tracer.per_layer(traced_ids)
        layer["tracing_overhead_s"] = (statistics.median(times[True])
                                       - statistics.median(untraced))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        report["samples"] = {"untraced": len(untraced), "traced": len(times[True])}
        spans_path = workdir.parent / ("spans-%s.jsonl" % args.workload)
        tracer.dump(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "op_p50_ref": statistics.median(untraced) / yardstick.median(),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_error": statistics.median(workload.result_errors),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["samples"] = {"op_p50_s": len(untraced),
                             "reference": len(yardstick.times), "setup_s": 1,
                             "result_error": len(workload.result_errors)}
    report["metrics"] = metrics
    with open(workdir.parent / ("report-%s.json" % args.workload), "w") as fh:
        json.dump(report, fh, indent=1)
    return {
        "correct": failed == 0 and not warmup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, report


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    rows = []
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--fast"] if args.fast else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("%s: exit %d\n%s" % (name, proc.returncode, proc.stderr), file=sys.stderr)
            ok = False
            continue
        *_, report_line, result_line = proc.stdout.strip().splitlines()
        report, result = json.loads(report_line), json.loads(result_line)
        ok &= result["correct"]
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "1"))
        rows.append((name, "op_p50_s", report["op_p50_s"], "s"))
        if "value" in report["op_tail_s"]:
            rows.append((name, "op_tail_s@p%.0f" % report["op_tail_s"]["percentile"],
                         report["op_tail_s"]["value"], "s"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    for row in rows:
        print("%-20s %-48s %-14.6g %s" % row)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    quatem = import_quatem()
    result, report = run_workload(args, quatem)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
