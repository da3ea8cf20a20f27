"""Benchmark of the `measured` package: end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload train-finetune --seed 0 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's entry points and reports per-layer metrics instead.
``--workload all`` runs every workload, one fresh process at a time, so
each peak RSS belongs to that workload alone.  The package is imported from
``src/`` of the checkout this file sits in; without it the run fails.
Per-run details (manifest, input properties, spans) go to
``.bench_results/``; scratch files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train-finetune", "predict-novel")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= n):
            os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():  # git would look in the parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, threads: dict, workload) -> dict:
    import numpy
    import scipy

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "measured").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_caps": threads,
        "git_commit": git_commit(),
        "corpus_sha256": workload.corpus_sha256,
        "src_lines": src_lines,
    }


def measure(workload, seconds: float, trace: bool, log) -> dict:
    """Repeat the workload's job until ``seconds`` are spent (at least twice).

    A traced run alternates untraced and traced repetitions, starting
    untraced: the untraced ones give the baseline for the tracing overhead.
    """
    import tracing
    import workloads as wl

    try:
        from measured.encoding import ngram_strings
    except ImportError:  # a refactor may drop it; gram counts then read 0
        ngrams = None
    else:
        def ngrams(text):
            return ngram_strings(text, workload.encoder_config)

    tracer = tracing.Tracer() if trace else None
    reps, layer_rows, problems = [], [], []
    attempted = failed = 0
    spans_out = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rep = workload.rep(tracer.phase if traced else None)
        except Exception:  # the job itself broke: count it, stop repeating
            attempted += 1
            failed += 1
            problems.append(traceback.format_exc())
            log(problems[-1])
            break
        finally:
            if traced:
                tracer.uninstall()
        rep.traced = traced
        reps.append(rep)
        attempted += rep.attempted
        failed += rep.failed
        problems.extend(rep.problems)
        if traced:
            layer_rows.append(tracing.summarize(tracer, rep.wall_s, ngrams))
            if spans_out is None:
                spans_out = tracing.span_records(tracer)
        log(f"  repetition {len(reps)}{' traced' if traced else ''}: {rep.wall_s:.3f} s")
        if len(reps) >= 2 and time.perf_counter() + rep.wall_s > deadline:
            break

    if not reps:
        raise RuntimeError("no repetition completed")
    consistency = wl.consistency_failures(reps)
    if consistency:
        failed += len(consistency)
        problems.extend(consistency)

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repetitions": len(reps),
        "reps": [
            {"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "throughput_per_s": r.throughput_per_s, "eval_s": r.eval_s,
             "latencies_ms": [x * 1e3 for x in r.latencies_s]}
            for r in reps
        ],
        "predict_samples": sum(len(r.latencies_s) for r in reps),
        "quality": {k: v for k, v in reps[0].quality.items() if k != "history"},
        "end_to_end": wl.end_to_end([r for r in reps if not r.traced]),
    }
    if trace:
        plain = [r.wall_s for r in reps if not r.traced]
        traced_walls = [r.wall_s for r in reps if r.traced]
        layers = {
            name: statistics.fmean(row[name] for row in layer_rows) for name in layer_rows[0]
        } if layer_rows else {}
        if traced_walls:
            layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
        layers["trace.missing_spans"] = float(len(tracer.missing))
        out["per_layer"] = layers
        out["missing_spans"] = tracer.missing
        out["hook_errors"] = tracer.hook_errors
        out["spans"] = spans_out
        out["inputs"] = workload.input_properties(ngrams)
    return out


def run_one(args) -> int:
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import measured

    if Path(measured.__file__).resolve().parent != (SRC / "measured").resolve():
        print(f"perfbench: imported measured from {measured.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        sizes = wl.TOY if args.toy else wl.FULL
        workload = wl.Workload(args.workload, args.seed, sizes, workdir)
        log(f"perfbench: {args.workload} seed {args.seed} for {args.seconds} s, trace {args.trace}")
        result = measure(workload, args.seconds, bool(args.trace), log)
        info = manifest(args, threads, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = wl.PER_LAYER if args.trace else wl.END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in table}
    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"manifest": info, "metrics": metrics, **result}, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>15} predict samples {result['predict_samples']}, "
          f"repetitions {result['repetitions']}, failed {result['failed']}/{result['attempted']}")
    if args.trace:
        print(f"{args.workload:>15} input properties {json.dumps(result['inputs'])}")
        if result["missing_spans"]:
            print(f"{args.workload:>15} missing spans: {', '.join(result['missing_spans'])}")
    for problem in result["problems"]:
        print(f"{args.workload:>15} problem: {problem.splitlines()[-1]}")
    print(f"{args.workload:>15} details in {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "measured" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'measured'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
