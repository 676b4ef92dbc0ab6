#!/usr/bin/env python3
"""specwave benchmark: time and memory to a verified result.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a specwave checkout; the package is taken from the
checkout's src/ directory, never from an installed copy.

--trace 0 drives the specwave CLI as fresh child processes in a closed loop
(one client, one invocation at a time), cycling through the workload's seeded
rounds until --seconds of invocation time have been measured, always finishing
a round. Every invocation is checked by the independent oracle after it ends,
outside the timed interval. It reports the end-to-end metrics:

    setup_s       median wall time of a fresh interpreter running `import specwave.cli`,
                  sampled three times before the first round and once before each round
    wall_s        wall time per invocation, spawn to exit: the median over rounds
                  of the round's mean
    cpu_s         user+sys CPU time per invocation (os.wait4 rusage), same statistic
    peak_rss_mib  largest child ru_maxrss in the run
    failed_ratio  failed / attempted invocations (printed; the JSON carries both counts)

--trace 1 calls specwave.cli.main in this process for a fixed script of the
workload, with wrappers from tracing.py around specwave's public functions. It
alternates untraced and traced passes for the times and trace.overhead_s, then
makes one pass under tracemalloc for the .peak_mib metrics, and requires every
work count to repeat exactly between passes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Run records (machine facts, child environment, seed, input digest)
go to .perfbench_work/results/ in the checkout, and spans to
.perfbench_work/spans/.
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
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_FIRST = 3  # set-up samples before the first round; one more precedes each round
INVOCATION_TIMEOUT_S = 100.0
TRACE_MIN_ROUNDS = 2  # untraced-first and traced-first, so first-call costs cancel

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def blas_threads() -> int:
    """One BLAS thread per usable CPU, at most two, so no run uses more threads than nproc."""
    return min(2, len(os.sched_getaffinity(0)))


def thread_env() -> dict:
    n = str(blas_threads())
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k not in ("SPECWAVE_OUT", "OPENBLAS_NUM_THREADS",
                                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(thread_env())
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"), PYTHONHASHSEED="0")
    return env


class Child:
    """Outcome of one child process: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, argv, cwd: Path, env: dict, stdout_path: Path):
        with stdout_path.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.output = stdout_path.read_text(errors="replace")


def machine_facts() -> dict:
    import mpmath
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "child_threads": thread_env(),
        "benchmark_threads": {k: os.environ[k] for k in thread_env()},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        facts["cpu"] = "unknown"
    return facts


def check_tree():
    if not (SRC / "specwave" / "cli.py").is_file():
        sys.exit(f"error: no specwave sources at {SRC.relative_to(ROOT)}/specwave; "
                 "run the benchmark from a specwave checkout")


def prepare(inv, directory: Path):
    """Fresh output directory (and config.json) for one invocation; returns its argv."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config = None
    if inv.config is not None:
        config = directory / "config.json"
        config.write_text(json.dumps(inv.config))
    return inv.argv(str(config) if config else None, str(directory / "out"))


def check_import(env: dict, run_dir: Path):
    """Warm-up import that also proves specwave resolves to this checkout."""
    probe = [sys.executable, "-c", "import specwave.cli, specwave; print(specwave.__file__)"]
    warm = Child(probe, run_dir, env, run_dir / "setup.txt")
    where = Path(warm.output.strip().splitlines()[-1]).resolve() if warm.output.strip() else None
    if warm.code != 0 or where is None or SRC.resolve() not in where.parents:
        sys.exit(f"error: specwave does not import from {SRC}: {warm.output.strip()[-500:]}")


def setup_time(env: dict, run_dir: Path) -> float:
    """Wall seconds of one fresh interpreter importing specwave.cli."""
    return Child([sys.executable, "-c", "import specwave.cli"], run_dir, env, run_dir / "setup.txt").wall


def timed_run(rounds, seconds: float, run_dir: Path, problems_log: list):
    """Closed loop over child processes: (metrics, attempted, failed, detail)."""
    import oracle

    env = child_env()
    check_import(env, run_dir)
    setup = [setup_time(env, run_dir) for _ in range(SETUP_FIRST)]
    children, per_round, failed, measured, r = [], [], 0, 0.0, 0
    while measured < seconds or r == 0:
        setup.append(setup_time(env, run_dir))  # spread over the run, like the work
        per_round.append([])
        for i, inv in enumerate(rounds[r % len(rounds)]):
            inv_dir = run_dir / "inv"
            argv = prepare(inv, inv_dir)
            child = Child([sys.executable, "-m", "specwave", *argv], inv_dir, env, inv_dir / "stdout.txt")
            measured += child.wall
            children.append(child)
            per_round[-1].append(child)
            problems = oracle.check(inv.command, inv.spec, inv_dir / "out", child.output, child.code)
            if problems:
                failed += 1
                problems_log.append({"round": r, "index": i, "command": inv.command, "problems": problems,
                                     "output": child.output[-2000:]})
        r += 1
    # A round mixes commands of different cost, so the plain median over its
    # invocations sits on the edge between two commands and jumps with the
    # machine's speed. The median over rounds of the mean per invocation equals
    # it for one-command rounds and stays steady for mixed ones.
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(statistics.fmean(c.wall for c in rnd) for rnd in per_round),
        "cpu_s": statistics.median(statistics.fmean(c.cpu for c in rnd) for rnd in per_round),
        "peak_rss_mib": max(c.rss_mib for c in children),
    }
    detail = {"setup_samples": setup, "rounds": r,
              "invocations": [{"wall": c.wall, "cpu": c.cpu, "rss_mib": c.rss_mib, "code": c.code}
                              for c in children]}
    return metrics, len(children), failed, detail


def traced_run(rounds, seconds: float, run_dir: Path, problems_log: list):
    """In-process traced passes over the workload's first round:
    (metrics, attempted, failed, detail, spans per pass, counts repeat)."""
    import tracemalloc

    import oracle
    import tracing

    sys.path.insert(0, str(SRC))
    import specwave

    if SRC.resolve() not in Path(specwave.__file__).resolve().parents:
        sys.exit(f"error: specwave imported from {specwave.__file__}, not {SRC}")
    script = rounds[0]
    inv_dir = run_dir / "inv"
    failed = attempted = 0
    absent = set()

    def one(inv, tracer=None):
        nonlocal failed, attempted
        argv = prepare(inv, inv_dir)
        patches = []
        if tracer is not None:
            patches, missing = tracing.install(tracer)
            absent.update(missing)
        try:
            code, stdout, wall, error = tracing.run_main(argv)
        finally:
            tracing.uninstall(patches)
        if tracer is not None:
            attempted += 1
            tracing.record_writes(tracer.spans, tracer.invocation)
            problems = oracle.check(inv.command, inv.spec, inv_dir / "out", stdout, code)
            if error:
                problems.append(error)
            if problems:
                failed += 1
                problems_log.append({"command": inv.command, "problems": problems})
            tracer.invocation += 1
        return wall

    per_round, overheads, all_spans = [], [], []
    start = time.perf_counter()
    while len(per_round) < TRACE_MIN_ROUNDS or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        for inv in script:
            if len(per_round) % 2 == 0:
                plain = one(inv)
                traced = one(inv, tracer)
            else:
                traced = one(inv, tracer)
                plain = one(inv)
            overheads.append(traced - plain)
        per_round.append(tracing.aggregate(tracer.spans))
        all_spans.append(tracer.spans)

    memory = tracing.Tracer(memory=True)
    memory_start = time.perf_counter()
    tracemalloc.start()
    try:
        for inv in script:
            one(inv, memory)
    finally:
        tracemalloc.stop()
    all_spans.append(memory.spans)
    memory_s = time.perf_counter() - memory_start

    counts = [c for _, c in per_round] + [tracing.aggregate(memory.spans)[1]]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        problems_log.append({"problems": ["work counts differ between traced passes"], "counts": counts})
    metrics = tracing.layer_metrics(per_round, tracing.peaks(memory.spans), overheads)
    detail = {
        "rounds": len(per_round),
        "memory_pass_s": memory_s,
        "absent_targets": sorted(absent),
        "counts_repeat": repeat,
        "shares": {
            "verification": tracing.share(all_spans[0], {"verification"}),
            "phase+timeavg": tracing.share(all_spans[0], {"phase", "timeavg"}),
        },
        "overheads": overheads,
    }
    return metrics, attempted, failed, detail, all_spans, repeat


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_tree()
    # Set before NumPy loads here. A traced run executes specwave in this process
    # with the children's BLAS threads. A timed run only needs BLAS for the
    # oracle, and idle BLAS threads spinning here would compete with the child.
    os.environ.update(thread_env() if args.trace else dict.fromkeys(thread_env(), "1"))
    from tracing import LAYER_METRICS

    rounds = workloads.build(args.workload, args.seed)
    facts = machine_facts()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    problems: list = []
    spans = None
    try:
        if args.trace:
            metrics, attempted, failed, detail, spans, repeat = traced_run(rounds, args.seconds, run_dir, problems)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            metrics, attempted, failed, detail = timed_run(rounds, args.seconds, run_dir, problems)
            units, repeat = END_TO_END_UNITS, True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": workloads.digest(rounds), "machine": facts,
        "metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail, "problems": problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (WORK / "spans").mkdir(exist_ok=True)
        with (WORK / "spans" / f"{stem}.jsonl").open("w") as fh:
            for number, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps({"pass": number, **span}) + "\n")

    print(f"specwave benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs sha256={record['inputs_sha256']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    if args.trace:
        print(f"  absent targets: {detail['absent_targets'] or 'none'}; counts repeat: {repeat}")
        for group, value in detail["shares"].items():
            print(f"  share of traced invocation time in {group}: {100 * value:.1f}%")
    else:
        print(f"  {'failed_ratio':<52} {failed / attempted:>16.6g} ratio ({failed} of {attempted} failed)")
    for entry in problems[:5]:
        print(f"  FAILED: {json.dumps(entry)[:1500]}", file=sys.stderr)

    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
