"""sharedformer benchmark: one workload per process, results as one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 20 --trace 0

The workload seed makes the inputs; the program only sees the generated
files. Rounds of the workload repeat until ``--seconds`` have passed. With
``--trace 0`` the last stdout line holds the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The metric names and units come from BENCHMARK.json at the
checkout root. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Environment hygiene, before numpy is imported: one BLAS thread, so the
# process runs no thread besides its own, and no LC_THREADS, so training
# never takes the thread-pool path.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LC_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="sharedformer benchmark")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment() -> dict:
    import numpy as np
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:                 # numpy builds differ in what they expose
        blas = "unknown"
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("LC_THREADS",)},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "command": [sys.executable] + sys.argv,
    }


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not (SRC / "sharedformer" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'sharedformer'} is missing")
    sys.path.insert(0, str(SRC))
    import sharedformer
    if Path(sharedformer.__file__).resolve().parent != (SRC / "sharedformer").resolve():
        fail(f"imported sharedformer from {sharedformer.__file__}, not from {SRC}")

    import workloads as wl
    from yardstick import Yardstick

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tally = wl.Tally()
    ys = Yardstick()
    try:
        if args.trace:
            metrics, info = traced_run(args, work, tally, ys)
            wanted = spec["per_layer"]
        else:
            metrics, info = untraced_run(args, work, tally, ys)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}")
    for problem in tally.problems:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    print("perfbench-env " + json.dumps(environment()))
    print("perfbench-info " + json.dumps(info))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _rounds(args, inputs, work, instr, ys, tally, min_rounds, label):
    """Repeat the workload's round until --seconds have passed."""
    import workloads as wl
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t0 < args.seconds:
        instr.start_bucket(f"{label}{len(rounds)}")
        rounds.append((wl.run_round(args.workload, inputs, work / f"{label}{len(rounds)}",
                                    instr, ys, tally), instr.bucket))
        instr.stop_bucket()
    return rounds


def untraced_run(args, work, tally, ys):
    import workloads as wl
    from tracer import Instrumentation
    instr = Instrumentation(trace=False)
    instr.install()
    try:
        walls, scales = [], []
        for i in range(wl.SETUP_REPS):
            if i:
                shutil.rmtree(inputs.root)
            inputs, wall, scale = wl.setup(args.workload, args.seed, work / f"setup{i}", ys)
            walls.append(wall)
            scales.append(scale)
        wl.sli_references(inputs)
        rounds = [r for r, _ in _rounds(args, inputs, work, instr, ys, tally, 1, "round")]
    finally:
        instr.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = wl.details(rounds)
    info["setup_walls_s"] = [round(w, 4) for w in walls]
    info["setup_scales"] = [round(x, 3) for x in scales]
    return wl.end_to_end(rounds, [w * x for w, x in zip(walls, scales)], peak), info


def traced_run(args, work, tally, ys):
    import workloads as wl
    from tracer import Instrumentation, write_spans
    # one untraced set-up and round, the baseline for the tracing overhead
    plain = Instrumentation(trace=False)
    plain.install()
    try:
        inputs, plain_setup, _ = wl.setup(args.workload, args.seed, work / "plain-setup", ys)
        wl.sli_references(inputs)
        plain_round = wl.run_round(args.workload, inputs, work / "plain", plain, ys, tally)
    finally:
        plain.uninstall()
    shutil.rmtree(inputs.root)

    instr = Instrumentation(trace=True)
    instr.install()
    try:
        setup_bucket = instr.start_bucket("setup")
        inputs, traced_setup, _ = wl.setup(args.workload, args.seed, work / "setup", ys)
        instr.stop_bucket()
        wl.sli_references(inputs)
        # at least two traced rounds, so their counts can be compared
        traced = _rounds(args, inputs, work, instr, ys, tally, 2, "round")
    finally:
        instr.uninstall()

    buckets = [b for _, b in traced]
    metrics, mismatches = wl.per_layer(setup_bucket, buckets)
    for key in mismatches:
        tally.add(1, 1, f"count {key} differs between traced rounds: "
                        f"{[b.metrics()[key] for b in buckets]}")
    traced_round = statistics.median(r.wall_s for r, _ in traced)
    metrics["trace.overhead_s"] = (traced_setup + traced_round) - (plain_setup + plain_round.wall_s)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    write_spans(spans_path, [setup_bucket] + buckets)
    info = {
        "traced_rounds": len(traced),
        "untraced_round_s": round(plain_round.wall_s, 4),
        "traced_round_s": [round(r.wall_s, 4) for r, _ in traced],
        "untraced_setup_s": round(plain_setup, 4),
        "traced_setup_s": round(traced_setup, 4),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


if __name__ == "__main__":
    sys.exit(main())
