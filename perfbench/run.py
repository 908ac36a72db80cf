"""penscript benchmark: train_ctc, decode_beam and prep_corpus through the CLI.

One workload per process:

    python3 perfbench/run.py --workload train_ctc --seed 1 --seconds 20 --trace 0

prints report lines, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics; --trace 1 gives the per-layer metrics of a traced run, plus the
tracing overhead. Every workload, both ways, in fresh processes one after
another, with a table of every metric and its unit:

    python3 perfbench/run.py --workload all

The program is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train_ctc", "decode_beam", "prep_corpus")

# BLAS/OpenMP threads, pinned after measuring run-to-run spread at 1 and
# at nproc threads (see perfbench/README.md).
THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny model and inputs, for the smoke test")
    p.add_argument(
        "--setup-probe", metavar="DIR",
        help="set up once, cold, on inputs already generated in DIR, and print the times",
    )
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": THREADS,
    }


def bench_cmd(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    """This benchmark in a new interpreter, with this run's seed and size."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), *extra,
    ]
    return cmd + (["--tiny"] if args.tiny else [])


def setup_in_fresh_process(args: argparse.Namespace, work: Path) -> float:
    """Set-up seconds (import, build, warm-up) of a new interpreter on work's inputs."""
    cmd = bench_cmd(args, args.workload, "--setup-probe", str(work))
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["build_s"] + probe["warmup_s"]


def run_one(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (after the thread variables are set)
    import penscript.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(penscript.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: penscript imported from outside {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        wl = workloads.open_workload(args.workload, args.seed, args.tiny, Path(args.setup_probe))
        print(json.dumps({"import_s": import_s, **workloads.probe_setup(wl)}))
        return 0

    env = environment()
    print("env " + json.dumps(env))
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.open_workload(args.workload, args.seed, args.tiny, work)
        wl.generate()
        # set-up is cold once per process: two more processes give a median of three
        other_setups_s = [] if args.trace else [setup_in_fresh_process(args, work) for _ in range(2)]
        record = workloads.run(wl, args.seconds, bool(args.trace), import_s, other_setups_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"] = env
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        wl.h.tracer.write(stem.with_suffix(".spans.jsonl"))
    metrics = record.pop("metrics")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} ops, {record['failed']} failed, error_rate "
          f"{record['failed'] / record['attempted']:.4g} ratio")
    print("latency " + json.dumps(record["latency"]))
    print("process per op " + json.dumps(record["process_per_op"]))
    for k, m in record["metrics"].items():
        print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, each in its own fresh process."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = bench_cmd(args, name, "--seconds", str(args.seconds), "--trace", str(trace))
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit status {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if trace == 0:
                rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
            rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            status |= 0 if result["correct"] else 1
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:44s} {value:14.6g} {unit}")
    return status


def main() -> int:
    args = parse_args()
    if not (SRC / "penscript" / "cli.py").is_file():
        print(f"perfbench: no penscript sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
