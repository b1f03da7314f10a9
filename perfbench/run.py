"""Benchmark of the attnens CLI: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_scratch --seed 1 --seconds 30 --trace 0

The workloads and metrics are defined in BENCHMARK.json and described in
perfbench/README.md. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Everything else a run produces (environment, samples, fingerprints, spans,
the per-layer table) goes to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("train_scratch", "transfer_frozen", "predict_ensemble")

# One BLAS thread is part of every workload's definition: on a 2-core machine
# shared with other jobs, two threads predicted about 12% slower and spread
# more. The variables are cleared first so that ATTN_ENS_THREADS, through
# the package's own start-up code, is what sets them.
THREADS = "1"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_seconds(runs: int = 3) -> float:
    """Median time a fresh interpreter takes to import the CLI."""
    code = (
        "import time; t = time.perf_counter(); import attnens.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        child = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "ATTN_ENS_THREADS": os.environ.get("ATTN_ENS_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


UNITS = {"setup_s": "s", "img_per_probe": "img/probe", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attnens" / "cli.py").is_file():
        print(f"perfbench: no attnens sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.pop(var, None)
    os.environ["ATTN_ENS_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))
    import attnens.cli

    if Path(attnens.__file__).resolve().parent != SRC / "attnens":
        print(f"perfbench: imported attnens from {attnens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    import spans
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload_cls = workloads.WORKLOADS[args.workload]
    ledger = workloads.Ledger()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work = out / "work"
    # A traced run makes an untraced and a traced pass, each half as long,
    # so that it takes as long as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds

    plain = workloads.Phase(workload_cls, args.seed, sizes, ledger, seconds, work)
    measured = plain.metrics(import_s)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "import_s": import_s,
        "untraced": measured,
        "setup_samples_s": plain.setup_s,
        "img_per_s_samples": plain.throughputs,
        "img_per_probe_samples": plain.per_probe,
        "fingerprint": plain.fingerprint,
    }
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            traced = workloads.Phase(workload_cls, args.seed, sizes, ledger, seconds, work, tracer)
        ledger.check(
            traced.fingerprint == plain.fingerprint, "the traced run repeated the untraced outputs"
        )
        traced_metrics = traced.metrics(import_s)
        layer = spans.layer_metrics(tracer)
        for name, value in measured.items():
            layer[f"trace_overhead.{name}"] = (traced_metrics[name] - value, UNITS[name])
        tracer.write(out / "spans.jsonl", out / "layers.tsv")
        result["traced"] = traced_metrics
        result["per_layer"] = {name: value for name, (value, _) in layer.items()}
        reported = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        reported = {name: {"value": v, "unit": UNITS[name]} for name, v in measured.items()}
    result["attempted"], result["failed"], result["problems"] = (
        ledger.attempted,
        ledger.failed,
        ledger.problems,
    )
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    print_summary(result, args.trace)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": reported,
            }
        )
    )
    return 0


def print_summary(result: dict, trace: int) -> None:
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']:g}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    m = result["untraced"]
    throughput = "predict" if result["workload"] == "predict_ensemble" else "train"
    setups = len(result["setup_samples_s"])
    print(
        f"  setup_s            {m['setup_s']:10.4f} s  "
        f"(median import + median of {setups} set-ups)"
    )
    samples = result["img_per_s_samples"]
    wall = statistics.median(samples) if samples else 0.0
    print(
        f"  {throughput}_img_per_s  {wall:10.2f} img/s  "
        f"(wall clock; median of {len(samples)} iterations)"
    )
    print(
        f"  img_per_probe      {m['img_per_probe']:10.4f} img/probe  "
        "(per iteration: img/s x probe seconds)"
    )
    print(f"  peak_rss_mb        {m['peak_rss_mb']:10.1f} MB")
    ratio = result["failed"] / result["attempted"]
    print(
        f"  failed_ratio       {ratio:10.4f} ratio "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    print(f"  fingerprint        {result['fingerprint']['iteration']}")
    if trace:
        layer = result["per_layer"]
        steps = layer["trainer.sgd_momentum_step.calls"]
        if steps:
            conv = layer["layers.conv2d_forward.ms"] + layer["layers.conv2d_backward.ms"]
            pool = layer["layers.maxpool2d_forward.ms"] + layer["layers.maxpool2d_backward.ms"]
            print(
                f"  traced step        p50 {layer['trainer.step_ms.p50']:.2f} ms; per step: "
                f"conv {conv / steps:.2f} ms, maxpool {pool / steps:.2f} ms"
            )
        for name in result["traced"]:
            print(f"  trace_overhead.{name} {layer['trace_overhead.' + name]:+.4f} {UNITS[name]}")


if __name__ == "__main__":
    sys.exit(main())
