"""memaug benchmark: seeded workloads against the public API, checked by oracles.

    python3 bench/run.py --workload ingest-20k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from a source checkout: the package is imported from ``src/`` next to
this directory. Each workload prints its environment, input statistics,
every metric by name with its unit and every oracle check, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics listed in BENCHMARK.json; ``--trace 1``
measures once untraced and once traced and reports the per-layer metrics.
``--workload all`` runs each workload in its own process.

Scratch files, the serve fixture cache and trace files live under
``.bench_build/bench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "bench"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 900


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= limit):
            os.environ[var] = str(limit)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-serve-fixture", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed: int, workload: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "memaug").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_version,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha, "src_sha256": digest.hexdigest(), "machine": platform.machine(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args, spec: dict) -> int:
    import adapter
    import workloads
    from layers import layer_metrics
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        cls = workloads.WORKLOADS[args.workload]
        if cls is workloads.Serve:
            workload = cls(args.seed, workdir, workloads.fixture_dir(WORK_ROOT))
        else:
            workload = cls(args.seed, workdir)
        env = environment(args.seed, args.workload)
        env.update({"chat_delay_ms": workloads.CHAT_DELAY_S * 1000, "dimension": workloads.DIMENSION,
                    "parallelism": workloads.PARALLELISM, "seconds": args.seconds})
        print(f"# bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print("inputs " + json.dumps(workload.inputs(), sort_keys=True))

        measured = workload.measure(args.seconds)
        checks = workload.check(measured)
        attempted, failed = measured["attempted"], measured["failed"] + checks.failed()
        metrics = measured["metrics"]
        if "samples" in measured:
            print("samples " + json.dumps(measured["samples"], sort_keys=True))
        del measured

        per_layer = None
        if args.trace:
            tracer = Tracer()
            adapter.instrument(tracer)
            try:
                traced = workload.measure(args.seconds, tracer)
            finally:
                tracer.uninstall()
            traced_checks = workload.check(traced)
            checks.merge(traced_checks)
            attempted += traced["attempted"]
            failed += traced["failed"] + traced_checks.failed()
            per_layer = layer_metrics(tracer, traced, metrics["throughput_per_s"][0])
            del traced
            trace_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"env": env, "fields": [
                "id", "name", "start", "end", "parent", "op", "thread"]})
            print(f"trace {trace_path.relative_to(ROOT)} spans={len(tracer.spans)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {failed / attempted!r} ratio")
    for line in checks.lines():
        print(line)
    if per_layer is None:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: metrics[name][0] for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in wanted:
            print(f"layer {name} {per_layer[name]!r} {wanted[name]}")
        values = {name: per_layer[name] for name in wanted}
    out = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    print(result_line(failed == 0, attempted, failed, out))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_threads()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "memaug" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no memaug source tree at {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("memaug")
    if found is None or Path(found.origin).resolve().parent != (SRC / "memaug").resolve():
        print(f"error: memaug does not resolve to {SRC / 'memaug'}", file=sys.stderr)
        return 2
    if args.build_serve_fixture:
        import workloads

        workloads.build_serve_fixture(Path(args.build_serve_fixture))
        return 0
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
