"""Layered benchmark for arbo.

    python3 perfbench/run.py --workload {control,sensitivity,cli} \\
        --seed N --seconds S --trace {0,1} [--tiny]
    python3 perfbench/run.py --selfcheck

Run from the root of a source tree: the package is imported from
`src/` as is, nothing is built.  `--trace 0` measures the end-to-end
metrics; `--trace 1` reports the per-layer metrics of one traced task.
The last line of standard output is the result; the line before it is
the run record (backend, machine, versions).  See perfbench/README.md.
"""

import os

# One thread everywhere, set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_S, Speed, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
CLI_IMPORT_REPEATS = 3


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn_seconds(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running `code`, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=150)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}")
    return seconds


def run_record() -> dict:
    import arbo._kernels
    import numpy

    try:
        importlib.import_module("arbo._kernels._fbs")
        compiled_error = None
    except ImportError as exc:
        compiled_error = str(exc)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), platform.processor())
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "arbo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "backend": arbo._kernels.BACKEND,
        "compiled_import_error": compiled_error,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def kernel_comparison() -> dict:
    """Fallback against compiled kernel times on the Table 5 problem;
    only called when the compiled extension imports."""
    import numpy as np
    from arbo._kernels import _fbs, fallback
    from arbo.model import (ControlParams, ModelParams,
                            control_params_to_array, params_to_array)

    with open(SRC / "arbo/fixtures/table5_control.json", encoding="utf-8") as f:
        cfg = json.load(f)
    par = params_to_array(ModelParams(**cfg["params"]))
    cpar = control_params_to_array(ControlParams(**cfg["control_params"]))
    x0 = np.asarray(cfg["initial_state"], dtype=float)
    dwts = np.array([cfg["weights"][k] for k in ("D1", "D2", "D3", "D4")])
    n = cfg["grid"]["n_steps"]
    dt = (cfg["grid"]["tf"] - cfg["grid"]["t0"]) / n
    u = np.random.default_rng(0).uniform(0.0, 0.5, (n + 1, 5))
    states = fallback.rk4_controlled(par, cpar, x0, u, dt)
    cases = {
        "rk4_basic": lambda m: m.rk4_basic(par, x0, n, dt),
        "rk4_controlled": lambda m: m.rk4_controlled(par, cpar, x0, u, dt),
        "rk4_adjoint": lambda m: m.rk4_adjoint(par, cpar, dwts, states, u, dt),
    }
    out = {}
    for name, call in cases.items():
        best = {}
        for label, mod in (("python_s", fallback), ("compiled_s", _fbs)):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                call(mod)
                times.append(time.perf_counter() - t0)
            best[label] = min(times)
        best["speedup"] = best["python_s"] / best["compiled_s"]
        out[name] = best
    return out


def measure(wl, seconds: float, tiny: bool, speed) -> list:
    """Whole tasks until the next one would end after `seconds`."""
    tasks = []
    start = time.perf_counter()
    with speed:
        while True:
            tasks.append(wl.task(speed))
            elapsed = time.perf_counter() - start
            typical = statistics.median(t.seconds for t in tasks)
            if tiny or elapsed + typical > seconds:
                return tasks


def set_up(wl, env, repeats: int) -> tuple[list, float]:
    """Wall times of `repeats` fresh set-ups, and the median "spawn"
    reference chunk time around them."""
    speed = Speed("spawn")
    times = []
    for _ in range(repeats):
        speed.gap()
        times.append(spawn_seconds(wl.setup_code, env))
    speed.gap()
    return times, speed.take()


def end_to_end(wl, tasks, setup, setup_ref) -> tuple[dict, dict]:
    """The end-to-end metrics, with times at the reference speed, and
    the same figures as raw wall times for the record."""
    kind = wl.reference
    scaled = [rescale(t.seconds, t.ref, kind) for t in tasks]
    metrics = {
        "setup_s": (rescale(statistics.median(setup), setup_ref, "spawn"), "s"),
        "peak_rss_mb": (resource.getrusage(wl.rusage).ru_maxrss / 1024.0, "MB"),
        "task_s": (statistics.median(scaled), "s"),
        "work_per_s": (statistics.median(
            t.units / s for t, s in zip(tasks, scaled)), "1/s"),
    }
    wall = {
        "setup_s": statistics.median(setup),
        "task_s": statistics.median(t.seconds for t in tasks),
        "work_per_s": statistics.median(t.units / t.seconds for t in tasks),
        "host_speed": statistics.median(REF_NOMINAL_S[kind] / t.ref for t in tasks),
    }
    return metrics, wall


def per_layer(name, wl, cli, env, tiny) -> tuple[dict, list, list]:
    """Per-layer figures of one traced pass.

    The traced pass is the workload's task plus one in-process pass over
    the seven CLI commands, which reaches every layer (for `cli` the
    in-process pass is the task).  The same pass untraced gives the
    tracing overhead and `cli.<command>.work_s` (after one warm-up pass,
    so that first-call costs fall on neither side); each command run once
    as its own process gives `cli.<command>.cold_s`.  Returns the
    figures, the tasks whose operations the result counts, and the
    auxiliary CLI passes, whose checks still apply.
    """
    from spans import Tracer

    off = Speed(None)  # per-layer figures are raw wall times
    own, aux = [], []
    cli_tasks = own if name == "cli" else aux
    cli_tasks.append(cli.task(off))
    cold = dict(cli.last_seconds)

    cli_tasks.append(cli.task(off, in_process=True))  # warm-up, not compared
    untraced = 0.0
    if name != "cli":
        own.append(wl.task(off))
        untraced += own[-1].seconds
    cli_tasks.append(cli.task(off, in_process=True))
    untraced += cli_tasks[-1].seconds
    work = dict(cli.last_seconds)

    with Tracer() as tracer:
        traced = 0.0
        if name != "cli":
            own.append(wl.task(off))
            traced += own[-1].seconds
        cli_tasks.append(cli.task(off, in_process=True))
        traced += cli_tasks[-1].seconds

    layers = tracer.layer_metrics()
    layers["cli.import_s"] = statistics.median(
        spawn_seconds("import arbo.cli", env)
        for _ in range(1 if tiny else CLI_IMPORT_REPEATS))
    for cmd in cli.commands:
        layers[f"cli.{cmd}.cold_s"] = cold[cmd]
        layers[f"cli.{cmd}.work_s"] = work[cmd]
    layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return layers, own, aux


def unit_of(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("per_draw"):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def selfcheck() -> int:
    """Run every workload in tiny mode, traced and untraced, and check
    the form of each result against BENCHMARK.json (no timing gates)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = []
            try:
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                record = json.loads(lines[-2])["record"]
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if proc.returncode != 0:
                    problems.append(f"exit code {proc.returncode}")
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result["correct"] is not True:
                    problems.append("correct is not true")
                if not (type(result["attempted"]) is int and result["attempted"] >= 1
                        and type(result["failed"]) is int
                        and 0 <= result["failed"] <= result["attempted"]):
                    problems.append("attempted/failed are not counts")
                if got != want:
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                                    f" or units")
                if not all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()):
                    problems.append("a metric value is not a number")
                if not isinstance(record.get("backend"), str):
                    problems.append("record names no backend")
            except (IndexError, KeyError, ValueError, AttributeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            label = f"{workload['name']} --trace {trace}"
            if problems:
                status = 1
                print(f"FAIL {label}: " + "; ".join(problems))
                print(proc.stderr[-2000:])
            else:
                print(f"ok   {label}: attempted {result['attempted']}, "
                      f"failed {result['failed']}, backend {record['backend']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("control", "sensitivity", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one task: checks the form of "
                             "the output, not the timings")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload with --tiny and check the "
                             "output against BENCHMARK.json")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "arbo" / "__init__.py").is_file():
        fail(f"no arbo sources under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    env = dict(os.environ)
    import arbo
    if Path(arbo.__file__).resolve().parent != (SRC / "arbo").resolve():
        fail(f"imported arbo from {arbo.__file__}, not from {SRC}")
    from workloads import WORKLOADS, CliWorkload

    record = run_record()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, args.tiny, workdir)
        if args.trace:
            cli = wl if args.workload == "cli" else CliWorkload(
                ROOT, args.seed, args.tiny, workdir)
            values, tasks, aux = per_layer(args.workload, wl, cli, env, args.tiny)
            metrics = {k: (v, unit_of(k)) for k, v in values.items()}
            if record["compiled_import_error"] is None:
                record["kernel_comparison"] = kernel_comparison()
        else:
            setup, setup_ref = set_up(wl, env, 1 if args.tiny else SETUP_REPEATS)
            tasks, aux = measure(wl, args.seconds, args.tiny, Speed(wl.reference)), []
            metrics, record["wall"] = end_to_end(wl, tasks, setup, setup_ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for t in tasks + aux for p in t.problems]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    record["tasks"] = len(tasks)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(t.attempted for t in tasks),
        "failed": sum(t.failed for t in tasks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
