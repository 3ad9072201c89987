"""Benchmark driver: seeded synthetic workloads run through the embalign CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  The driver generates the workload's inputs
from the seed, then starts one CLI process at a time
(``python -m embalign.cli`` with ``src`` on PYTHONPATH, BLAS threading left
at its default), as many as are predicted to fit in ``--seconds`` and at
least one, and checks every report the CLI writes.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced runs and prints the per-layer metrics.  The last line of output is one JSON object; ``--out``
also saves the full record, environment included, for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5  # set-up probes per run, after one discarded warm-up probe
CLI_TIMEOUT_S = 150.0
WORK_ROOT = ".bench_work"


@dataclass
class Sample:
    """One CLI process: its resource use and whether its output was correct."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    items: int = 0
    digest: str = ""


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_and_reap(cmd, env, stdout, stderr):
    """Run cmd to completion; return (exit code, wall s, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_cli(workload, inputs, out_dir, env, spans_path=None):
    """One CLI run of the workload, its report checked; returns a Sample."""
    from workloads import check_report

    argv = inputs.argv + ["--out-dir", out_dir]
    if spans_path is None:
        cmd = [sys.executable, "-m", "embalign.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path, *argv]
    err_path = out_dir + ".stderr"
    with open(err_path, "wb") as err:
        code, wall, usage = _spawn_and_reap(cmd, env, subprocess.DEVNULL, err)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6)
    if code != 0:
        with open(err_path, "rb") as f:
            tail = f.read()[-400:].decode(errors="replace").strip()
        sample.problems.append(f"exit code {code}: {tail}")
        return sample
    sample.problems.extend(check_report(workload, out_dir))
    if not sample.problems:
        sample.digest = _dir_digest(out_dir)
        with open(os.path.join(out_dir, workload.report), encoding="utf-8") as f:
            sample.items = workload.items(json.load(f))
    return sample


def check_repeats(samples):
    """Every correct run of one input must write byte-identical outputs."""
    digests = [s.digest for s in samples if s.digest]
    for s in samples:
        if s.digest and s.digest != digests[0]:
            s.problems.append("outputs differ from the first run's")


def setup_times(inputs, env, runs=SETUP_RUNS):
    """Seconds from spawning a probe until it has every input loaded."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), *inputs.paths]
    times = []
    for _ in range(runs + 1):  # the first fills bytecode caches and is dropped
        t0 = time.monotonic()
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return times[1:]


# --- environment record -------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by each OpenBLAS loaded into this process."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return None


def _commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "embalign")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


#: environment fields that identify the code rather than the machine
CODE_FIELDS = ("commit", "source_digest")


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "commit": _commit(root),
        "source_digest": _source_digest(root),
    }


# --- measuring ----------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def steal_s():
    """CPU seconds the hypervisor has taken from this machine since boot."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _timed_loop(seconds, step):
    """Call step() until the next call would overrun the budget; at least once."""
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        step()
        last = time.perf_counter() - t1
        if time.perf_counter() - t0 + last > seconds:
            return


def end_to_end(samples, setups):
    """metric -> (per-sample values, unit), from untraced runs."""
    return {
        "wall_s": ([s.wall_s for s in samples], "s"),
        "setup_s": (setups, "s"),
        "items_per_s": ([s.items / s.wall_s for s in samples], "1/s"),
        "peak_rss_mb": ([s.peak_rss_mb for s in samples], "MB"),
        "cpu_s": ([s.cpu_s for s in samples], "s"),
    }


def measure(workload, seed, seconds, trace, root, work):
    from spans import LAYER_METRICS, layer_metrics, spans_from_json

    env = _child_env(root)
    inputs_dir = _mkdir(work, "inputs")
    inputs = workload.generate(seed, inputs_dir)
    _flush(inputs_dir)
    setups = setup_times(inputs, env)
    plain, traced, layer_runs = [], [], []

    def once(spans_path=None):
        n = len(plain) + len(traced)
        out = _mkdir(work, f"out{n}")
        sample = run_cli(workload, inputs, out, env, spans_path)
        (plain if spans_path is None else traced).append(sample)
        if spans_path is not None and not sample.problems:
            with open(spans_path, encoding="utf-8") as f:
                layer_runs.append(spans_from_json(json.load(f)))
        shutil.rmtree(out)

    steal0 = steal_s()
    if trace:
        # an untraced run on each side of every traced one, so that a drift
        # in machine speed cancels out of trace_overhead_s
        once()
        _timed_loop(seconds, lambda: (once(os.path.join(work, "spans.json")), once()))
    else:
        _timed_loop(seconds, once)
    steal1 = steal_s()
    samples = plain + traced
    check_repeats(samples)

    record = {"attempted": len(samples),
              "failed": sum(1 for s in samples if s.problems),
              "problems": sorted({p for s in samples for p in s.problems}),
              "steal_s": steal1 - steal0 if steal0 is not None else None}
    series = end_to_end(plain, setups)
    record["samples"] = {k: v for k, (v, _) in series.items()}
    if not trace:
        record["metrics"] = {k: (statistics.median(v), unit) for k, (v, unit) in series.items()}
        return record
    per_run = [layer_metrics(spans) for spans in layer_runs]
    metrics = {name: (statistics.median(r[name] for r in per_run) if per_run else 0.0, unit)
               for name, unit in LAYER_METRICS.items() if name != "trace_overhead_s"}
    traced_wall = statistics.median(s.wall_s for s in traced)
    metrics["trace_overhead_s"] = (traced_wall - statistics.median(series["wall_s"][0]), "s")
    record["metrics"] = metrics
    if layer_runs:
        record["accounting"] = _accounting(layer_runs[-1], traced[-1].wall_s)
    return record


def _accounting(spans, traced_wall):
    """How much of one traced run's wall time the spans explain."""
    from spans import self_times

    root = [s for s in spans if s.parent is None and s.name == "cli.main"]
    main_s = root[0].end - root[0].start if root else 0.0
    return {"traced_wall_s": traced_wall,
            "cli_main_s": main_s,
            "sum_self_s": sum(self_times(spans).values()),
            "outside_spans_s": traced_wall - main_s}


def _flush(directory):
    """Write the generated inputs to disk now, so the kernel's delayed
    write-back does not land inside a timed run."""
    for name in os.listdir(directory):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _mkdir(*parts):
    path = os.path.join(*parts)
    os.makedirs(path, exist_ok=True)
    return path


# --- output -------------------------------------------------------------------


def report_lines(workload, record):
    lines = [f"workload {workload.name}: {record['attempted']} runs, {record['failed']} failed, "
             f"fail_frac {record['failed'] / record['attempted']:.4g}; "
             f"items_per_s counts {workload.item_unit}"]
    if record["steal_s"] is not None:
        lines.append(f"  CPU time stolen by the hypervisor during the runs: {record['steal_s']:.3g} s")
    for problem in record["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    for metric, (value, unit) in record["metrics"].items():
        line = f"  {metric:<50} {value:>14.6g} {unit}"
        samples = record["samples"].get(metric)
        if samples:
            q1, q2, q3 = quartiles(samples)
            line += f"   median of n={len(samples)}, q1 {q1:.6g}, q3 {q3:.6g}"
        lines.append(line)
    acc = record.get("accounting")
    if acc:
        total = acc["sum_self_s"]
        lines.append(f"  traced wall {acc['traced_wall_s']:.4g} s = cli.main {acc['cli_main_s']:.4g} s"
                     f" + outside spans (interpreter start, imports, exit) "
                     f"{acc['outside_spans_s']:.4g} s; self times sum to {total:.4g} s")
        shares = sorted(((v / total, k) for k, (v, u) in record["metrics"].items()
                         if k.endswith(".self_s") and v > 0), reverse=True)
        for share, k in shares:
            lines.append(f"    {share:7.2%} of self time  {k}")
    return lines


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    root = os.getcwd()
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record = measure(workload, args.seed, args.seconds, args.trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass
    record["env"] = environment(root)
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for line in report_lines(workload, record):
        print(line)
    correct = record["failed"] == 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "correct": correct, **record}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0 if correct else 1


def _require_checkout():
    """Exit early, printing no result, outside a checkout of the repository."""
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "embalign", "cli.py")):
        sys.exit("bench/run.py: run from the repository root; src/embalign/cli.py not found")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))


if __name__ == "__main__":
    _require_checkout()
    sys.exit(main())
