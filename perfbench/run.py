"""qkonc benchmark: the CLI experiments timed as whole processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload concentration|shots|noise|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed sequence of ``qkonc <experiment> --config <pinned
config> --seed N --threads 1`` jobs (configs in ``perfbench/configs``).  The
jobs run one at a time, each in its own child process started through
``perfbench/job.py``.  One pass over the sequence is an iteration.

``--trace 0`` repeats iterations for ``--seconds`` and reports the end-to-end
metrics named in ``BENCHMARK.json``, built from each job's median over the
iterations.  Runs are compared only at the same length: ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``, and the benchmark's
callers pass that value.  The metrics:

* ``setup_s``      spawn of each job until ``qkonc.cli`` has imported, summed
* ``wall_s``       spawn of each job until it exits, summed
* ``run_s``        ``wall_s - setup_s``
* ``cpu_s``        user + system CPU of the jobs (``wait4`` rusage), summed
* ``peak_rss_mb``  largest peak RSS of any job

``--trace 1`` runs one untraced and one traced iteration (span tracer plus
``-X importtime``) and reports the per-layer metrics named in
``BENCHMARK.json``; per-layer metrics a workload never reaches read 0.

Outputs are checked after the timed iterations; ``fail_ratio`` is the number
of failed jobs and checks over the number attempted.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Job outputs, spans
and a full ``result.json`` per workload are left in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
OUT = ROOT / ".perfbench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"

# A run must exit within 180 s; no job is started or left running past this.
RUN_LIMIT_S = 165.0
# Every job gets --threads 1.  On a 2-vCPU Xeon VM, alternating runs at
# --threads 1 and 2 put the worker threads and OpenBLAS's own two threads on
# the same two cores: noise-scan was slower at 2 threads (8.6-9.7 s against
# 7.4-8.3 s) and variance-scan's wall time jumped between two modes about 25%
# apart (5.2 and 6.6 s), against 8.5-9.0 s at one thread.  BLAS keeps its
# default thread count, so its spinning still shows in cpu_s.
THREADS = 1


@dataclass(frozen=True)
class Job:
    name: str
    experiment: str
    config: str
    check: str  # name of the function in checks.py that verifies its outputs


WORKLOADS = {
    "concentration": (
        Job("variance-scan", "variance-scan", "concentration_variance_scan.json", "variance_scan"),
        Job("gram-exact", "gram", "concentration_gram.json", "exact_gram"),
    ),
    "shots": (
        Job("gram-shots", "gram", "shots_gram.json", "shot_gram"),
        Job("train-krr", "train", "shots_train_krr.json", "krr_predictions"),
        Job("train-svm", "train", "shots_train_svm.json", ""),
        Job("generalization", "generalization", "shots_generalization.json", "generalization"),
    ),
    "noise": (Job("noise-scan", "noise-scan", "noise_scan.json", "noise_scan"),),
}

# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def run_job(job: Job, outdir: Path, seed: int, deadline: float, trace: bool) -> dict:
    """Spawn one job and wait for it; returns its timings and exit status."""
    # a job that fails must not leave the previous run's files to be read
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    stamp = outdir / "stamp"
    spans = outdir / "spans.jsonl"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [
        str(BENCH / "job.py"),
        str(stamp),
        str(spans) if trace else "-",
        job.experiment,
        "--config",
        str(CONFIGS / job.config),
        "--seed",
        str(seed),
        "--threads",
        str(THREADS),
        "--out",
        str(outdir),
    ]
    with open(outdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no job behind
            proc.kill()
            proc.wait()
            raise
        finally:
            t1 = time.monotonic()
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        setup = float(stamp.read_text()) - t0
    except (OSError, ValueError):  # the job died before qkonc.cli imported
        setup = t1 - t0
    return {
        "job": job.name,
        "experiment": job.experiment,
        "returncode": proc.returncode,
        "timed_out": t1 >= deadline,
        "setup_s": setup,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def job_ok(result: dict) -> bool:
    return result["returncode"] == 0 and not result["timed_out"]


def run_iteration(jobs, outdir: Path, seed: int, deadline: float, trace: bool = False) -> list[dict]:
    results = []
    for job in jobs:
        if time.monotonic() >= deadline:
            break
        results.append(run_job(job, outdir / job.name, seed, deadline, trace))
    return results


def end_to_end(results: list[dict]) -> dict[str, float]:
    setup = sum(r["setup_s"] for r in results)
    wall = sum(r["wall_s"] for r in results)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "run_s": wall - setup,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def typical_jobs(iterations: list[list[dict]]) -> list[dict]:
    """Each job's median over iterations of every timing, so that one slow
    job in one iteration does not move the workload's figures."""
    by_job: dict[str, list[dict]] = {}
    for results in iterations:
        for r in results:
            by_job.setdefault(r["job"], []).append(r)
    return [
        {key: statistics.median(r[key] for r in runs) for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
        for runs in by_job.values()
    ]


# files in a job's directory that are not the experiment's outputs, or that
# hold timings (the manifest records wall_time_s)
NOT_OUTPUTS = {"stamp", "stderr.txt", "spans.jsonl", "manifest.json"}


def output_hashes(jobs, outdir: Path) -> dict[str, dict[str, str]]:
    """SHA-256 of every output file each job left in its directory."""
    hashes = {}
    for job in jobs:
        jobdir = outdir / job.name
        files = sorted(jobdir.iterdir()) if jobdir.is_dir() else []
        hashes[job.name] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files if f.name not in NOT_OUTPUTS
        }
    return hashes


def warm_up(outdir: Path) -> None:
    """One untimed interpreter start that compiles and caches the package."""
    outdir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(BENCH / "job.py"), str(outdir / "stamp"), "-", "--version"],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
        check=False,
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Tally:
    """Counts attempted and failed jobs and checks; keeps the failures' names."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)

    def jobs(self, results: list[dict], expected: int) -> None:
        for r in results:
            self.add(f"job {r['job']} (exit {r['returncode']}, timed out {r['timed_out']})", job_ok(r))
        for _ in range(expected - len(results)):
            self.add("job not started before the run limit", False)


def check_outputs(jobs, outdir: Path, seed: int, tally: Tally) -> None:
    import numpy as np

    import checks

    for k, job in enumerate(jobs):
        if not job.check:
            continue
        cfg = json.loads((CONFIGS / job.config).read_text())
        rng = np.random.default_rng([seed, k, 0x5EED])
        try:
            results = getattr(checks, job.check)(outdir / job.name, cfg, rng)
        except Exception as exc:  # a broken output fails its job's checks, not the run
            tally.add(f"{job.name}: checks raised {type(exc).__name__}: {exc}", False)
            continue
        for name, passed in results:
            tally.add(f"{job.name}: {name}", bool(passed))


def check_same_outputs(first: dict, other: dict, what: str, tally: Tally) -> None:
    for job, files in first.items():
        tally.add(f"{job}: {what} outputs byte-identical", bool(files) and other.get(job) == files)


def svm_health(outdir: Path) -> dict:
    try:
        manifest = json.loads((outdir / "train-svm" / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}
    return {k: manifest.get(k) for k in ("converged", "iterations", "train_error_max")}


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _command_output(cmd: list[str]) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_facts(backend: str | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    commit = _command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "job_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "backend": backend,
        "commit": commit,
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
    }


def manifest_backend(jobs, outdir: Path) -> str | None:
    for job in jobs:
        try:
            return json.loads((outdir / job.name / "manifest.json").read_text())["backend"]
        except (OSError, ValueError, KeyError):
            continue
    return None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the packages the CLI pays for.

    A package imported through a lazy ``__getattr__`` (``scipy.stats``) gets
    no line of its own; its time is then the sum over its shallowest
    submodule lines.
    """
    lines = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            lines.append((m.group(3), len(m.group(2)), int(m.group(1)) / 1e6))

    def cumulative(package: str) -> float:
        for name, _, seconds in lines:
            if name == package:
                return seconds
        subs = [(depth, s) for name, depth, s in lines if name.startswith(package + ".")]
        top = min((depth for depth, _ in subs), default=0)
        return sum(s for depth, s in subs if depth == top)

    return {
        "import.qkonc.s": cumulative("qkonc") + cumulative("qkonc.cli"),
        "import.scipy.stats.s": cumulative("scipy.stats"),
        "import.numpy.s": cumulative("numpy"),
        "import.click.s": cumulative("click"),
    }


def layer_table(jobs, traced_dir: Path, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    import tracer

    span_files = [traced_dir / job.name / "spans.jsonl" for job in jobs]
    table = tracer.aggregate(f for f in span_files if f.exists())

    def add(key, value):
        table[key] = table.get(key, 0) + value

    for job in jobs:
        for key, value in import_times((traced_dir / job.name / "stderr.txt").read_text(errors="replace")).items():
            add(key, value)
    table["estimators.shots"] = sum(
        v for k, v in table.items() if k.startswith("estimators.") and k.endswith(".shots")
    )
    for r in plain:
        add(f"cli.{r['experiment']}.s", r["wall_s"])
    if plain and traced:
        table["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"]
    return table


# ---------------------------------------------------------------------------
# workload runs
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    jobs = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = OUT / workload
    warm_up(base)
    start = time.monotonic()
    tally = Tally()
    iterations: list[list[dict]] = []
    hashes = []
    outdir = base / "plain"
    while True:
        t = time.monotonic()
        results = run_iteration(jobs, outdir, seed, deadline)
        took = time.monotonic() - t
        iterations.append(results)
        tally.jobs(results, len(jobs))
        hashes.append(output_hashes(jobs, outdir))
        now = time.monotonic()
        if now - start + took > seconds or now + 2 * took > deadline:
            break
    check_outputs(jobs, outdir, seed, tally)
    for other in hashes[1:]:
        check_same_outputs(hashes[0], other, "rerun", tally)
    samples = [end_to_end(r) for r in iterations if r]
    typical = end_to_end(typical_jobs(iterations))
    metrics = {m["name"]: {"value": typical[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "iterations": iterations,
        "samples": samples,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "health": svm_health(outdir),
        "machine": machine_facts(manifest_backend(jobs, outdir)),
    }


def trace_run(workload: str, seed: int, spec: dict) -> dict:
    jobs = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = OUT / workload
    warm_up(base)
    tally = Tally()
    plain = run_iteration(jobs, base / "plain", seed, deadline)
    tally.jobs(plain, len(jobs))
    traced = run_iteration(jobs, base / "traced", seed, deadline, trace=True)
    tally.jobs(traced, len(jobs))
    check_outputs(jobs, base / "traced", seed, tally)
    check_same_outputs(output_hashes(jobs, base / "plain"), output_hashes(jobs, base / "traced"), "traced", tally)
    table = layer_table(jobs, base / "traced", plain, traced)
    health = svm_health(base / "traced")
    table["health.svm_train_error_max"] = float(health.get("train_error_max") or 0.0)
    metrics = {
        m["name"]: {"value": float(table.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec["per_layer"]
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "iterations": [plain, traced],
        "layer_table": table,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "health": health,
        "machine": machine_facts(manifest_backend(jobs, base / "traced")),
    }


def report(result: dict) -> None:
    w = result["workload"]
    print(f"[{w}] machine {json.dumps(result['machine'], sort_keys=True)}")
    if result["trace"] == 0:
        print(f"[{w}] {len(result['samples'])} iteration(s); sums of per-job medians [per-iteration sums]:")
    for name, m in result["metrics"].items():
        extra = ""
        if result["trace"] == 0:
            extra = "  [" + " ".join(f"{s[name]:.4f}" for s in result["samples"]) + "]"
        print(f"[{w}] {name:<48} {m['value']:>14.6g} {m['unit']}{extra}")
    failed = len(result["failures"])
    print(f"[{w}] {'fail_ratio':<48} {failed / max(1, result['attempted']):>14.6g} ratio ({failed}/{result['attempted']})")
    if result["health"]:
        print(f"[{w}] health svm {json.dumps(result['health'], sort_keys=True)}")
    for name in result["failures"]:
        print(f"[{w}] FAILED {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qkonc" / "cli.py").is_file() or not SPEC_FILE.is_file():
        print(f"missing {SRC / 'qkonc'} or {SPEC_FILE}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_FILE.read_text())

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        if args.trace:
            result = trace_run(w, args.seed, spec)
        else:
            result = measure(w, args.seed, args.seconds or spec["run_seconds"], spec)
        (OUT / w / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
