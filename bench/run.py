#!/usr/bin/env python3
"""hardy-lab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload battery-1200 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --record-reference

Run from the repository root.  Each pass runs in a fresh worker process
(``bench/worker.py``) with one BLAS/OpenMP thread, one workload at a time,
one closed-loop client issuing the workload's operations back to back.
Passes repeat until the next one would end past ``--seconds`` (at least
one runs).  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the last line carries the per-layer metrics.  The full
record (environment, every pass, every operation) goes to
``.bench_out/``.  The exit code is 1 when any operation fails the
correctness gate (``bench/gate.py``) and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 2026

sys.path.insert(0, str(BENCH_DIR))
import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set before numpy loads in the worker: threaded OpenBLAS made
# `verify antitree:poly:2:1200` swing from 0.25 s to about 1.0 s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
# A run must end within 180 s; workers are killed once this much has passed.
RUN_BUDGET_S = 170
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, worker crash)."""


def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(workload, seed, trace, tag, deadline, setup_only=False):
    """Run one worker process to completion by ``deadline``; returns its JSON result."""
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"worker-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--result", str(result_path),
           "--tmp", str(OUT_DIR / f"tmp-{os.getpid()}-{tag}")]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}-{tag}.jsonl")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {tag} within {RUN_BUDGET_S} s")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish within {RUN_BUDGET_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker {tag} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    expected = ROOT / "src" / "hardy_lab" / "__init__.py"
    if Path(result["package"]).resolve() != expected.resolve():
        raise BenchError(f"worker imported {result['package']}, not {expected}")
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(values, unit):
    lo, hi = _quartiles(values)
    return {"median": statistics.median(values), "q1": lo, "q3": hi,
            "n": len(values), "unit": unit}


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(package_env, sizes, workload, seed, seconds):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **package_env,
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "sizes": sizes,
        "seed": seed,
        "seconds": seconds,
    }


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _gate(workload, passes, reference):
    """Judge every operation of every pass; returns (attempted, failures)."""
    refs = reference["workloads"].get(workload, {})
    first_digest = {}
    attempted, failures = 0, []
    for index, result in enumerate(passes):
        for op in result["ops"]:
            attempted += 1
            problems = gate.judge(op, refs.get(op["name"]))
            digest = first_digest.setdefault(op["name"], op["output_sha256"])
            if digest != op["output_sha256"]:
                problems.append("stdout differs from the first pass of this run")
            if problems:
                failures.append({"pass": index, "op": op["name"],
                                 "problems": problems})
    return attempted, failures


def _passes(workload, seed, seconds, trace, deadline):
    """Untraced passes, or (untraced, traced) pairs, until the time is spent."""
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(_run_worker(workload, seed, 0, f"u{len(untraced)}", deadline))
        if trace:
            traced.append(_run_worker(workload, seed, 1, f"t{len(traced)}", deadline))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return untraced, traced


def run_workload(workload, seed, seconds, trace, reference):
    deadline = time.monotonic() + RUN_BUDGET_S
    # untimed warm-up: compiles bytecode and reports the package environment
    package_env = _run_worker(workload, seed, 0, "warm", deadline,
                              setup_only=True)["environment"]
    untraced, traced = _passes(workload, seed, seconds, trace, deadline)
    setup = [p["setup_s"] for p in untraced + traced]
    while len(setup) < SETUP_SAMPLES:
        setup.append(_run_worker(workload, seed, 0, f"s{len(setup)}", deadline,
                                 setup_only=True)["setup_s"])

    end_to_end = {
        "wall_s": _summary([p["wall_s"] for p in untraced], "s"),
        "setup_s": _summary(setup, "s"),
        "peak_rss_mb": _summary([p["peak_rss_mb"] for p in untraced], "MB"),
    }
    attempted, failures = _gate(workload, untraced + traced, reference)
    end_to_end["failed_ops"] = {"median": len(failures) / attempted, "n": attempted,
                                "unit": "share"}
    record = {
        "environment": environment(package_env, untraced[0]["sizes"], workload, seed,
                                   seconds),
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failures": failures,
        "passes": untraced,
    }
    if trace:
        layers = {}
        names = traced[0]["layers"].keys()
        for name in names:
            values = [p["layers"][name][0] for p in traced]
            layers[name] = _summary(values, traced[0]["layers"][name][1])
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead"] = {
            "median": traced_wall / end_to_end["wall_s"]["median"],
            "n": len(traced), "unit": "ratio"}
        record["per_layer"] = layers
        record["traced_passes"] = traced
    return record


def _print_table(workload, record):
    print(f"== {workload}  seed={record['environment']['seed']}  "
          f"ops attempted={record['attempted']} failed={len(record['failures'])}")
    sections = [("end-to-end", record["end_to_end"])]
    if "per_layer" in record:
        sections.append(("per-layer (traced)", record["per_layer"]))
    for title, metrics in sections:
        print(f"  {title}")
        for name, m in metrics.items():
            spread = (f"  q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else "")
            print(f"    {name:36s} {m['median']:14.6g} {m['unit']:6s} n={m['n']}{spread}")
    for failure in record["failures"][:20]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: "
              f"{'; '.join(failure['problems'])}")


def record_reference(seed):
    reference = {"seed": seed, "source_sha256": _source_digest(),
                 "git_commit": _git_commit(), "workloads": {}}
    for workload in WORKLOADS:
        result = _run_worker(workload, seed, 0, "ref", time.monotonic() + RUN_BUDGET_S)
        entries = {}
        for op in result["ops"]:
            if op["error"] is not None or op["exit"] in (1, 2):
                raise BenchError(f"{workload} {op['name']}: cannot record a "
                                 f"failing operation ({op['error'] or op['exit']})")
            entries[op["name"]] = gate.reference_entry(op)
        reference["workloads"][workload] = entries
        print(f"recorded {workload}: {len(entries)} operations", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record bench/reference.json (seed {REFERENCE_SEED})")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hardy_lab" / "__init__.py").is_file():
        print(f"error: no hardy_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(REFERENCE_SEED)
            return 0
        reference = _load_reference()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = {}
        for workload in workloads:
            records[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, attempted, failed = {}, 0, 0
    for workload, record in records.items():
        _print_table(workload, record)
        path = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print("environment " + json.dumps(record["environment"], sort_keys=True))
        attempted += record["attempted"]
        failed += len(record["failures"])
        if args.trace:
            chosen = record["per_layer"]
        else:
            chosen = {k: record["end_to_end"][k] for k in END_TO_END}
        prefix = "" if len(records) == 1 else f"{workload}."
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
