"""One pass of one workload in a fresh process.

    python3 bench/worker.py --workload battery-1200 --seed 1 --trace 0 \
        --result OUT.json --tmp DIR [--spans SPANS.jsonl] [--setup-only]

Times the import of ``hardy_lab`` (the set-up every command line call
pays), optionally installs the tracer, runs the workload's operations back
to back with stdout captured, and writes a JSON result: set-up and pass
seconds, peak resident memory, and per operation its exit code, output
digest and the checks it reported (``gate.observe``); ``run.py`` judges
them.  ``--setup-only`` stops after the import and records the package's
environment instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _environment():
    import mpmath
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "mpmath": mpmath.__version__,
            "scipy": scipy_version, "blas": blas}


def _run_ops(ops, tracer):
    outputs = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = index
        buf, err = io.StringIO(), io.StringIO()
        code, error, extra = None, None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code, extra = op.run()
        except Exception:  # the gate reports it; later operations still run
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        outputs.append((op.name, code, error, buf.getvalue() + (extra or ""),
                        err.getvalue(), seconds))
    return outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import hardy_lab
    import hardy_lab.cli  # noqa: F401  (the entry point loads it too)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "package": hardy_lab.__file__}
    if args.setup_only:
        result["environment"] = _environment()
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gate
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(hardy_lab)

    os.makedirs(args.tmp, exist_ok=True)
    try:
        ops = workloads.operations(args.workload, args.seed, args.tmp)
        if tracer is not None:
            tracer.start_pass()
        t_pass = time.perf_counter()
        outputs = _run_ops(ops, tracer)
        wall_s = time.perf_counter() - t_pass
        if tracer is not None:
            wall_s = tracer.finish_pass()
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update({"wall_s": wall_s, "peak_rss_mb": peak_kb / 1024.0,
                   "sizes": workloads.sizes(args.workload, args.seed), "ops": []})
    for name, code, error, text, stderr, seconds in outputs:
        observed = []
        if error is None:
            try:
                observed = gate.observe(text)
            except (ValueError, KeyError, TypeError) as exc:  # malformed JSON
                error = f"unparseable output: {exc}"
        result["ops"].append({
            "name": name, "exit": code, "error": error, "seconds": seconds,
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "observed": observed, "stderr": stderr[-2000:],
        })
    if tracer is not None:
        stdout_bytes = sum(len(text.encode()) for _, _, _, text, _, _ in outputs)
        result["layers"] = tracer.layers(wall_s, stdout_bytes)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
