"""Run one pass of a job list in this process, one job at a time.

    python3 bench/worker.py MANIFEST RESULT

MANIFEST is JSON: {"argv": [[...], ...], "trace": bool, "spans": path|null}.
Each job is one call of ``bvcheck.cli.main(argv)`` with its stdout and
stderr captured; RESULT receives per-job exit codes, times and reports, the
calibration times, the process's peak RSS and, when tracing, the layer
totals.  ``bvcheck`` must be importable (the caller puts ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for one fixed task that uses no bvcheck code.

    It squares a sparse polynomial with Fraction coefficients held in a dict
    keyed by exponent tuples, the kind of work bvcheck does, so its time
    follows the speed the machine gives this process at the moment.
    """
    a = {(i, j, (i * j) % 3): Fraction(i - 4, j + 2) for i in range(9) for j in range(9)}
    t0 = perf_counter()
    out = {}
    for ka, ca in a.items():
        for kb, cb in a.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    return perf_counter() - t0


def run_jobs(argvs: list[list[str]], tracer=None) -> dict:
    """Call ``main`` on each argv in order; tracer, if given, is installed.

    The calibration task runs before the first job, after every
    CALIBRATE_EVERY_S of job time and after the last job, outside the jobs'
    timed regions.
    """
    from bvcheck.cli import main

    jobs = []
    calibration = [calibrate()]
    since_calibration = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for k, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = k
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            except Exception as exc:  # a crash is a failed job, not a crashed pass
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            jobs.append({"code": code, "seconds": t1 - t0, "report": out.getvalue(),
                         "error": error or err.getvalue().strip()})
            since_calibration += t1 - t0
            if since_calibration >= CALIBRATE_EVERY_S:
                calibration.append(calibrate())
                since_calibration = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration.append(calibrate())
    return {"jobs": jobs, "calibration": calibration}


def main(manifest_path: str, result_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    tracer = None
    if manifest["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    result = run_jobs(manifest["argv"], tracer)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        if manifest.get("spans"):
            tracer.write_spans(manifest["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
