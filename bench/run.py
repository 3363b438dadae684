"""Known-answer benchmark for bvcheck.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/bvcheck``.  NAME is one of
``sampled-suites``, ``refute``, ``cohomology-window`` or ``all``.  The job
list of a workload is generated from the seed (``workloads.py``) and written
as spec files under ``.bench_work/``.  Each pass runs the whole list in a
fresh worker process, one job at a time (a closed loop with one client);
passes repeat while another one fits in S seconds.  Every job's verdict is
compared with its known answer.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the per-layer metrics.  Lines before it give every
metric by name and unit, the known-answer check and the report digest.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import PER_LAYER, per_layer_metrics  # noqa: E402
from workloads import DOMAIN, EXIT_VERDICT, WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # confirm claims on this seed; do not tune against it
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 15
DEADLINE_S = 170  # a run must end within 180 s
# Times are reported in calibrated seconds: seconds on a machine that runs
# worker.calibrate in CALIBRATION_S.  On a shared virtual machine the speed a
# process gets can drift twofold over minutes; the calibration task, timed
# next to the jobs, drifts with it.
CALIBRATION_S = 0.02

END_TO_END = (("wall_s", "s"), ("verdict_p50_ms", "ms"), ("verdict_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Import time of bvcheck.cli, then the calibration time in the same process.
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import bvcheck.cli
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
from worker import calibrate
print(t, sorted(calibrate() for _ in range(3))[1])
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run_child(cmd: list[str], root: Path, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child process could start")
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded the {DEADLINE_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(root: Path, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds to import bvcheck.cli in fresh processes, after one warm-up,
    and the calibration time measured in each of those processes."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR)]
    _run_child(cmd, root, deadline)  # writes the bytecode caches
    samples = [_run_child(cmd, root, deadline).split() for _ in range(SETUP_SAMPLES)]
    return [float(t) for t, _ in samples], [float(c) for _, c in samples]


def run_pass(root: Path, workdir: Path, argvs, trace: bool, spans: Path | None,
             deadline: float) -> dict:
    manifest = workdir / "manifest.json"
    result = workdir / "result.json"
    manifest.write_text(json.dumps({
        "argv": argvs, "trace": trace,
        "spans": str(spans) if spans else None,
    }))
    _run_child([sys.executable, str(BENCH_DIR / "worker.py"), str(manifest), str(result)],
               root, deadline)
    return json.loads(result.read_text())


# --- known-answer check ----------------------------------------------------

def slice_dims(report: str) -> dict[int, int] | None:
    """Slice dimensions from a JSON cohomology report, or None."""
    try:
        payload = json.loads(report)
    except ValueError:
        return None
    for suite in payload.get("suites", []):
        for item in suite.get("items", []):
            if item.get("name") == "slice dimensions":
                pairs = re.findall(r"(-?\d+):\s*(\d+)", item.get("details", ""))
                return {int(g): int(d) for g, d in pairs}
    return None


def judge(job, res: dict) -> dict:
    """Compare one job's outcome with its known answer."""
    observed = EXIT_VERDICT.get(res["code"])
    wrong = observed != job.expected
    if not wrong and job.expected_dims is not None:
        wrong = slice_dims(res["report"]) != job.expected_dims
    return {
        "observed": observed,
        "wrong": wrong,
        # an operation failure: crash, unknown exit code or a domain error on
        # an input that meets the checker's preconditions
        "failed": observed is None or (observed == DOMAIN and job.expected != DOMAIN),
        "acceptable": not wrong or (observed is not None and observed == job.known_defect),
    }


def digest(jobs: list[dict]) -> str:
    """sha256 over the jobs' JSON reports, in job order."""
    h = hashlib.sha256()
    for res in jobs:
        report = res["report"].encode()
        h.update(b"%d\n" % len(report))
        h.update(report)
    return h.hexdigest()


# --- metrics ---------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} jobs: the tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def scale(calibration: list[float], calibrated: bool) -> float:
    """Factor from measured to calibrated seconds (1 when not calibrating).

    A job's time adds up the slowness of the machine over its run; the
    calibration samples, spread evenly over the jobs' run, estimate that
    sum by their mean.
    """
    return CALIBRATION_S / statistics.fmean(calibration) if calibrated else 1.0


def wall(p: dict, calibrated: bool = True) -> float:
    """Time to finish the pass's job list: the sum of its job times."""
    return sum(job["seconds"] for job in p["jobs"]) * scale(p["calibration"], calibrated)


def end_to_end(plain: list[dict], setup, calibrated: bool = True) -> tuple[dict, float]:
    """End-to-end metrics; a job's time is its median over untraced passes."""
    factors = [scale(p["calibration"], calibrated) for p in plain]
    per_job = [statistics.median(p["jobs"][k]["seconds"] * f for p, f in zip(plain, factors))
               for k in range(len(plain[0]["jobs"]))]
    tail_s, tail_pct = tail(per_job)
    times, calibration = setup
    values = {
        "wall_s": statistics.median(wall(p, calibrated) for p in plain),
        "verdict_p50_ms": 1000 * statistics.median(per_job),
        "verdict_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(times) * scale(calibration, calibrated),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    return values, tail_pct


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    def value(p, key):  # layer times are calibrated like job times
        v = p["layers"].get(key, 0)
        return v * scale(p["calibration"], True) if key.endswith(("_s", ".s")) else v

    keys = set().union(*(p["layers"] for p in traced))
    stats = {k: statistics.median(value(p, k) for p in traced) for k in keys}
    overhead = (statistics.median(wall(p) for p in traced)
                / statistics.median(wall(p) for p in plain) - 1)
    return per_layer_metrics(stats, overhead)


# --- one workload ----------------------------------------------------------

def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs = generate(workload, seed)
    rel = Path(".bench_work") / f"{workload}-seed{seed}"
    workdir = root / rel
    spans = root / ".bench_out" / f"spans-{workload}-seed{seed}.json" if trace else None
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        argvs = []
        for k, job in enumerate(jobs):
            name = f"job-{k:03d}.spec"
            (workdir / name).write_text(job.spec)
            argvs.append(job.argv(str(rel / name)))
        if spans:
            spans.parent.mkdir(exist_ok=True)
        setup = measure_setup(root, deadline)

        plain, traced = [], []
        budget_end = time.monotonic() + seconds
        kinds = [False, True] if trace else [False]
        while True:
            for kind in kinds:
                t0 = time.monotonic()
                res = run_pass(root, workdir, argvs, kind, spans if kind else None, deadline)
                res["elapsed"] = time.monotonic() - t0
                (traced if kind else plain).append(res)
            # another round only if it is expected to end within the budget
            round_s = sum(statistics.median(r["elapsed"] for r in group)
                          for group in ([plain, traced] if trace else [plain]))
            if time.monotonic() + round_s > budget_end:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    verdicts = [[judge(job, res) for job, res in zip(jobs, p["jobs"])] for p in passes]
    digests = [digest(p["jobs"]) for p in passes]
    return {
        "workload": workload, "seed": seed, "jobs": jobs, "trace": trace,
        "plain": plain, "traced": traced, "setup": setup,
        "verdicts": verdicts[0], "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "correct": len(set(digests)) == 1 and all(
            v["acceptable"] for vs in verdicts for v in vs),
        "attempted": sum(len(vs) for vs in verdicts),
        "failed": sum(v["failed"] for vs in verdicts for v in vs),
        "spans": spans,
    }


def report(out: dict) -> dict:
    """Print the human-readable block; return the result object."""
    jobs, verdicts, plain = out["jobs"], out["verdicts"], out["plain"]
    wrong = [(job, v) for job, v in zip(jobs, verdicts) if v["wrong"]]
    failed_frac = sum(v["wrong"] or v["failed"] for v in verdicts) / len(jobs)
    e2e, tail_pct = end_to_end(plain, out["setup"])
    raw, _ = end_to_end(plain, out["setup"], calibrated=False)
    calibration = [c for p in plain for c in p["calibration"]]
    print(f"workload {out['workload']}  seed {out['seed']}  jobs {len(jobs)}  "
          f"passes {len(plain)} untraced, {len(out['traced'])} traced  "
          f"calibration {1000 * statistics.median(calibration):.2f} ms "
          f"(reference {1000 * CALIBRATION_S:g} ms)")
    for name, unit in END_TO_END:
        note = f"  (p{tail_pct:.1f}: 10 of {len(jobs)} jobs above)" \
            if name == "verdict_tail_ms" else ""
        print(f"  {name:<16} {e2e[name]:.6g} {unit}   measured {raw[name]:.6g}{note}")
    print(f"  {'wrong_verdicts':<16} {len(wrong)} count")
    print(f"  {'failed_frac':<16} {failed_frac:.4f} ratio")
    print(f"  digest           sha256:{out['digest']}"
          f"{'' if out['digests_agree'] else '  (PASSES DISAGREE)'}")
    print(f"  known answers    {len(jobs) - len(wrong)}/{len(jobs)} match")
    for job, v in wrong:
        tag = "known defect, ROADMAP item 3" if v["acceptable"] else "UNEXPECTED"
        print(f"    {job.name}: expected {job.expected}, got {v['observed']} [{tag}]")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if out["trace"]:
        layers = layer_metrics(out["traced"], plain)
        print(f"  per-layer (totals over one pass of {len(jobs)} jobs; "
              f"spans in {out['spans'].relative_to(out['spans'].parents[1])})")
        for name, unit in PER_LAYER:
            print(f"    {name:<40} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out to confirm claims)")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = BENCH_DIR.parent
    if not (root / "src" / "bvcheck" / "cli.py").is_file():
        sys.stderr.write(f"bench: no bvcheck sources under {root / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = report(run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace)))
            print(json.dumps(result))
            sys.stdout.flush()
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
