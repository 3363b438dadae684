"""Tests of the benchmark harness itself: generator, known answers, tracer.

They run a handful of the cheapest jobs of each workload in process, so
they take a few seconds.  Run with

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _cheap(workload: str, seed: int = 1):
    """A few fast jobs of ``workload`` that still reach every layer it uses."""
    jobs = workloads.generate(workload, seed)
    if workload == "sampled-suites":
        keep = [j for j in jobs if "exterior-cube" in j.name][:4]
        keep += [j for j in jobs if j.name.endswith("laplacian2 derivation")][:1]
    elif workload == "refute":
        keep = [j for j in jobs[:7] if not j.name.endswith(("linfty", "gerstenhaber"))]
    else:
        keep = [j for j in jobs if "window=6" in j.name and "1,1,1" in j.name]
    assert keep
    return keep


def _run(jobs, tmp_path, traced: bool):
    argvs = []
    for k, job in enumerate(jobs):
        path = tmp_path / f"job-{k}.spec"
        path.write_text(job.spec)
        argvs.append(job.argv(str(path)))
    t = tracer.Tracer() if traced else None
    result = worker.run_jobs(argvs, t)
    return result, t


def test_generator_is_deterministic_and_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7)
        b = workloads.generate(name, 7)
        c = workloads.generate(name, 8)
        assert [(j.spec, j.cli_seed, j.argv("p")) for j in a] == \
            [(j.spec, j.cli_seed, j.argv("p")) for j in b]
        assert [j.spec for j in a] != [j.spec for j in c]
        # the seed changes coefficients and order, never the size of the list
        assert len(a) == len(c)


def test_no_two_jobs_share_an_operator():
    for name in workloads.WORKLOADS:
        bodies = [j.spec.split("\nSUITE")[0] for j in workloads.generate(name, 1)]
        assert len(set(bodies)) == len(bodies)


def test_koszul_dims_are_the_truncated_product():
    assert workloads.koszul_dims([1, 2, 2], 6) == {0: 1, 2: 2, 4: 1}
    assert workloads.koszul_dims([3, 3, 3, 3], 8) == {
        0: 1, 2: 4, 4: 10, 6: 16, 8: 19, 10: 16, 12: 10, 14: 4, 16: 1}
    assert workloads.koszul_dims([3, 3, 3, 3], 2) == {0: 1, 2: 4, 4: 10}
    assert workloads.koszul_dims([1, 1, 1], 6) == {0: 1}


def test_tail_has_ten_values_above_it():
    value, pct = run.tail([float(v) for v in range(40)])
    assert value == 29.0 and pct == 75.0


def test_known_answer_check():
    jobs = workloads.generate("sampled-suites", 1)
    defect = next(j for j in jobs if j.known_defect)
    sound = next(j for j in jobs if j.expected == workloads.PASS)
    # a documented wrong pass is counted, but does not make the run incorrect
    v = run.judge(defect, {"code": 0, "report": ""})
    assert v["wrong"] and v["acceptable"] and not v["failed"]
    assert not run.judge(defect, {"code": 1, "report": ""})["wrong"]
    v = run.judge(sound, {"code": 1, "report": ""})
    assert v["wrong"] and not v["acceptable"]
    for code in (2, None):
        v = run.judge(sound, {"code": code, "report": ""})
        assert v["failed"] and not v["acceptable"]

    koszul = workloads.generate("cohomology-window", 1)[0]
    report = {"suites": [{"items": [
        {"name": "slice dimensions", "details": str(koszul.expected_dims)}]}]}
    assert not run.judge(koszul, {"code": 3, "report": json.dumps(report)})["wrong"]
    report["suites"][0]["items"][0]["details"] = "{0: 1, 2: 7}"
    assert run.judge(koszul, {"code": 3, "report": json.dumps(report)})["wrong"]


@pytest.fixture(scope="module")
def cheap_runs(tmp_path_factory):
    """Untraced and traced results of the cheap jobs of every workload."""
    out = {}
    for name in workloads.WORKLOADS:
        tmp = tmp_path_factory.mktemp(name)
        jobs = _cheap(name)
        plain, _ = _run(jobs, tmp, traced=False)
        traced, t = _run(jobs, tmp, traced=True)
        out[name] = (jobs, plain, traced, t)
    return out


def test_traced_and_untraced_runs_agree(cheap_runs):
    for jobs, plain, traced, _ in cheap_runs.values():
        assert run.digest(plain["jobs"]) == run.digest(traced["jobs"])
        for job, p, t in zip(jobs, plain["jobs"], traced["jobs"]):
            assert p["code"] == t["code"]
            assert run.judge(job, p) == run.judge(job, t)
            assert run.judge(job, p)["acceptable"], (job.name, p)


def test_every_per_layer_metric_is_nonzero_on_some_workload(cheap_runs):
    seen = set()
    for _, plain, traced, t in cheap_runs.values():
        overhead = run.wall(traced) / run.wall(plain) - 1
        values = tracer.per_layer_metrics(t.layer_stats(), overhead)
        seen |= {k for k, v in values.items() if v}
    assert seen == {name for name, _ in tracer.PER_LAYER}


def test_cohomology_calls_three_times_per_job(cheap_runs):
    jobs, _, _, t = cheap_runs["cohomology-window"]
    assert t.layer_stats()["structures.cohomology.calls"] == 3 * len(jobs)


def test_tracer_wraps_every_binding_and_restores_them():
    import bvcheck
    from bvcheck import algebra, brackets, cli, structures

    def snapshot():
        mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("bvcheck")]
        return [dict(vars(m)) for m in mods] + [
            dict(vars(algebra.Element)), dict(vars(bvcheck.Operator))]

    before = snapshot()
    orig = brackets.akman_bracket
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (bvcheck, brackets, structures, cli):
            assert mod.akman_bracket is not orig
            assert mod.akman_bracket.__wrapped__ is orig
        assert structures.cohomology is cli.cohomology
        assert structures.cohomology.__wrapped__ is not None
    finally:
        t.uninstall()
    assert snapshot() == before


def test_spans_are_written_with_parents_and_jobs(tmp_path):
    _, t = _run(_cheap("refute")[:2], tmp_path, traced=True)
    out = tmp_path / "spans.json"
    t.write_spans(str(out))
    data = json.loads(out.read_text())
    spans = data["spans"]
    assert len(spans) == len(t.s_name) > 0
    for name, start, end, parent, job in spans:
        assert start <= end and job in (0, 1)
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job
    top = {data["names"][s[0]] for s in spans if s[3] < 0}
    assert "specfile.parse_spec" in top


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in ("run.py", "workloads.py", "tracer.py", "worker.py"):
        (copy / f).write_text((BENCH / f).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
