"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests

They run small job lists through real worker processes, so they need the
program under src/ and take about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from jobs import WORKLOADS, ordered  # noqa: E402
from spans import merge, self_times  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text(encoding="utf-8"))

# jobs that finish in well under a second each, with their inputs
QUICK = {
    "bound_sweep": [
        "table-q9-text", "bound-q16-n9", "bound-q7-n500", "tower-gs-t2-p2-r2-text",
        "tower-kummer-p-p7-r1-text", "asymptotic-q2", "asymptotic-q7-aq-json",
    ],
    "witness_build": [
        "construct-q2-n2", "construct-q4-n3", "compose-q2-2x3-rebased",
        "compose-q2-2x3-tower", "verify-q2-2x3-rebased", "verify-q2-2x3-tower",
        "construct-q5-n2", "construct-q25-n3", "compose-q5-2x3-rebased",
        "verify-q5-2x3-rebased", "xcheck-q2-2x3", "construct-q256-n3", "verify-q256-n3",
    ],
    "rank_search": [
        "rank-q2-n2-r3-norm", "rank-q3-n2-r3-raw", "rank-q4-n2-r3-norm", "rank-q5-n2-r3-norm",
    ],
}


def _subset(name: str, jobs: list):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, jobs=tuple(j for j in workload.jobs if j.name in jobs))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_seed_permutes_the_whole_pool(name):
    workload = WORKLOADS[name]
    pool = [j.name for j in workload.jobs]
    assert len(set(pool)) == len(pool) >= 11  # job_tail_s needs ten jobs beyond it
    assert set(pool) == set(GOLDEN[name])
    orders = []
    for seed in range(8):
        order = ordered(workload, seed)
        assert sorted(j.name for j in order) == sorted(pool)
        seen = set()
        for job in order:
            assert set(job.after) <= seen, f"{job.name} runs before its inputs"
            seen.add(job.name)
        orders.append([j.name for j in order])
    assert orders[0] == [j.name for j in ordered(workload, 0)]
    assert len({tuple(o) for o in orders}) == len(orders)


def test_tail_percentile_leaves_ten_jobs_beyond_it():
    for workload in WORKLOADS.values():
        n, pct = len(workload.jobs), workload.tail_percentile
        times = list(range(n))
        beyond = [t for t in times if t > run.nearest_rank(times, pct)]
        assert len(beyond) >= 10
        assert len([t for t in times if t > run.nearest_rank(times, pct + 1)]) < 10


@pytest.mark.parametrize("name", sorted(QUICK))
def test_outputs_match_golden_in_any_order(name):
    workload = _subset(name, QUICK[name])
    records = []
    for seed in (3, 4):
        order = ordered(workload, seed)
        report = run.run_pass(order)
        for job, rec in zip(order, report["jobs"]):
            want = GOLDEN[name][job.name]
            assert run.judge(job, rec, want, report["witnesses"]) == (True, False, None)
        records.append({r["name"]: (r["stdout"], r["stderr"], r["files"]) for r in report["jobs"]})
    assert records[0] == records[1]


def test_short_limit_stops_a_job_and_charges_the_limit():
    workload = _subset("witness_build", ["bound-q256-n8", "table-q3-n30"])
    limit = 0.2
    report = run.run_pass(list(workload.jobs), limit_s=limit)
    golden = GOLDEN["witness_build"]
    for job, rec in zip(workload.jobs, report["jobs"]):
        assert rec["status"] == "timeout"
        assert limit <= rec["elapsed_s"] < limit + 0.1
    results = {job.name: (job, rec) for job, rec in zip(workload.jobs, report["jobs"])}
    cliff, table = results["bound-q256-n8"], results["table-q3-n30"]
    # the cliff times out as recorded: unanswered, not failed
    assert run.judge(*cliff, golden[cliff[0].name], {}) == (False, False, None)
    # a job recorded as finishing now times out: one failed op
    assert run.judge(*table, golden[table[0].name], {}) == (False, True, None)
    metrics = run.run_metrics(workload, [report], [], answered=[0])
    assert metrics["job_max_s"] == max(r["elapsed_s"] for r in report["jobs"])
    assert metrics["answered_ops"] == 0


def test_wrong_output_makes_the_run_incorrect():
    workload = _subset("bound_sweep", ["asymptotic-q2"])
    (job,) = workload.jobs
    rec = run.run_pass([job])["jobs"][0]
    rec["stdout"] = "0" * 64
    answered, failed, wrong = run.judge(job, rec, GOLDEN["bound_sweep"][job.name], {})
    assert not answered and failed and wrong


def test_span_self_times_sum_to_traced_wall():
    workload = _subset("witness_build", QUICK["witness_build"] + ["table-q3-n30"])
    order = ordered(workload, 0)
    untraced = run.run_pass(order)
    traced = run.run_pass(order, trace=True)
    untraced_s = sum(j["elapsed_s"] for j in untraced["jobs"])
    traced_s = sum(j["elapsed_s"] for j in traced["jobs"])
    overhead_frac = (traced_s - untraced_s) / untraced_s
    spans = merge([j["trace"] for j in traced["jobs"]])["spans"]
    assert {s[0] for s in spans} >= {"job", "cli", "gf.extend", "construct.rebase",
                                     "decomp.verify", "decomp.json.read", "bounds.engine"}
    assert all(s[2] >= s[1] for s in spans)
    self_sum = sum(self_times(spans))
    assert abs(self_sum - traced_s) <= abs(overhead_frac) * traced_s


def test_roadmap_rows_name_existing_jobs():
    rows = json.loads((BENCH / "roadmap_rows.json").read_text(encoding="utf-8"))
    names = {f"{w}/{j.name}" for w, workload in WORKLOADS.items() for j in workload.jobs}
    for row in rows:
        assert set(row["jobs"]) <= names, row["row"]


def test_short_jobs_are_sampled_again_on_the_first_pass_files(monkeypatch):
    names = ["construct-q2-n2", "construct-q4-n3", "compose-q2-2x3-rebased",
             "verify-q2-2x3-rebased"]
    monkeypatch.setitem(run.WORKLOADS, "witness_build", _subset("witness_build", names))
    res = run.run_workload("witness_build", seed=1, seconds=0, trace=False)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(names) * run.MAX_SAMPLES
    assert res["metrics"]["answered_ops"]["value"] == len(names)
