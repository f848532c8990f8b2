"""Record bench/golden.json: the expected result of every benchmark job.

    python3 bench/record_golden.py

Runs each workload's pool in two seeded orders and refuses to write unless
both orders give identical per-job records, since outputs must not depend on
job order.  Re-record only when a change is meant to alter CLI output.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, WORKLOADS, ordered, run_pass


def golden_record(job, rec: dict) -> dict:
    if rec["status"] == "timeout":
        return {"status": "timeout"}
    if job.known_rank is not None:
        # node counts are left out: a better search may explore fewer nodes
        return {"exit": rec["exit"], "outcome": rec["outcome"], "rank": rec["rank"]}
    return {k: rec[k] for k in ("status", "exit", "exc", "stdout", "stderr", "files")}


def record_workload(workload, seeds=(0, 1)) -> dict:
    runs = []
    for seed in seeds:
        order = ordered(workload, seed)
        report = run_pass(order)
        runs.append({job.name: golden_record(job, rec) for job, rec in zip(order, report["jobs"])})
    for name in runs[0]:
        if any(run[name] != runs[0][name] for run in runs[1:]):
            raise SystemExit(f"{workload.name}/{name}: record depends on job order")
    return dict(sorted(runs[0].items()))


def main() -> int:
    golden = {name: record_workload(w) for name, w in WORKLOADS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, records in golden.items():
        timeouts = [j for j, r in records.items() if r.get("status") == "timeout"]
        aborted = [j for j, r in records.items() if r.get("outcome") == "aborted"]
        print(f"{name}: {len(records)} jobs; timeouts {timeouts}; aborted {aborted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
