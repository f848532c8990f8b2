"""CLI-level benchmark of bilmult: three workloads, golden outputs, optional trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, metrics as a table

Run from the repository root.  One client sends the workload's jobs in a
closed loop, in an order drawn from the seed.  Each job runs in a fresh worker
interpreter, as each CLI call does, so caches start cold and a job's cost does
not depend on which jobs ran before it.  Passes over the job list repeat until
--seconds have gone by (at least one runs); wall_s is the median pass, the sum
of its jobs' launch-to-report times.
A job's latency is the fastest of its samples.  A job that took under
REPEAT_UNDER_S in the first pass runs again (see Repeats.owed).  The
repeats take turns in a queue and are interleaved with that pass, one after
each of its jobs; the rest follow it.  So a job's samples are spread over the
run, and one slow period of the host does not decide its latency.

Every job is checked against its record in bench/golden.json (see
record_golden.py).  A job that ends as recorded passes, so the recorded
cliffs (timeouts) and budget-aborted rank searches are not failures; they are
the jobs missing from answered_ops.  A job fails when it ends worse than
recorded (a new timeout or abort, an unexpected exception) or with other
output; other output, a wrong rank or an unexpected exception also makes the
run incorrect.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a traced pass, then
the jobs that finished in it again untraced, and prints the per-layer metrics
from the spans, with trace.overhead_frac = (traced - untraced) / untraced job
time over those jobs.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from jobs import JOB_LIMIT_S, WORKLOADS, Workload, ordered  # noqa: E402
from spans import layer_metrics, merge  # noqa: E402

GOLDEN = BENCH / "golden.json"
RUN_DEADLINE_S = 170.0
# A job shorter than REPEAT_UNDER_S runs at least MIN_SAMPLES times, and more
# while its samples times its fastest one stay under SAMPLE_S, at most
# MAX_SAMPLES times.  The jobs around the median and the tail take 0.02-0.7 s,
# which a busy host can slow by half; a few-millisecond job, one hiccup doubles.
REPEAT_UNDER_S = 1.0
MIN_SAMPLES = 3
SAMPLE_S = 0.3
MAX_SAMPLES = 5

E2E_UNITS = {
    "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "job_max_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "answered_ops": "count",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no program, worker died, deadline)."""


def launch(mode: str, *args: str, cwd: Path = ROOT):
    """Start a worker; return it and the seconds until `import bilmult.cli` returned."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), mode, *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.wait()})")
    return proc, setup


def finish(proc, stdin: str = "", timeout: float = RUN_DEADLINE_S) -> dict:
    try:
        out, _ = proc.communicate(stdin, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker missed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out)


def run_pass(order: list, work: Path | None = None, limit_s: float = JOB_LIMIT_S,
             trace: bool = False, deadline: float = RUN_DEADLINE_S, between=None) -> dict:
    """Run `order`, one cold worker per job, in directory `work` (a fresh one
    that is removed afterwards if None); report per-job records and the wall,
    the sum of the jobs' launch-to-report times.  `between(job, rec)` is
    called after each job; the time it takes is not part of the wall."""
    if work is None:
        with _workdir() as fresh:
            return run_pass(order, fresh, limit_s, trace, deadline, between)
    recs = []
    wall = 0.0
    start = time.perf_counter()
    for job in order:
        launched = time.perf_counter()
        proc, setup = launch("job", cwd=work)
        spec = {"job": job.to_wire(), "limit_s": limit_s, "trace": trace}
        rec = finish(proc, json.dumps(spec), deadline - (launched - start))
        wall += time.perf_counter() - launched
        rec["setup_s"] = setup
        recs.append(rec)
        if between:
            between(job, rec)
    witnesses = {
        name: (work / name).read_text(encoding="utf-8")
        for j in order if j.known_rank is not None
        for name in j.files if (work / name).exists()
    }
    return {"jobs": recs, "wall_s": wall, "witnesses": witnesses}


@contextlib.contextmanager
def _workdir():
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- checking against the golden record -------------------------------------------


def _decode_witness(text: str):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bilmult.decomp import decomposition_from_json  # verifies unless told not to

    return decomposition_from_json(text)


def judge(job, rec: dict, want: dict | None, witnesses: dict) -> tuple:
    """(answered, failed, wrong) for one job against its golden record `want`.

    answered: it finished with a checked answer.  failed: it ended worse than
    recorded or with other output.  wrong: why the output is incorrect, or None.
    """
    if want is None:
        return False, True, "no golden record"
    if rec["status"] == "timeout":
        return False, want.get("status") != "timeout", None
    if rec["status"] == "error":
        return False, True, f"unexpected exception {rec['exc']}"
    if job.known_rank is not None:
        return _judge_rank(job, rec, want, witnesses)
    if want.get("status") == "timeout":
        # a former cliff now finishes: no bytes were ever recorded for it
        answered = rec["status"] == "done" and rec["exit"] == 0
        return answered, not answered, None
    got = {k: rec[k] for k in ("status", "exit", "exc", "stdout", "stderr", "files")}
    if got != want:
        return False, True, "output differs from the golden record"
    return True, False, None


def _judge_rank(job, rec, want, witnesses) -> tuple:
    outcome, rank = rec["outcome"], rec["rank"]
    if outcome == "aborted":
        return False, want.get("outcome") != "aborted", None
    r_max = int(job.argv[job.argv.index("--r-max") + 1])
    if outcome == "found":
        if int(rank) != job.known_rank:
            return False, True, f"found rank {rank}, known rank is {job.known_rank}"
        try:
            d = _decode_witness(witnesses[job.files[0]])
        except Exception as exc:  # a missing or non-verifying witness file
            return False, True, f"witness does not verify: {exc!r}"
        if d.rank != job.known_rank:
            return False, True, "witness rank differs from the reported rank"
    elif outcome == "exhausted":
        if job.known_rank <= r_max:
            return False, True, f"exhausted at r_max {r_max}, known rank is {job.known_rank}"
    else:
        return False, True, f"unreadable rank-search output (exit {rec['exit']})"
    if want.get("outcome") in ("found", "exhausted") and (
        [want["exit"], want["outcome"], want["rank"]] != [rec["exit"], outcome, rank]
    ):
        return False, True, "outcome differs from the golden record"
    return True, False, None


# -- metrics ---------------------------------------------------------------------


def nearest_rank(values: list, pct: int) -> float:
    ordered_values = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered_values)))
    return ordered_values[k - 1]


def run_metrics(workload: Workload, passes: list, repeats: list, answered: list) -> dict:
    """End-to-end metrics of a run; a job's latency is the fastest of its samples,
    the one a busy host disturbed least."""
    samples: dict = {}
    for report in passes + repeats:
        for rec in report["jobs"]:
            samples.setdefault(rec["name"], []).append(rec["elapsed_s"])
    latency = [min(v) for v in samples.values()]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(latency),
        "job_tail_s": nearest_rank(latency, workload.tail_percentile),
        "job_max_s": max(latency),
        "setup_s": statistics.median(r["setup_s"] for p in passes + repeats for r in p["jobs"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for p in passes for r in p["jobs"]),
        "answered_ops": statistics.median(answered),
    }


class Tally:
    """Attempted and failed jobs of one run, and why any output was wrong."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = self.failed = 0
        self.wrong: list = []

    def check(self, order: list, report: dict) -> int:
        """Judge a pass; return how many of its jobs were answered."""
        answered_jobs = 0
        for job, rec in zip(order, report["jobs"]):
            answered, failed, wrong = judge(job, rec, self.golden.get(job.name),
                                            report["witnesses"])
            answered_jobs += answered
            self.failed += failed
            if wrong:
                self.wrong.append(f"{job.name}: {wrong}")
        self.attempted += len(order)
        return answered_jobs


def _traced_pass(name: str, seed: int, order: list, tally: Tally, deadline: float) -> dict:
    start = time.perf_counter()
    traced = run_pass(order, trace=True, deadline=deadline)
    tally.check(order, traced)
    dump = merge([j["trace"] for j in traced["jobs"]])
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(dump), encoding="utf-8")
    # a job stopped at the limit costs the limit either way: compare the others
    done = [(job, rec) for job, rec in zip(order, traced["jobs"]) if rec["status"] != "timeout"]
    again = [job for job, _ in done]
    untraced = run_pass(again, deadline=deadline - (time.perf_counter() - start))
    tally.check(again, untraced)
    traced_s = sum(rec["elapsed_s"] for _, rec in done)
    untraced_s = sum(rec["elapsed_s"] for rec in untraced["jobs"])
    proc, _ = launch("probe", str(seed))
    return {**layer_metrics(dump), **finish(proc),
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s}


class Repeats:
    """The extra samples of short jobs, run between and after the passes.

    Each repeat is a cold worker in a fresh directory holding copies of the
    files the job reads, from the first pass.  What the job writes starts
    absent, as in the pass, since overwriting a file that was just written
    can wait on the disk.
    """

    def __init__(self, workload: Workload, first: Path, tally: Tally, deadline):
        self.jobs = {job.name: job for job in workload.jobs}
        self.first, self.tally, self.deadline = first, tally, deadline
        self.samples = {name: 0 for name in self.jobs}
        self.fastest = {name: math.inf for name in self.jobs}
        # jobs owed a repeat; a repeated job goes to the back, so the samples
        # of one job are as far apart as the queue allows
        self.pending: list = []
        self.reports: list = []

    def owed(self, name: str) -> bool:
        n = self.samples[name]
        return n < MAX_SAMPLES and (n < MIN_SAMPLES or n * self.fastest[name] < SAMPLE_S)

    def count(self, report: dict) -> None:
        for rec in report["jobs"]:
            self.samples[rec["name"]] += 1
            self.fastest[rec["name"]] = min(self.fastest[rec["name"]], rec["elapsed_s"])
        self.pending = [j for j in self.pending if self.owed(j.name)]

    def after_first(self, job, rec: dict) -> None:
        """Hook of the first pass: note whether `job` is owed repeats, run one repeat."""
        self.count({"jobs": [rec]})
        if rec["status"] != "timeout" and rec["elapsed_s"] < REPEAT_UNDER_S:
            self.pending.append(job)
        if self.pending:
            self.run_one()

    def run_one(self) -> None:
        job = self.pending.pop(0)
        with _workdir() as work:
            for name in (f for dep in job.after for f in self.jobs[dep].files):
                shutil.copy(self.first / name, work)
            report = run_pass([job], work, deadline=self.deadline())
        self.tally.check([job], report)
        self.reports.append(report)
        self.count(report)
        if self.owed(job.name):
            self.pending.append(job)

    def finish(self) -> list:
        while self.pending:
            self.run_one()
        return self.reports


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "bilmult" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'bilmult'} is missing")
    workload = WORKLOADS[name]
    tally = Tally(json.loads(GOLDEN.read_text(encoding="utf-8"))[name])
    compileall.compile_dir(str(SRC), quiet=1)  # the build: set-up then reads .pyc
    started = time.perf_counter()
    order = ordered(workload, seed)

    def deadline() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    if trace:
        layers = _traced_pass(name, seed, order, tally, deadline())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        passes, answered = [], []
        with _workdir() as first:
            sampler = Repeats(workload, first, tally, deadline)
            passes.append(run_pass(order, first, deadline=deadline(),
                                   between=sampler.after_first))
            answered.append(tally.check(order, passes[-1]))
            while time.perf_counter() - started < seconds:
                passes.append(run_pass(order, deadline=deadline()))
                answered.append(tally.check(order, passes[-1]))
                sampler.count(passes[-1])
            repeats = sampler.finish()
        values = run_metrics(workload, passes, repeats, answered)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for line in tally.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for n, res in results.items():
            status = "correct" if res["correct"] else "OUTPUT DIFFERS FROM THE GOLDEN RECORD"
            print(f"{n}: {status}; {res['failed']} of {res['attempted']} jobs failed")
            for metric, m in res["metrics"].items():
                print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
            if "answered_ops" in res["metrics"]:
                jobs = len(WORKLOADS[n].jobs)
                unanswered = jobs - res["metrics"]["answered_ops"]["value"]
                print(f"  {'failed_ops':28s} {unanswered:g} of {jobs} jobs per pass "
                      "(timed out or aborted)")
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
