"""Job pools of the benchmark workloads and their seeded order.

A job is one `bilmult.cli.main(argv)` call (`argv`), or one public library
call where the CLI has no command (`lib`, a name the worker dispatches on).
`after` lists jobs whose output files this job reads; `known_rank` is the
exact bilinear complexity a rank search must agree with when it answers.

The pools are fixed.  The seed only permutes the order in which one client
sends the jobs, subject to `after`, so per-job outputs must not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple = ()
    lib: str = ""
    args: tuple = ()
    after: tuple = ()
    known_rank: int | None = None

    @property
    def files(self) -> tuple:
        """Files the job writes, named by its `--output` argument."""
        argv = self.argv
        return tuple(argv[i + 1] for i, a in enumerate(argv) if a == "--output")

    def to_wire(self) -> dict:
        return {"name": self.name, "argv": list(self.argv), "lib": self.lib,
                "args": list(self.args), "files": list(self.files),
                "rank_job": self.known_rank is not None}


# Each job is stopped after this long and charged the time until it stopped.
# The slowest job that finishes takes about 5 s on a quiet 3.3 GHz core and
# up to twice that when the host is busy; the three CLI cliffs take minutes.
JOB_LIMIT_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten jobs beyond it."""
        n = len(self.jobs)
        return 100 * (n - 10) // n


def _cli(name, *argv, after=(), known_rank=None) -> Job:
    return Job(name, argv=tuple(str(a) for a in argv), after=after, known_rank=known_rank)


FORMATS = ("text", "csv", "json")


def _bound_sweep() -> tuple:
    jobs = []
    for i, q in enumerate((5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 29, 31, 37)):
        fmt = FORMATS[i % 3]
        jobs.append(_cli(f"table-q{q}-{fmt}", "table", "--q", q, "--n-max", 1000,
                         "--format", fmt))
    for q, n in ((16, 9), (25, 13), (37, 19), (7, 500)):
        jobs.append(_cli(f"bound-q{q}-n{n}", "bound", "--q", q, "--n", n, "--format", "json"))
    # k-max stays at 12: the lemma checks stop there, and rows beyond it are
    # printed as passing although nothing checked them.
    for i, (family, p, r) in enumerate(
        (("gs-t2", 2, 2), ("gs-t3", 5, 1), ("kummer-p2", 3, 1), ("kummer-p", 7, 1))
    ):
        fmt = FORMATS[i % 3]
        jobs.append(_cli(f"tower-{family}-p{p}-r{r}-{fmt}", "tower", "--family", family,
                         "--p", p, "--r", r, "--k-max", 12, "--format", fmt))
    jobs.append(_cli("asymptotic-q2", "asymptotic", "--q", 2))
    jobs.append(_cli("asymptotic-q49-csv", "asymptotic", "--q", 49, "--format", "csv"))
    jobs.append(_cli("asymptotic-q7-aq-json", "asymptotic", "--q", 7, "--a-q", "9/4",
                     "--format", "json"))
    return tuple(jobs)


def _witness_build() -> tuple:
    jobs = []
    for q, n in ((4093, 20), (65521, 30), (101, 30), (81, 12), (128, 10), (256, 3)):
        built = f"construct-q{q}-n{n}"
        jobs.append(_cli(built, "construct", "--q", q, "--n", n, "--output", f"{built}.json"))
        jobs.append(_cli(f"verify-q{q}-n{n}", "verify", f"{built}.json", after=(built,)))
    for q, d, m in ((2, 2, 3), (3, 2, 4), (5, 2, 3), (7, 2, 3)):
        inner, outer = f"construct-q{q}-n{d}", f"construct-q{q**d}-n{m}"
        jobs.append(_cli(inner, "construct", "--q", q, "--n", d, "--output", f"{inner}.json"))
        jobs.append(_cli(outer, "construct", "--q", q**d, "--n", m,
                         "--output", f"{outer}.json"))
        for flag, kind in (((), "rebased"), (("--keep-tower-basis",), "tower")):
            composed = f"compose-q{q}-{d}x{m}-{kind}"
            jobs.append(_cli(composed, "compose", f"{inner}.json", f"{outer}.json", *flag,
                             "--output", f"{composed}.json", after=(inner, outer)))
            jobs.append(_cli(f"verify-q{q}-{d}x{m}-{kind}", "verify", f"{composed}.json",
                             after=(composed,)))
    jobs.append(Job("xcheck-q2-2x3", lib="xcheck_composed", args=(2, 2, 3)))
    jobs.append(Job("xcheck-q3-2x2", lib="xcheck_composed", args=(3, 2, 2)))
    jobs.append(Job("xcheck-q16-toom-n2", lib="xcheck_toom", args=(2, 4, 2)))
    for q, n_max in ((2, 40), (4, 12), (3, 30), (27, 100)):
        jobs.append(_cli(f"table-q{q}-n{n_max}", "table", "--q", q, "--n-max", n_max))
    # the three CLI cliffs: they run under the time limit and go unanswered
    for q, n in ((256, 8), (65536, 2), (4093, 100)):
        jobs.append(_cli(f"bound-q{q}-n{n}", "bound", "--q", q, "--n", n))
    return tuple(jobs)


def _rank_search() -> tuple:
    jobs = []
    for q in (2, 3, 4, 5, 7, 8):
        for flag, kind in (((), "norm"), (("--no-normalize",), "raw")):
            name = f"rank-q{q}-n2-r3-{kind}"
            jobs.append(_cli(name, "rank-search", "--q", q, "--n", 2, "--r-max", 3, *flag,
                             "--output", f"{name}.json", known_rank=3))
    for q, r_max, budget, rank in ((2, 4, None, 6), (2, 5, 1000000, 6), (3, 5, 300000, 6),
                                   (4, 5, 300000, 5), (2, 6, None, 6)):
        name = f"rank-q{q}-n3-r{r_max}" + (f"-b{budget}" if budget else "")
        extra = ("--budget", budget) if budget else ()
        jobs.append(_cli(name, "rank-search", "--q", q, "--n", 3, "--r-max", r_max, *extra,
                         "--output", f"{name}.json", known_rank=rank))
    return tuple(jobs)


# why each workload exists is stated in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bound_sweep", _bound_sweep()),
        Workload("witness_build", _witness_build()),
        Workload("rank_search", _rank_search()),
    )
}


def ordered(workload: Workload, seed: int) -> list:
    """The workload's pool in a seeded order that keeps every job after its inputs."""
    rng = random.Random(seed)
    done: set = set()
    left = list(workload.jobs)
    order = []
    while left:
        ready = [j for j in left if all(a in done for a in j.after)]
        job = rng.choice(ready)
        order.append(job)
        done.add(job.name)
        left.remove(job)
    return order
