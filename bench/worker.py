"""Benchmark worker: one fresh interpreter that runs one job, as a CLI call does.

    python3 bench/worker.py job         read a job on stdin, run it, report it
    python3 bench/worker.py probe SEED  time Field.mul, flat F_2^12 vs tower 2x3x2

The worker writes "ready" as soon as `import bilmult.cli` returns, so the
parent can time set-up from launch; everything else is imported after it.
It answers with one JSON document on stdout.
"""

import sys

import bilmult.cli  # set-up ends when this import returns

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from bilmult import construct, decomp, gf  # noqa: E402
from bilmult.errors import BilmultError  # noqa: E402

from spans import JOB_SPAN, Tracer  # noqa: E402

RANK_LINE = re.compile(r"outcome=(\w+) rank=(\w+) nodes=\d+")


class JobTimeout(BaseException):
    """Raised by the interval timer when a job exceeds its time limit.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout


# -- library jobs: public calls the CLI has no command for ------------------------


def xcheck_composed(p, d, m):
    """All-pairs check of the re-based composition of Toom algorithms for F_{p^(dm)}."""
    base = gf.prime_field(p)
    inner = construct.toom_construct(base, d)
    outer = construct.toom_construct(inner.top, m)
    return decomp.exhaustive_product_check(construct.compose_decompositions(outer, inner))


def xcheck_toom(p, r, n):
    """All-pairs check of the Toom algorithm for degree n over F_{p^r}."""
    base = gf.prime_field(p).extend(r)
    return decomp.exhaustive_product_check(construct.toom_construct(base, n))


LIB = {"xcheck_composed": xcheck_composed, "xcheck_toom": xcheck_toom}


def _call(job) -> int:
    if job["lib"]:
        print(LIB[job["lib"]](*job["args"]))
        return 0
    return bilmult.cli.main(job["argv"])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job, limit_s, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rec = {"name": job["name"], "status": "done", "exit": 0, "exc": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        root = tracer.open(JOB_SPAN) if tracer else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            try:
                rec["exit"] = _call(job)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            rec["status"] = "timeout"
        except SystemExit as exc:  # argparse usage errors
            rec["exit"] = exc.code if isinstance(exc.code, int) else 1
        except BilmultError as exc:
            rec["status"], rec["exc"] = "raised", type(exc).__name__
        except Exception as exc:  # a traceback a CLI user would see
            rec["status"], rec["exc"] = "error", repr(exc)
        end = time.perf_counter()
        if tracer:
            # charge the job its root span, so span self times sum to job time
            tracer.close(root, rec["status"] != "timeout")
            start, end = tracer.spans[root][1:3]
        rec["elapsed_s"] = end - start
    stdout = out.getvalue()
    rec["stdout"] = _sha(stdout.encode())
    rec["stderr"] = _sha(err.getvalue().encode())
    rec["files"] = {}
    for name in job["files"]:
        if os.path.exists(name):
            with open(name, "rb") as fh:
                rec["files"][name] = _sha(fh.read())
    if job["rank_job"]:
        m = RANK_LINE.search(stdout)
        rec["outcome"], rec["rank"] = (m.group(1), m.group(2)) if m else (None, None)
    return rec


def job_report(spec) -> dict:
    """Run one job, traced if asked; add the worker's peak memory and spans."""
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    rec = run_job(spec["job"], spec["limit_s"], tracer)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        rec["trace"] = tracer.dump()
    return rec


def mul_probe(seed: int, pairs: int = 400, repeats: int = 5) -> dict:
    """Median microseconds per Field.mul on seeded element pairs."""
    rng = random.Random(seed)
    f2 = gf.prime_field(2)
    fields = {"gf.mul.flat_us": f2.extend(12), "gf.mul.tower_us": f2.extend(2).extend(3).extend(2)}
    out = {}
    for metric, field in fields.items():
        xs = [(field.from_int(rng.randrange(field.q)), field.from_int(rng.randrange(field.q)))
              for _ in range(pairs)]
        mul = field.mul
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for x, y in xs:
                mul(x, y)
            times.append((time.perf_counter() - start) / pairs * 1e6)
        out[metric] = statistics.median(times)
    return out


def main(argv) -> None:
    mode = argv[1]
    if mode == "job":
        result = job_report(json.load(sys.stdin))
    else:
        result = mul_probe(int(argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv)
