"""Benchmark of graphalg: one client, one job at a time, in a closed loop.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload invariants|strip|continuation \\
        [--seed N] --seconds S [--trace 0|1]

A run sets up (imports graphalg from ``src`` and writes the workload's
NetworkDocuments), runs the job list once untimed and checks every
answer, then runs whole rounds of the same list until ``--seconds`` have
passed and at least 100 jobs were attempted.  A job is an in-process
``graphalg.cli.main([...])`` call, or a direct library call where no
subcommand exists, under a time limit and an address-space cap.  The
last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up is repeated and its median reported, so that one slow file
# write or page fault does not decide the figure.
SETUP_REPEATS = 21
MIN_ATTEMPTED = 100
MEMORY_CAP_BYTES = 2 << 30


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so graphalg's handlers for
    ValueError and friends cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def _is_graphalg(module_name):
    return module_name == "graphalg" or module_name.startswith("graphalg.")


def setup(name, seed, workdir):
    """Import graphalg afresh and build the workload; returns (seconds,
    graphalg package, jobs)."""
    for mod in [m for m in sys.modules if _is_graphalg(m)]:
        del sys.modules[mod]
    # Objects the benchmark already holds are frozen, so that collections
    # during set-up scan only what set-up creates, as in a fresh process.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    importlib.import_module("graphalg.cli")
    ga = sys.modules["graphalg"]
    jobs = workloads.build(ga, name, seed, workdir)
    seconds = time.perf_counter() - start
    gc.unfreeze()
    return seconds, ga, jobs


def continue_job(ga, job):
    """continuation_plan followed by continue_harmonic on the document."""
    with open(job.path) as fh:
        doc = ga.cli.parse_document(fh.read())
    plan = ga.continuation.continuation_plan(doc.network)
    if job.modulus is None:
        phi = [Fraction(x) for x in job.phi]
    else:
        phi = [ga.Mod(x, job.modulus) for x in job.phi]
    u = ga.continuation.continue_harmonic(plan, phi)
    return {"labels": list(plan.initial_labels), "values": u.vmap}


def _attempt(ga, job, tracer):
    sink, errors = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, workloads.TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
            if job.args is None:
                return continue_job(ga, job), None
            if tracer is not None:
                tracer.enter("cli.main")
            try:
                code = ga.cli.main(job.argv())
            finally:
                if tracer is not None:
                    tracer.exit()
        if code != 0:
            return None, f"exit code {code}: {errors.getvalue().strip()}"
        return sink.getvalue(), None
    except MemoryError:
        return None, "memory cap"
    except Exception as exc:  # a failed job must not end the run
        return None, "".join(traceback.format_exception_only(exc)).strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_job(ga, job, tracer=None):
    """(graphalg's answer, None), or (None, why) when the job failed,
    timed out or hit the memory cap."""
    try:
        return _attempt(ga, job, tracer)
    except JobTimeout:
        if tracer is not None:
            del tracer.stack[:]
        return None, "time limit"


def check_answers(ga, jobs, answers):
    """Check every answer of the untimed round, then feed each check a
    corrupted answer and require that it is rejected."""
    for job, answer in zip(jobs, answers):
        if answer is None:
            continue
        if job.kind == "u0-matrix":
            direct, why = run_job(ga, _direct_job(job))
            if direct is None:
                raise checks.CheckError(f"{job.name}: direct U0 failed: {why}")
            job.expect["direct"] = [int(f) for f in json.loads(direct)["u0"]["invariant_factors"]]
        checks.CHECKS[job.kind](job, answer)
    tested = set()
    for job, answer in zip(jobs, answers):
        if answer is None or job.kind in tested:
            continue
        tested.add(job.kind)
        try:
            checks.CHECKS[job.kind](job, checks.corrupt(job.kind, answer))
        except checks.CheckError:
            continue
        raise checks.CheckError(f"self-test: the {job.kind} check accepted a corrupted answer")
    return sorted(tested)


def _direct_job(job):
    direct = workloads.Job(job.name, "u0", job.net, ["u0", "--qz"])
    direct.path = job.path
    return direct


def quantile(values, q):
    """Nearest-rank quantile; failed jobs are +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "graphalg")):
        parser.exit(2, f"no graphalg sources under {src}\n")
    sys.path.insert(0, src)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)

    # The first set-up provides the modules and jobs that the run uses.
    # The others repeat it between timed rounds, spread over the run, so
    # that a burst of load elsewhere on the machine moves one sample of
    # the median rather than all of them; their modules are discarded.
    # Each set-up writes fresh files: on ext4, truncating a file whose
    # data is still being written back waits for the write-back.
    setup_times = []

    def set_up():
        seconds, ga, jobs = setup(args.workload, args.seed,
                                  os.path.join(workdir, f"setup{len(setup_times)}"))
        setup_times.append(seconds)
        return ga, jobs

    ga, jobs = set_up()
    modules = {m: mod for m, mod in sys.modules.items() if _is_graphalg(m)}

    def repeat_set_up():
        set_up()
        for m in [m for m in sys.modules if _is_graphalg(m)]:
            del sys.modules[m]
        sys.modules.update(modules)
        gc.collect()

    reference = []
    for job in jobs:
        answer, why = run_job(ga, job)
        reference.append(answer)
        if answer is None:
            known = f"; known fault: {job.known_fault}" if job.known_fault else ""
            print(f"failed: {job.name} ({why}{known})", file=sys.stderr)
    tested = check_answers(ga, jobs, reference)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ga)
    latencies = {job.name: [] for job in jobs}
    all_latencies = []
    attempted = failed = rounds = 0
    wall = 0.0  # time spent in timed rounds
    late = {}
    while wall < args.seconds or attempted < MIN_ATTEMPTED:
        while (len(setup_times) < SETUP_REPEATS
               and len(setup_times) - 1 <= (SETUP_REPEATS - 1) * wall / args.seconds):
            repeat_set_up()
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = rounds * len(jobs) + index
                counts = tracer.counts_snapshot()
            t0 = time.perf_counter()
            answer, _ = run_job(ga, job, tracer)
            latency = time.perf_counter() - t0
            attempted += 1
            if answer is None:
                failed += 1
                latency = math.inf
                if tracer is not None:
                    tracer.restore_counts(counts)
            elif reference[index] is None:
                # failed untimed, answered now: checked after the rounds
                late.setdefault(index, answer)
            elif answer != reference[index]:
                raise checks.CheckError(f"{job.name}: answer changed between rounds")
            latencies[job.name].append(latency)
            all_latencies.append(latency)
        wall += time.perf_counter() - start
        rounds += 1
    while len(setup_times) < SETUP_REPEATS:
        repeat_set_up()
    check_answers(ga, [jobs[i] for i in late], list(late.values()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs_per_s = (attempted - failed) / wall
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "jobs_per_round": len(jobs), "attempted": attempted,
        "failed": failed, "wall_s": wall, "jobs_per_s": jobs_per_s,
        "setup_s": setup_times, "checked_kinds": tested,
        "job_median_ms": {name: statistics.median(v) * 1e3 if math.inf not in v else None
                          for name, v in latencies.items()},
        "job_latencies_ms": {name: [x * 1e3 if x < math.inf else None for x in v]
                             for name, v in latencies.items()},
    }
    if tracer is not None:
        tracer.write(os.path.join(workdir, "trace.json"), summary)
        metrics = tracer.metrics(rounds)
    else:
        with open(os.path.join(workdir, "run.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
        # A failed job counts as slower than every success; should a
        # quantile land on one, it reads as the time limit.
        cap = lambda x: min(x, workloads.TIME_LIMIT_S) * 1e3
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_ms": {"value": cap(quantile(all_latencies, 0.5)), "unit": "ms"},
            "job_p90_ms": {"value": cap(quantile(all_latencies, 0.9)), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} jobs, "
          f"{failed} failed, {jobs_per_s:.2f} jobs/s", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checks.CheckError as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        sys.exit(1)
