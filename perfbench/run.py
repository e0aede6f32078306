#!/usr/bin/env python3
"""csrank benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload certify|sandwich|bridge \\
        --seed N --seconds S --trace 0|1

Run from a source checkout; csrank is imported from ``src/`` next to this
directory, and the command fails without it.  One client drives csrank
in-process in a closed loop: the next job starts when the previous one has
returned and its output has been checked.  The clock covers the calls into
csrank only, not the client's checks.

``--trace 0`` runs a fixed number of whole rounds, enough for ``--seconds``
of job time at the round times in ROUND_REF_S and for at least 100 jobs,
then prints the end-to-end metrics.  The count follows from the workload and
``--seconds`` alone, not from the clock (unless a machine is so slow that
WALL_LIMIT_S stops the run early), so every run of a workload does the same
jobs and the same number of them fail.  Every round holds the same job
kinds.  Times are in reference seconds (see environment.py): the machine's
speed is sampled between every two jobs and each latency is scaled by the
speed measured around it, so the drift of a shared host cancels; the
wall-clock equivalents go to the ``info`` line.

``--trace 1`` runs one warm-up round, then a fixed set of rounds (the first
rounds that hold 100 jobs) twice, once plain and once with every layer
function wrapped, and prints the per-layer metrics and the tracing overhead;
with a fixed job list every count repeats exactly for a given seed.  The
``info`` line adds, per job kind, each layer's share of the job time (self
time of its spans).  Spans go to
``.perfbench_out/`` when the run ends.  The last line of stdout is the JSON
result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import environment
from checks import MissingInput

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_JOBS = 100
SETUP_REPEATS = 5
# A round's job time in reference seconds, as measured when these rounds were
# written; a run holds ceil(--seconds / ROUND_REF_S) rounds.
ROUND_REF_S = {"certify": 2.5, "sandwich": 2.8, "bridge": 11.0}
# Each job's latency is scaled by the median of the calibration samples
# taken within this many gaps of it (samples sit between every two jobs).
CALIBRATE_WINDOW = 3
# Stop starting rounds after this much wall time so a run ends within 180 s.
WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_gain_log10": "log10",
    "fit_infidelity_neglog10": "log10",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Runs jobs, times the calls into csrank and checks their outputs.

    A job fails when its call raises (a CLI job raises on a non-zero exit)
    or when its output fails the check; only the second kind is an incorrect
    output.  A job whose check needs the output of an earlier job that
    failed is counted as failed too, not as incorrect.  Each ``run`` call is
    one round.  Before every job and after the last one, the calibration
    block samples the machine's speed, and so does the streaming block if
    the round holds numpy-bound jobs; each latency is also kept in reference
    seconds, scaled by the median of the samples of its job's block taken
    within CALIBRATE_WINDOW gaps of the job.  Local samples give a short job
    the speed of the moment it ran rather than that of the round's long jobs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.ok = 0
        self.incorrect = 0
        self.latencies = []
        self.ref_latencies = []
        self.failures = []
        self.kinds = []
        self.by_kind = {}

    @property
    def job_time(self) -> float:
        return sum(self.latencies)

    def run(self, jobs) -> None:
        latencies, samples = [], {False: [], True: []}
        blocks = {False: environment.calibration_sample}
        if any(job.numpy_bound for job in jobs):
            blocks[True] = environment.stream_sample
        for job in jobs:
            for numpy_bound, sample in blocks.items():
                samples[numpy_bound].append(sample())
            if self.tracer is not None:
                self.tracer.job_id = self.attempted
            self.attempted += 1
            self.kinds.append(job.kind)
            error = None
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a raising job is a failed job, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if error is None:
                try:
                    job.check(out)
                except MissingInput as exc:
                    error = f"not checked, {exc}"
                except Exception as exc:  # failed check, or output that cannot be read
                    error = f"incorrect output, {type(exc).__name__}: {exc}"
                    self.incorrect += 1
            if error is None:
                self.ok += 1
            else:
                self.failures.append(f"{job.kind} [{job.label}]: {error}")
            latencies.append(dt)
            kind = self.by_kind.setdefault(job.kind, [0, 0.0])
            kind[0] += 1
            kind[1] += dt
        for numpy_bound, sample in blocks.items():
            samples[numpy_bound].append(sample())
        # samples[.][i] was taken just before job i and [i + 1] just after.
        reference = {False: environment.REF_BLOCK_S, True: environment.REF_STREAM_S}
        w = CALIBRATE_WINDOW
        ref = []
        for i, (job, dt) in enumerate(zip(jobs, latencies)):
            near = samples[job.numpy_bound][max(0, i - w + 1):i + w + 1]
            ref.append(dt * reference[job.numpy_bound] / statistics.median(near))
        self.latencies += latencies
        self.ref_latencies += ref

    @property
    def ref_jobs_per_s(self) -> float:
        return self.ok / sum(self.ref_latencies)


def rounds(make_round, seed: int, session):
    """Job lists of round 0, 1, ...; inputs depend only on (seed, round)."""
    k = 0
    while True:
        yield make_round(np.random.default_rng([seed, k]), session)
        k += 1


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    import workloads

    session = workloads.Session(OUT / "work")
    run = Pass()
    started = perf_counter()
    rounds_run = 0
    wanted = math.ceil(seconds / ROUND_REF_S[workload])
    for jobs in rounds(workloads.ROUNDS[workload], seed, session):
        run.run(jobs)
        rounds_run += 1
        if rounds_run >= wanted and run.attempted >= MIN_JOBS:
            break
        if perf_counter() - started > WALL_LIMIT_S:
            break
    rounds_wall_s = perf_counter() - started
    # Certificate tightness and fit quality come from fixed, seed-independent
    # probes, so a faster search or fitter cannot hide a looser result in the
    # seed-to-seed spread of the traffic.
    quality = workloads.Session(OUT / "work")
    probe = Pass()  # its timings are not reported
    probe.run([workloads.figure_job(quality)] + workloads.fidelity_probe(quality))
    setup_ref, setup_wall = environment.setup_seconds(
        SRC, workloads.SETUP_IMPORTS[workload], SETUP_REPEATS)
    infid = [math.log10(max(x, 1e-16)) for x in quality.fit_infidelities]
    metrics = {
        "jobs_per_s": run.ref_jobs_per_s,
        "job_p50_s": percentile(run.ref_latencies, 0.5),
        "job_p90_s": percentile(run.ref_latencies, 0.9),
        "ok_ratio": run.ok / run.attempted,
        "setup_s": setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_gain_log10": statistics.mean(quality.bound_gains) if quality.bound_gains else math.nan,
        "fit_infidelity_neglog10": -statistics.median(infid) if infid else math.nan,
    }
    info = {
        "jobs": run.attempted,
        "rounds": rounds_run,
        "rounds_wall_s": rounds_wall_s,
        "wall_jobs_per_s": run.ok / run.job_time,
        "wall_job_p50_s": percentile(run.latencies, 0.5),
        "wall_job_p90_s": percentile(run.latencies, 0.9),
        "wall_setup_s": setup_wall,
        "calibration_s": environment.calibrate(),
        "zero_slack_violations": session.zero_slack_violations,
        "by_kind": {k: {"jobs": n, "mean_s": t / n} for k, (n, t) in sorted(run.by_kind.items())},
    }
    return metrics, END_TO_END_UNITS, [run, probe], info


def run_traced(workload: str, seed: int) -> tuple:
    import tracing
    import workloads

    make_round = workloads.ROUNDS[workload]

    def fixed_rounds(session):
        jobs, total = [], 0
        for round_jobs in rounds(make_round, seed, session):
            jobs.append(round_jobs)
            total += len(round_jobs)
            if total >= MIN_JOBS:
                return jobs

    # An untimed warm-up round first, so that the plain pass does not pay
    # the first calls of a cold process and bias the overhead low.
    warm = Pass()
    warm.run(next(rounds(make_round, seed, workloads.Session(OUT / "work"))))
    plain = Pass()
    for jobs in fixed_rounds(workloads.Session(OUT / "work")):
        plain.run(jobs)
    tracer = tracing.Tracer()
    traced = Pass(tracer)
    session = workloads.Session(OUT / "work")
    with tracing.instrument(tracer):
        for jobs in fixed_rounds(session):
            traced.run(jobs)
    tracer.save(OUT / f"trace-{workload}.npz")

    layers = tracing.layer_metrics(tracer)
    layers["certify.zero_slack_violations"] = (session.zero_slack_violations, "count")
    layers["trace.untraced_jobs_per_s"] = (plain.ref_jobs_per_s, "1/s")
    layers["trace.traced_jobs_per_s"] = (traced.ref_jobs_per_s, "1/s")
    layers["trace.overhead_share"] = (plain.ref_jobs_per_s / traced.ref_jobs_per_s - 1.0, "ratio")
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    info = {"jobs_per_pass": traced.attempted, "spans": len(tracer.starts),
            "self_share_by_kind": tracing.self_shares(tracer, traced.kinds, traced.latencies)}
    return metrics, units, [warm, plain, traced], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "sandwich", "bridge"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csrank" / "__init__.py").is_file():
        print(f"error: no csrank sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("CS_RANK_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import csrank

    if Path(csrank.__file__).resolve().parent != SRC / "csrank":
        print(f"error: imported csrank from {csrank.__file__}, not {SRC}", file=sys.stderr)
        return 2

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**63
    if args.trace:
        metrics, units, passes, info = run_traced(args.workload, seed)
    else:
        metrics, units, passes, info = run_end_to_end(args.workload, seed, args.seconds)
    failures = [f for p in passes for f in p.failures]
    env = environment.describe(SRC)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "info": info, "failures": failures,
              "metrics": metrics}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for failure in failures[:20]:
        print("FAILED " + failure)
    result = {
        "correct": not any(p.incorrect for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
