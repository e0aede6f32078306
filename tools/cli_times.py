"""Wall times of csrank's end-to-end CLI commands, written to BENCH_<n>.json.

Each command runs in a fresh interpreter (``python -m csrank.cli ...``, with
PYTHONPATH set to the checkout's ``src``), so its time includes the import of
``csrank.cli``.  The tier-1 test suite (SUITE) is timed the same way, so
every entry records its REPEAT = 3 run times, their best and median, and its
exit codes.  The record also holds the line count of every file under
``src/csrank``, and the interpreter, numpy and host it ran on.

    python3 tools/cli_times.py --repo ../parent --label parent \\
        --repo . --label change --out BENCH_<n>.json

One call times one or more checkouts, one ``--repo`` per ``--label``; a
single ``--label`` without ``--repo`` times this checkout.  The labels take
turns on every run of every command, the first of them rotating from one
repeat to the next, so drift on a shared host reaches every label alike.
Every label after the first also records, per command and for the suite,
each repeat's time over the first label's run in that repeat (``ratios``)
and their median (``median_ratio``): a pair run back to back shares the
host's state, so the ratios resolve a move that 3-run medians of a 0.2 s
command cannot.  A pair in which either run exited non-zero gets no ratio
(null), and the median is taken over the clean pairs (null if none is).
Runs with different labels share one file: each call replaces only its own
labels.  Standard library only.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEAT = 3  # runs per label of each command and of the suite
SUITE = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
COMMANDS = {
    "version": ["--version"],
    "bound_fock12": ["bound", '{"type":"fock","n":12}', "--r", "12", "--out", "cert.json"],
    "bound_check": ["bound", "--check", "cert.json"],
    "certify_squeezed_nmax10": ["certify", '{"type":"squeezed","r":0.5,"phi":0}',
                                "--eps", "1e-8", "--n-max", "10"],
    # the plain search over N = 2..10
    "bound_plain_squeezed_nmax10": ["bound", '{"type":"squeezed","r":0.5,"phi":0}', "--r", "2",
                                    "--n-max", "10", "--method", "plain"],
    # a superposition descriptor: the state is loaded through its norm
    "bound_cat": ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[0.5,0]},'
                  '{"c":[1,0],"alpha":[-0.5,0]}]}', "--r", "1"],
    "fit_fock1": ["fit", '{"type":"fock","n":1}', "--r", "1", "--seed", "0"],
    # a complex target: the r = 1 fit runs the 41 x 41 plane grid, not the real axis
    "fit_core_r1": ["fit", '{"type":"core","amps":[[0.6,0],[0,0.8]]}', "--r", "1", "--seed", "0"],
    "fit_fock3_r2": ["fit", '{"type":"fock","n":3}', "--r", "2", "--seed", "0"],
    "fit_fock10_r2": ["fit", '{"type":"fock","n":10}', "--r", "2", "--seed", "0"],
    "decompose_fock2": ["decompose", '{"type":"fock","n":2}', "--delta", "0.1"],
    "figure_left": ["figure", "--panel", "left", "--out", "left.csv"],
    "figure_right": ["figure", "--panel", "right", "--out", "right.csv"],
    "multimode_11": ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}'],
    "permanent_n8": ["permanent", "--n", "8", "--delta", "0.1", "--trials", "100",
                     "--seed", "0", "--out", "trials8.csv"],
    "permanent_n16": ["permanent", "--n", "16", "--delta", "0.1", "--trials", "100",
                      "--seed", "0", "--out", "trials16.csv"],
}


def run_once(argv, env, cwd) -> tuple:
    """Wall time and exit code of one subprocess run, its output discarded."""
    start = time.perf_counter()
    code = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return time.perf_counter() - start, code


def timed(runs: dict) -> dict:
    """label -> REPEAT timed runs of runs[label] = (argv, env, cwd).

    Each repeat runs every label once, starting from the next label in turn.
    Every label after the first also gets each repeat's time over the first
    label's run in the same repeat, None where either run exited non-zero,
    and the median of the others (None if there are none).
    """
    labels = list(runs)
    done = {label: [] for label in labels}
    for i in range(REPEAT):
        first = i % len(labels)
        for label in labels[first:] + labels[:first]:
            done[label].append(run_once(*runs[label]))
    out = {label: {"best_s": round(min(t for t, _ in done[label]), 4),
                   "median_s": round(statistics.median(t for t, _ in done[label]), 4),
                   "runs_s": [round(t, 4) for t, _ in done[label]],
                   "exit_codes": sorted({code for _, code in done[label]})}
           for label in labels}
    for label in labels[1:]:
        ratios = [t / base if code == base_code == 0 else None
                  for (t, code), (base, base_code) in zip(done[label], done[labels[0]])]
        clean = [r for r in ratios if r is not None]
        out[label].update(ratio_to=labels[0],
                          ratios=[None if r is None else round(r, 4) for r in ratios],
                          median_ratio=round(statistics.median(clean), 4) if clean else None)
    return out


def src_lines(repo: Path) -> dict:
    counts = {str(p.relative_to(repo / "src")): len(p.read_text().splitlines())
              for p in sorted((repo / "src" / "csrank").rglob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def record(repos: dict) -> dict:
    """label -> record of the checkout repos[label]."""
    env = {label: dict(os.environ, PYTHONPATH=str(repo / "src")) for label, repo in repos.items()}
    commands = {label: {} for label in repos}
    with contextlib.ExitStack() as stack:
        work = {label: stack.enter_context(tempfile.TemporaryDirectory()) for label in repos}
        for name, args in COMMANDS.items():  # in order: bound_check reads cert.json
            argv = [sys.executable, "-m", "csrank.cli", *args]
            times = timed({label: (argv, env[label], work[label]) for label in repos})
            for label in repos:
                commands[label][name] = {"argv": args, **times[label]}
    suite = timed({label: ([sys.executable, *SUITE], env[label], repo)
                   for label, repo in repos.items()})
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {label: {"commands": commands[label], "src_lines": src_lines(repo),
                    "python": platform.python_version(), "numpy": numpy,
                    "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
                    "repeat": REPEAT,
                    "tier1_suite": {"argv": SUITE, **suite[label]}}
            for label, repo in repos.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, action="append",
                        help="checkout whose src/ is timed, one per --label "
                             "(default with one label: this one)")
    parser.add_argument("--label", required=True, action="append",
                        help="key of a checkout's run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    args = parser.parse_args(argv)
    repos = args.repo or [Path(__file__).resolve().parents[1]] * (len(args.label) == 1)
    if len(repos) != len(args.label) or len(set(args.label)) != len(args.label):
        parser.error("give one --repo per --label, and no label twice")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.update(record({label: repo.resolve() for label, repo in zip(args.label, repos)}))
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
