"""Wall times of csrank's end-to-end CLI commands, written to BENCH_<n>.json.

Each command runs in a fresh interpreter (``python -m csrank.cli ...``, with
PYTHONPATH set to the checkout's ``src``), so its time includes the import of
``csrank.cli``.  The tier-1 test suite (SUITE) is timed the same way, so
every entry records its REPEAT = 3 run times, the best of them and its exit
codes.  The record also holds the line count of every file under
``src/csrank``, and the interpreter, numpy and host it ran on.

    python3 tools/cli_times.py --label change --out BENCH_<n>.json
    python3 tools/cli_times.py --repo ../parent --label parent --out BENCH_<n>.json

Runs with different labels (say, a parent commit and a change) share one
file: each run replaces only its own label.  Standard library only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEAT = 3  # runs per command and of the suite; the fastest is kept
SUITE = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
COMMANDS = {
    "version": ["--version"],
    "bound_fock12": ["bound", '{"type":"fock","n":12}', "--r", "12", "--out", "cert.json"],
    "bound_check": ["bound", "--check", "cert.json"],
    "certify_squeezed_nmax10": ["certify", '{"type":"squeezed","r":0.5,"phi":0}',
                                "--eps", "1e-8", "--n-max", "10"],
    "fit_fock1": ["fit", '{"type":"fock","n":1}', "--r", "1", "--seed", "0"],
    "decompose_fock2": ["decompose", '{"type":"fock","n":2}', "--delta", "0.1"],
    "figure_left": ["figure", "--panel", "left", "--out", "left.csv"],
    "figure_right": ["figure", "--panel", "right", "--out", "right.csv"],
    "multimode_11": ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}'],
    "permanent_n8": ["permanent", "--n", "8", "--delta", "0.1", "--trials", "100",
                     "--seed", "0", "--out", "trials8.csv"],
    "permanent_n16": ["permanent", "--n", "16", "--delta", "0.1", "--trials", "100",
                      "--seed", "0", "--out", "trials16.csv"],
}


def timed(argv, env, cwd) -> dict:
    """Wall times and exit codes of REPEAT subprocess runs, their output discarded."""
    runs = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        code = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        runs.append((time.perf_counter() - start, code))
    return {"best_s": round(min(t for t, _ in runs), 4),
            "runs_s": [round(t, 4) for t, _ in runs],
            "exit_codes": sorted({code for _, code in runs})}


def src_lines(repo: Path) -> dict:
    counts = {str(p.relative_to(repo / "src")): len(p.read_text().splitlines())
              for p in sorted((repo / "src" / "csrank").rglob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def record(repo: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    commands = {}
    with tempfile.TemporaryDirectory() as work:
        for name, args in COMMANDS.items():  # in order: bound_check reads cert.json
            commands[name] = {"argv": args,
                              **timed([sys.executable, "-m", "csrank.cli", *args], env, work)}
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"commands": commands, "src_lines": src_lines(repo),
            "python": platform.python_version(), "numpy": numpy,
            "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
            "repeat": REPEAT,
            "tier1_suite": {"argv": SUITE, **timed([sys.executable, *SUITE], env, repo)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is timed (default: this one)")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    args = parser.parse_args(argv)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = record(args.repo.resolve())
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
