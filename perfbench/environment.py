"""What a result depends on besides the code: versions, cores, BLAS threads,
kernel backend, the size of src/csrank and the machine's current speed; plus
the set-up time a CLI user pays before the first job can start.

Machine speed on a shared host drifts by tens of percent within minutes, and
it moves every timing by about the same factor.  ``calibrate`` times a fixed
block of the kinds of work csrank does (small complex SVDs and gammaln;
interpreter loops over dicts and complex numbers; the argparse and json
round trips of a CLI call) that no csrank change can alter.  Timings are scaled by
REF_BLOCK_S / (calibration time measured next to them), which gives
reference seconds: seconds on a machine that runs the block in REF_BLOCK_S.
The permanent kernels' numpy backend streams arrays of megabytes, whose speed
follows memory bandwidth rather than the interpreter, so jobs that run them
are scaled the same way by a streaming block and REF_STREAM_S instead.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import gammaln

# The calibration block's time on the machine the bounds were tuned on
# (2-core x86-64, numpy 2.4 with OpenBLAS 0.3.31).
REF_BLOCK_S = 0.010
# The streaming block's time on the same machine.
REF_STREAM_S = 0.008


def _openblas_threads():
    """Threads of each OpenBLAS loaded in this process, read from its own API."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            name = os.path.basename(line.split()[-1])
            if "openblas" in name and ".so" in name:
                libs.add(line.split()[-1])
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _blas_version(module) -> str:
    config = module.show_config(mode="dicts")
    return config["Build Dependencies"]["blas"].get("version", "unknown")


def source_lines(src: Path) -> dict:
    """Line count of every Python/Cython source file under src/csrank."""
    pkg = src / "csrank"
    counts = {}
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            with open(path, "rb") as fh:
                counts[str(path.relative_to(src))] = sum(1 for _ in fh)
    return counts


def describe(src: Path) -> dict:
    import numpy
    import scipy

    from csrank._kernels import BACKEND

    lines = source_lines(src)
    return {
        "kernel_backend": BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _openblas_threads(),
        "cs_rank_threads": os.environ.get("CS_RANK_THREADS"),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _calibration_block() -> float:
    # Three parts of about equal time, the kinds of work csrank's jobs do:
    # small-matrix numpy/LAPACK calls with interpreter work on tuples and
    # dicts; complex arithmetic in the interpreter; and the argparse/json
    # round trips and tiny numpy calls of a short CLI invocation.
    v = (np.arange(17) + 1.0) * (1 + 0.5j)
    idx = np.add.outer(np.arange(9), np.arange(9))
    acc = 0.0
    for k in range(75):
        s = np.linalg.svd(v[idx] * (1.0 + k * 1e-3), compute_uv=False)
        acc += float(np.sum(s[3:] ** 2)) + math.log(1.0 + k) + float(gammaln(k + 1.0))
    table = {}
    z = 0.3 + 0.4j
    for k in range(3000):
        key = (k % 7, k % 11, k % 13)
        table[key] = table.get(key, 0j) + z * (k & 15)
        z *= 0.999 + 0.001j
    acc += abs(sum(table.values()))

    w = 0.3 + 0.4j
    total = 0j
    for k in range(17000):
        total += w * (k & 7)
        w *= 0.9999 + 0.0001j
    acc += abs(total)

    parser = argparse.ArgumentParser()
    parser.add_argument("desc")
    parser.add_argument("--seed", type=int, default=0)
    for k in range(22):
        desc = {"modes": 3, "amps": [{"occ": [1, k % 3, 0], "c": [1.0, 0.0]}]}
        args = parser.parse_args([json.dumps(desc), "--seed", str(k)])
        amps = np.array([complex(*e["c"]) for e in json.loads(args.desc)["amps"]] * 4)
        q = np.linalg.qr(np.outer(amps, amps) + np.eye(4))[0]
        acc += float(abs(np.prod(q.diagonal()))) + len(json.dumps({"x": amps.real.tolist()}))
    return acc


_STREAM_SHIFTS = np.arange(16, dtype=np.uint64)
_STREAM_A = (np.arange(16 * 18).reshape(16, 18) % 7 + 1.0) * (1 + 0.5j) / 50


def _stream_block() -> complex:
    # Large-array numpy work like a block of the numpy permanent kernels:
    # a 2^14 x 16 sign matrix, a complex matmul over it and row products,
    # whose speed follows memory bandwidth more than the interpreter's.
    k = np.arange(1 << 14, dtype=np.uint64)
    bits = ((k[:, None] >> _STREAM_SHIFTS[None, :]) & 1).astype(np.int64)
    sums = _STREAM_A[0][None, :] + (1 - 2 * bits) @ _STREAM_A
    return complex(np.sum(np.prod(sums, axis=1)))


def stream_sample() -> float:
    """Seconds the streaming block takes right now."""
    t0 = perf_counter()
    _stream_block()
    return perf_counter() - t0


def calibration_sample() -> float:
    """Seconds the calibration block takes right now."""
    t0 = perf_counter()
    _calibration_block()
    return perf_counter() - t0


def calibrate() -> float:
    """Median of five calibration samples."""
    return statistics.median(calibration_sample() for _ in range(5))


def setup_seconds(src: Path, modules, repeats: int) -> tuple:
    """Median time for a fresh interpreter to import ``modules``.

    Each sample starts a new ``python`` with only ``src`` on its path and
    stops the clock when it exits, so it covers interpreter start-up plus
    the imports every CLI invocation pays.  Returns (reference seconds,
    wall seconds); each sample is scaled by a calibration taken around it.
    """
    env = {k: v for k, v in os.environ.items() if k != "CS_RANK_THREADS"}
    env["PYTHONPATH"] = str(src)
    code = "import " + ", ".join(modules)
    wall, ref = [], []
    before = calibrate()
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        wall.append(perf_counter() - t0)
        after = calibrate()
        ref.append(wall[-1] * REF_BLOCK_S / ((before + after) / 2))
        before = after
    return statistics.median(ref), statistics.median(wall)
