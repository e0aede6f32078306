"""Fast self-test of the benchmark: every named metric appears with its unit,
and the output checks reject perturbed results.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one round cut down to the first job of every kind, with
one set-up sample, so the whole file takes seconds.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from csrank import decomp, fock, hankel, permanent  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first_of_each_kind(jobs):
    seen, out = set(), []
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    rounds = {
        name: (lambda rng, session, build=build: first_of_each_kind(build(rng, session)))
        for name, build in workloads.ROUNDS.items()
    }
    monkeypatch.setattr(workloads, "ROUNDS", rounds)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["certify", "sandwich", "bridge"])
def test_every_metric_named_with_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


def test_round_count_follows_seconds_not_the_clock(tiny, capsys, monkeypatch, tmp_path):
    # Two runs on different seeds do the same number of rounds, so the
    # attempted and failed counts of a workload do not depend on timing.
    monkeypatch.setattr(run, "ROUND_REF_S", {"certify": 1.0, "sandwich": 1.0, "bridge": 1.0})
    attempted = set()
    for seed in ("3", "4"):
        assert run.main(["--workload", "bridge", "--seed", seed, "--seconds", "2.5",
                         "--trace", "0"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        record = json.loads((tmp_path / "result-bridge-trace0.json").read_text())
        assert record["info"]["rounds"] == 3
        attempted.add(result["attempted"])
    assert len(attempted) == 1


def test_check_without_earlier_output_is_a_failure_not_incorrect():
    def check(out):
        checks.earlier({}, "plain")

    p = run.Pass()
    p.run([workloads.Job("dependent", lambda: None, check)])
    assert (p.attempted, p.ok, p.incorrect, len(p.failures)) == (1, 0, 0, 1)


def test_sandwich_check_rejects_perturbed_threshold():
    psi = fock.fock_state(1, 16)
    threshold = hankel.optimized_bound(psi, 1, hankel.SearchConfig(N_max=8)).value
    _, infidelity = decomp.best_single_coherent(psi)
    checks.check_sandwich(threshold, infidelity)
    with pytest.raises(checks.CheckFailed):
        checks.check_sandwich(infidelity + 4 * checks.RES, infidelity)


def test_fock_check_rejects_perturbed_threshold():
    value = hankel.plain_bound(fock.fock_state(5, 10), 5, 5)
    checks.check_fock_plain(5, value)
    with pytest.raises(checks.CheckFailed):
        checks.check_fock_plain(5, value * (1 + 1e-10))


def test_permanent_check_rejects_perturbed_permanent():
    u = permanent.haar_unitary(6, seed=1)
    values = {
        "glynn": permanent.permanent_glynn(u),
        "ryser": permanent.permanent_ryser(u),
        "naive": permanent.permanent_naive(u),
    }
    checks.check_permanents(values, 6)
    values["glynn"] *= 1 + 1e-7
    with pytest.raises(checks.CheckFailed):
        checks.check_permanents(values, 6)


def test_permanent_check_near_zero_permanent():
    # |Per| = 2.7e-7, about 50 times below the median at n = 18: Glynn and
    # Ryser differ by 6.5e-16, which is 2.4e-9 of the value.
    u = permanent.haar_unitary(18, seed=370343520)
    values = {"glynn": permanent.permanent_glynn(u), "ryser": permanent.permanent_ryser(u)}
    checks.check_permanents(values, 18)
    values["glynn"] += 1e-14
    with pytest.raises(checks.CheckFailed):
        checks.check_permanents(values, 18)


def test_bridge_check_rejects_error_above_bound():
    delta_inf = 0.02
    bound = math.sqrt(2 * delta_inf)
    checks.check_bridge_rows([(0.5 * bound, bound)], delta_inf, 0.5 * bound)
    with pytest.raises(checks.CheckFailed):
        checks.check_bridge_rows([(1.01 * bound, bound)], delta_inf, 1.01 * bound)
