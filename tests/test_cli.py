import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csrank
from csrank.certify import fock_analytic_threshold
from csrank.cli import build_parser, main
from csrank.fock import MAX_CUTOFF, fock_state, state_from_descriptor
from csrank.hankel import (
    MAX_HANKEL_N,
    plain_bound,
    rescaled_bound,
)
from csrank.multimode import multimode_from_descriptor, reduction_amplitudes


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bound_plain_fock1(capsys):
    code, payload = run_json(capsys, ["bound", '{"type":"fock","n":1}', "--r", "1",
                                      "--method", "plain"])
    assert code == 0
    assert payload["epsilon_threshold"] == pytest.approx(0.125, rel=1e-12)
    assert payload["parameters"]["N"] == 1
    assert payload["manifest"]["command"] == "bound"


def test_plain_certificate_holds_the_best_n_of_the_loop(capsys):
    descriptor = {"type": "core", "amps": [[0.3, 0.1], [0.5, -0.2], [0.0, 0.7]], "cutoff": 20}
    code, payload = run_json(capsys, ["bound", json.dumps(descriptor), "--r", "1",
                                      "--method", "plain", "--n-max", "6"])
    assert code == 0
    psi = state_from_descriptor(descriptor)
    values = [plain_bound(psi, 1, n) for n in range(1, 7)]
    best = max(values)
    assert payload["epsilon_threshold"] == best
    assert payload["parameters"] == {"N": 1 + values.index(best), "b": 1.0}


def test_bound_analytic_fock12(capsys):
    code, payload = run_json(capsys, ["bound", '{"type":"fock","n":12}', "--r", "12",
                                      "--method", "analytic"])
    assert code == 0
    expected = math.factorial(12) / (2 * 13 * math.factorial(24))
    assert payload["epsilon_threshold"] == pytest.approx(expected, rel=1e-12)
    assert payload["method"] == "analytic_fock"


@pytest.mark.parametrize("n", [2**63, 2**1000, 10**400], ids=["2^63", "2^1000", "10^400"])
def test_analytic_bound_past_the_double_range_is_zero(capsys, n):
    code, payload = run_json(capsys, ["bound", json.dumps({"type": "fock", "n": n}),
                                      "--r", str(n), "--method", "analytic"])
    assert code == 0
    assert payload["epsilon_threshold"] == 0.0


def test_bound_optimized_squeezed(capsys):
    code, payload = run_json(
        capsys,
        ["bound", '{"type":"squeezed","r":0.5,"phi":0}', "--r", "3",
         "--method", "optimized", "--n-max", "8"],
    )
    assert code == 0
    assert payload["epsilon_threshold"] > 0


def test_subnormal_amplitude_gives_a_finite_threshold(capsys):
    # the phase of a subnormal amplitude must not overflow to NaN
    descriptor = '{"type":"core","amps":[[1,0],[5e-324,0]],"cutoff":4}'
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, payload = run_json(capsys, ["bound", descriptor, "--r", "1",
                                          "--method", "plain", "--n-max", "2"])
    assert code == 0
    assert math.isfinite(payload["epsilon_threshold"])


def test_bound_reports_whether_eps_certified(capsys):
    code, payload = run_json(capsys, ["bound", '{"type":"fock","n":1}', "--r", "1",
                                      "--eps", "0.1"])
    assert code == 0
    assert payload["certifies"] is True


def test_certify_command(capsys):
    code, payload = run_json(capsys, ["certify", '{"type":"fock","n":1}',
                                      "--eps", "0.1", "--n-max", "4"])
    assert code == 0
    assert payload["r"] == 1
    assert payload["kappa_eps_at_least"] == 2


def test_b_range_is_a_usage_error(capsys):
    # the optimized bound is the maximum over every b > 0: there is no range to give
    for command in (["bound", "--r", "1"], ["certify", "--eps", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main([command[0], '{"type":"fock","n":1}', *command[1:], "--b-range", "1e-3,10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --b-range" in capsys.readouterr().err


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    build_parser.cache_clear()
    fock1 = '{"type":"fock","n":1}'
    assert run_json(capsys, ["bound", fock1, "--r", "1", "--method", "plain"])[0] == 0
    assert run_json(capsys, ["certify", fock1, "--eps", "0.01"])[0] == 0
    assert build_parser.cache_info().misses == 1
    with pytest.raises(SystemExit) as exc:
        main(["bound", fock1, "--r", "one"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    # the next call parses afresh: no flag of an earlier call leaks into it
    code, payload = run_json(capsys, ["bound", fock1, "--r", "1", "--n-max", "1"])
    assert code == 0 and payload["method"] == "optimized"
    assert payload["manifest"]["flags"] == {"command": "bound", "method": "optimized",
                                            "n_max": 1, "r": 1}
    assert build_parser.cache_info().misses == 1


def test_malformed_json_exits_2(capsys):
    assert main(["bound", "{not json", "--r", "1"]) == 2
    assert main(["bound", '{"type":"nope"}', "--r", "1"]) == 2
    assert main(["bound", '{"type":"fock","n":1}', "--r", "5", "--n-max", "2"]) == 2
    assert main(["certify", '{"type":"fock","n":1}']) == 2  # missing --eps


FOCK1 = {"type": "fock", "n": 1}
CERT = {"state_descriptor": FOCK1, "r": 1, "epsilon_threshold": 0.125,
        "method": "plain", "parameters": {"N": 1, "b": 1.0}}
OPT_CERT = dict(CERT, method="optimized",
                epsilon_threshold=rescaled_bound(fock_state(1, 2), 1, 1, 1.0))
ANALYTIC_CERT = {"state_descriptor": {"type": "fock", "n": 3}, "r": 3,
                 "epsilon_threshold": fock_analytic_threshold(3), "method": "analytic_fock",
                 "parameters": {"N": 3, "b": 1.0}}


# The rule a malformed case's message must name, by case id, where one is pinned.
_MALFORMED_MESSAGES = {"check-negative-N": "need 0 <= 2N <= cutoff",
                       "certify-negative-n-max": "N_max must be non-negative",
                       "bound-r0-n-max-0": "needs N >= max(r, 1) = 1, past N_max=0",
                       "bound-plain-r0-n-max-0": "needs N >= max(r, 1) = 1, past N_max=0",
                       "bound-eps-negative": "epsilon must lie in (0, 1)",
                       "bound-eps-nan": "epsilon must lie in (0, 1)",
                       "bound-eps-one": "epsilon must lie in (0, 1)",
                       "multimode-repeated-occ": "occupation [1] appears more than once",
                       "superposition-huge-c": "squared norm is past the double range",
                       "superposition-huge-norm": "squared norm is past the double range",
                       "superposition-merged-overflow": "c must be finite"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", '{"type":"core","amps":[1,0]}', "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":1,"alpha":[0.5,0]}]}', "--r", "1"],
        ["multimode", '{"modes":1,"amps":[{"occ":[1],"c":1}]}'],
        ["bound", '{"type":"squeezed","r":1e308}', "--r", "1"],
        ["bound", '{"type":"fock","n":[1]}', "--r", "1"],
        ["bound", '{"type":"core","amps":5}', "--r", "1"],
        ["bound", '{"type":"squeezed","r":[1]}', "--r", "1"],
        ["bound", '{"type":"fock","n":1,"cutoff":"4"}', "--r", "1"],
        ["bound", '{"type":"fock","n":1.5}', "--r", "1"],
        ["bound", '{"type":"superposition","terms":[5]}', "--r", "1"],
        ["bound", '{"type":"squeezed","r":0,"cutoff":-2}', "--r", "1"],
        ["multimode", '{"modes":2,"amps":[{"occ":1,"c":[1,0]}]}'],
        ["multimode", '{"modes":1,"amps":[{"occ":[1],"c":[0.6,0]},{"occ":[1],"c":[0,0.8]}]}'],
        ["bound", "--check", dict(CERT, r=[1])],
        ["bound", "--check", [CERT]],
        ["bound", "--check", dict(CERT, parameters=[1, 1.0])],
        ["bound", "--check", dict(CERT, parameters={"b": 1.0})],
        ["bound", "--check", dict(ANALYTIC_CERT, r=5)],
        ["bound", "--check", dict(ANALYTIC_CERT, parameters={})],
        ["bound", "--check", dict(ANALYTIC_CERT,
                                  state_descriptor={"type": "squeezed", "r": 0.5, "n": 3})],
        ["bound", "--check", dict(OPT_CERT, method="weighted")],
        ["bound", "--check", dict(OPT_CERT, method=["x"])],
        ["bound", "--check", dict(CERT, epsilon_threshold=math.inf)],
        ["bound", "--check", dict(CERT, parameters={"N": -2, "b": 1.0})],
        ["bound", '{"type":"superposition","terms":[{"c":[1e300,0],"alpha":[0.1,0]}]}',
         "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":[1e200,0],"alpha":[0.1,0]},'
                  '{"c":[1e200,0],"alpha":[0.5,0]}]}', "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":[1e308,0],"alpha":[0.1,0]},'
                  '{"c":[1e308,0],"alpha":[0.1,0]}]}', "--r", "1"],
        ["certify", '{"type":"fock","n":3}', "--eps", "1e-3", "--n-max", "-1"],
        ["bound", '{"type":"fock","n":1}', "--r", "0", "--n-max", "0"],
        ["bound", '{"type":"fock","n":1}', "--r", "0", "--n-max", "0", "--method", "plain"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--eps", "-1"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--eps", "nan"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--eps", "1"],
    ],
    ids=["core-scalar-amps", "superposition-scalar-c", "multimode-scalar-c", "squeezed-huge-r",
         "fock-list-n", "core-scalar-amps-field", "squeezed-list-r", "fock-string-cutoff",
         "fock-fractional-n", "superposition-scalar-term", "squeezed-negative-cutoff",
         "multimode-scalar-occ", "multimode-repeated-occ",
         "check-list-r", "check-top-level-list", "check-list-parameters", "check-missing-N",
         "check-analytic-r-above-n", "check-analytic-no-N", "check-analytic-squeezed", "check-method-weighted",
         "check-method-list", "check-infinite-threshold", "check-negative-N",
         "superposition-huge-c", "superposition-huge-norm", "superposition-merged-overflow",
         "certify-negative-n-max", "bound-r0-n-max-0", "bound-plain-r0-n-max-0",
         "bound-eps-negative", "bound-eps-nan", "bound-eps-one"],
)
def test_malformed_descriptor_values_exit_2(capsys, tmp_path, request, argv):
    # A non-string argument is a certificate, written to a file for --check.
    path = tmp_path / "cert.json"
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert _MALFORMED_MESSAGES.get(request.node.callspec.id, "") in err


def test_resource_limit_exits_4(capsys):
    assert main(["permanent", "--n", "17", "--delta", "0.2", "--trials", "1"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", '{"type":"fock","n":1}', "--r", "1", "--max-iters", "0"],
        ["fit", '{"type":"fock","n":1}', "--r", "1", "--tol", "nan"],
        ["permanent", "--n", "2", "--delta", "0.2", "--trials", "0"],
        ["permanent", "--n", "2", "--delta", "0.2", "--trials", "-2"],
        ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}', "--trials", "-1"],
    ],
    ids=["fit-max-iters-0", "fit-tol-nan", "permanent-trials-0", "permanent-trials-negative",
         "multimode-trials-negative"],
)
def test_malformed_counts_exit_2(capsys, tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_multimode_with_no_sampled_trials_keeps_the_uniform_row(capsys):
    code, payload = run_json(
        capsys,
        ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}', "--trials", "0"],
    )
    assert code == 0
    assert payload["lower_bound"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", '{"type":"fock","n":1,"cutoff":%d}' % (MAX_CUTOFF + 1), "--r", "1"],
        ["bound", '{"type":"fock","n":%d}' % (MAX_CUTOFF + 1), "--r", "1"],
        ["bound", '{"type":"fock","n":1}', "--r", "1", "--n-max", str(MAX_CUTOFF // 2 + 1)],
        ["certify", '{"type":"squeezed","r":0.5}', "--eps", "0.1",
         "--n-max", str(MAX_CUTOFF // 2 + 1)],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[1e300,0]}]}',
         "--r", "1"],
        ["bound", '{"type":"squeezed","r":4.6}', "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[316,0]}]}',
         "--r", "1"],
    ],
    ids=["explicit-cutoff", "fock-n", "bound-n-max", "certify-n-max", "huge-alpha",
         "squeezed-auto-cutoff", "coherent-auto-cutoff"],
)
def test_vectors_past_the_cutoff_cap_exit_4(capsys, argv):
    assert main(argv) == 4
    assert str(MAX_CUTOFF) in capsys.readouterr().err


def test_cutoff_cap_is_inclusive():
    assert state_from_descriptor({"type": "fock", "n": 1, "cutoff": MAX_CUTOFF}).cutoff == MAX_CUTOFF


_NUMBER = (st.integers(-3, 40) | st.floats(-50, 50)
           | st.sampled_from([math.nan, math.inf, -math.inf]))  # json writes NaN, Infinity
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["c", "alpha", "occ"]), inner, max_size=2),
    max_leaves=6,
)
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2) | _SMALL_JSON


def _descriptor(kind, required, **optional):
    """A descriptor of one type whose fields are well-formed or arbitrary small JSON."""
    optional["cutoff"] = st.integers(-3, 40) | _SMALL_JSON
    return st.fixed_dictionaries({"type": st.just(kind), **required}, optional=optional)


_DESCRIPTORS = st.one_of(
    _descriptor("fock", {"n": _NUMBER | _SMALL_JSON}),
    _descriptor("core", {"amps": st.lists(_PAIR, max_size=4) | _SMALL_JSON}),
    _descriptor("squeezed", {"r": _NUMBER | _SMALL_JSON}, phi=_NUMBER | _SMALL_JSON),
    _descriptor("superposition", {"terms": st.lists(
        st.fixed_dictionaries({"c": _PAIR, "alpha": _PAIR}), max_size=3) | _SMALL_JSON}),
    st.dictionaries(st.sampled_from(["type", "n", "r", "amps"]), _SMALL_JSON),
)


@settings(max_examples=200, deadline=None)
@given(_DESCRIPTORS)
def test_cli_never_leaks_a_traceback(descriptor):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["bound", json.dumps(descriptor), "--r", "1", "--method", "plain",
                     "--n-max", "2"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


_COUNT = st.integers(-3, 40) | _SMALL_JSON
_CERTIFICATES = st.fixed_dictionaries({
    "state_descriptor": _DESCRIPTORS | _SMALL_JSON,
    "r": _COUNT,
    "epsilon_threshold": _NUMBER | _SMALL_JSON,
    "method": st.sampled_from(["plain", "optimized", "analytic_fock", "weighted"]) | _SMALL_JSON,
    "parameters": st.fixed_dictionaries({"N": _COUNT, "b": _NUMBER | _SMALL_JSON}) | _SMALL_JSON,
}) | _SMALL_JSON


@settings(max_examples=200, deadline=None)
@given(_CERTIFICATES)
def test_check_never_leaks_a_traceback(certificate):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            json.dump(certificate, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["bound", "--check", path])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def _multimode_core(m):
    """A descriptor of m modes whose occupations fit; it may still be refused
    for its weight, a zero state or the desk limit."""
    entry = st.fixed_dictionaries({
        "occ": st.lists(st.integers(0, 4), min_size=m, max_size=m),
        "c": st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
    })
    return st.fixed_dictionaries({"modes": st.just(m), "amps": st.lists(entry, min_size=1, max_size=3)})


_MULTIMODE = st.integers(1, 4).flatmap(_multimode_core) | st.fixed_dictionaries({
    "modes": st.integers(-1, 4) | _SMALL_JSON,
    "amps": st.lists(st.fixed_dictionaries({
        "occ": st.lists(st.integers(-1, 4), max_size=4) | _SMALL_JSON, "c": _PAIR,
    }), max_size=3) | _SMALL_JSON,
}) | _SMALL_JSON


@settings(max_examples=200, deadline=None)
@given(_MULTIMODE, st.integers(-2, 3))
@example({"modes": 2, "amps": [{"occ": [1, 1], "c": [0.5, 0.0]}]}, 0)
@example({"modes": 1, "amps": [{"occ": [0], "c": [0.6, 0]}, {"occ": [2], "c": [0, 0.8]}]}, 3)
@example({"modes": 3, "amps": [{"occ": [0, 0, 0], "c": [1, 0]}]}, 1)
def test_multimode_never_leaks_a_traceback(descriptor, trials):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["multimode", json.dumps(descriptor), "--trials", str(trials)])
        except SystemExit as exc:  # argparse reads a negative number as an option
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith(("error: ", "usage: "))
        return
    payload = json.loads(out.getvalue())
    amps = [complex(*z) for z in payload["reduction_amplitudes"]]
    d_n = complex(*payload["d_n"])
    assert amps[payload["lower_bound"] - 1] == d_n
    assert payload["abs_d_n_sq"] == abs(d_n) ** 2
    # unitary[0] is the row the reduction read
    row = [complex(*z) for z in payload["unitary"][0]]
    core = multimode_from_descriptor(descriptor)
    assert reduction_amplitudes(core, [row])[0].tolist() == amps


def _readme_cli_lines():
    """Every `csrank ...` line of the README's CLI block, as an argv."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("csrank ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for argv in lines:  # in order: `bound --check cert.json` reads what the line before wrote
        assert main(argv) == 0, argv


def test_fit_command(capsys):
    code, payload = run_json(capsys, ["fit", '{"type":"fock","n":1}', "--r", "1",
                                      "--seed", "0", "--restarts", "6"])
    assert code == 0
    assert payload["fidelity_achieved"] == pytest.approx(math.exp(-1), abs=1e-8)
    restarts = payload["restarts"]
    assert len(restarts) == payload["restarts_used"] == 6
    assert set(restarts[0]) == {"nit", "converged", "fidelity"}
    best = max(restarts, key=lambda rep: rep["fidelity"])
    assert best["fidelity"] == pytest.approx(payload["fidelity_achieved"], abs=1e-12)


def test_only_fitting_imports_scipy_optimize():
    # fitting was once the one command to load scipy.optimize; now every r climbs
    # by csrank's own Newton steps, so no step of this script may load it
    code = (
        "import sys, io, contextlib\n"
        "from csrank.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['bound', '{\"type\":\"fock\",\"n\":2}', '--r', '1'])\n"
        "    main(['certify', '{\"type\":\"fock\",\"n\":2}', '--eps', '1e-3', '--n-max', '3'])\n"
        "print('scipy.optimize' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['fit', '{\"type\":\"fock\",\"n\":1}', '--r', '1', '--restarts', '1'])\n"
        "print('scipy.optimize' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['fit', '{\"type\":\"fock\",\"n\":1}', '--r', '2', '--restarts', '1'])\n"
        "print('scipy.optimize' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['fit', '{\"type\":\"fock\",\"n\":3}', '--r', '3', '--restarts', '2'])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(csrank.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False", "False", "False"]


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from csrank.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

tmp = sys.argv[1]
sq = '{"type":"squeezed","r":0.5}'
cat = '{"type":"superposition","terms":[{"c":[1,0],"alpha":[1,0]},{"c":[1,0],"alpha":[-1,0]}]}'
runs = [
    ["bound", sq, "--r", "2", "--method", "plain", "--out", tmp + "/plain.json"],
    ["bound", "--check", tmp + "/plain.json"],
    ["bound", sq, "--r", "2", "--out", tmp + "/optimized.json"],
    ["bound", "--check", tmp + "/optimized.json"],
    ["certify", sq, "--eps", "1e-6", "--n-max", "6"],
    ["figure", "--panel", "left", "--out", tmp + "/left.csv"],
    ["figure", "--panel", "right", "--out", tmp + "/right.csv"],
    ["decompose", '{"type":"fock","n":2}', "--delta", "0.1"],
    ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}'],
    ["permanent", "--n", "3", "--delta", "0.1", "--trials", "5"],
    ["fit", '{"type":"fock","n":1}', "--r", "1", "--restarts", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit:
        pass
    codes = [main(argv) for argv in runs]
print(codes, scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    main(["bound", cat, "--r", "1"])  # no cutoff: the summed Poisson tail picks one
print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    main(["fit", '{"type":"fock","n":1}', "--r", "2", "--restarts", "1"])
    main(["fit", '{"type":"fock","n":3}', "--r", "3", "--restarts", "2"])
print(scipy_modules())
"""


def test_commands_without_fits_or_poisson_tails_import_no_scipy(tmp_path):
    # the Poisson-tail bound and fits at r >= 2 once loaded scipy; now they load none either
    env = dict(os.environ, PYTHONPATH=str(Path(csrank.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"{[0] * 11} []", "[]", "[]"]


@pytest.mark.parametrize("delta", ["10", "20", "30", "100"])
def test_permanent_far_from_one_photon_names_delta_inf(capsys, delta):
    # (1 - w_1 / W) rounds to 1 here: delta_inf is exactly 1, not log1p(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["permanent", "--n", "2", "--delta", delta])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: superposition is too far from |1>^2 (delta_inf = 1.000)"
    )


@pytest.mark.parametrize("delta", ["30", "100"])
def test_decompose_past_the_double_range_names_delta(capsys, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["decompose", '{"type":"fock","n":1}', "--delta", delta])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: delta={delta} puts the circle coefficients past the double range: "
        "they scale as sqrt(k!) e^(delta^2/2) / delta^k\n"
    )


def test_non_finite_superposition_coefficient_exits_2(capsys):
    descriptor = '{"type":"superposition","terms":[{"c":[NaN,0],"alpha":[0.1,0]}]}'
    assert main(["bound", descriptor, "--r", "1"]) == 2
    assert capsys.readouterr().err == "error: c must be finite\n"


def test_decompose_command(capsys):
    code, payload = run_json(capsys, ["decompose", '{"type":"fock","n":1}',
                                      "--delta", "0.1"])
    assert code == 0
    assert len(payload["terms"]) == 2
    assert payload["infidelity"] < 1e-4


@pytest.mark.parametrize("argv, usable", [
    (["permanent", "--n", "3", "--delta", "1e-13"], "5.01e-13"),
    (["decompose", '{"type":"fock","n":1}', "--delta", "4e-13"], "5.01e-13"),
    (["decompose", '{"type":"fock","n":3}', "--delta", "7.07e-13"], "7.08e-13"),
])
def test_merging_circle_nodes_name_the_smallest_usable_delta(capsys, argv, usable):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: delta={argv[-1]} puts the ")
    assert err.endswith(f"of each other, where they merge; the smallest usable delta is {usable}\n")


def test_delta_just_above_the_merge_limit_keeps_every_node(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the ill-conditioning warning
        code, payload = run_json(capsys, ["decompose", '{"type":"fock","n":3}',
                                          "--delta", "7.08e-13"])
    assert code == 0
    assert len(payload["terms"]) == 4


def test_multimode_command(capsys):
    code, payload = run_json(
        capsys,
        ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}', "--seed", "0"],
    )
    assert code == 0
    assert payload["lower_bound"] == 3
    assert payload["abs_d_n_sq"] == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("occ", [[13], [1] * 7], ids=["13-bosons", "7-modes"])
def test_multimode_past_the_desk_scale_exits_4(capsys, occ):
    descriptor = {"modes": len(occ), "amps": [{"occ": occ, "c": [1, 0]}]}
    assert main(["multimode", json.dumps(descriptor)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_multimode_one_mode_core_below_the_floor_exits_3(capsys):
    # Every row gives a one-mode core the same |d_n|, so another seed cannot help.
    descriptor = '{"modes":1,"amps":[{"occ":[0],"c":[0.9,0]},{"occ":[2],"c":[1e-15,0]}]}'
    assert main(["multimode", descriptor, "--seed", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the top-sector amplitude 1.000e-15 of a one-mode core")
    assert "no seed can help" in err and "retry" not in err


def test_permanent_command_rows_satisfy_bound(tmp_path):
    out = tmp_path / "per.csv"
    code = main(["permanent", "--n", "2", "--delta", "0.2", "--trials", "5",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 5
    for row in rows:
        assert float(row["error"]) <= float(row["bound"]) + 1e-9
    manifest = json.loads((tmp_path / "per.csv.manifest.json").read_text())
    assert manifest["command"] == "permanent"
    # the odd cat has no even-occupation weight, so all its infidelity is tail
    assert manifest["tail_weight"] == pytest.approx(manifest["delta_inf"], rel=1e-12)
    assert manifest["max_error"] == max(float(row["error"]) for row in rows)


@pytest.mark.parametrize("n, trials", [(7, 100), (8, 100), (12, 2)])
def test_permanent_past_the_gram_limit_satisfies_the_bound(capsys, n, trials):
    assert main(["permanent", "--n", str(n), "--delta", "0.1", "--trials", str(trials)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == trials
    for row in rows:
        assert float(row["error"]) <= float(row["bound"])


_DELTA_ARGS = st.sampled_from(["x", "", "0", "-0.2", "-1e-3", "nan", "inf", "-inf",
                               "1e-300", "1e-20", "30", "100"]) | st.floats(1e-3, 1.5).map(repr)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 18), _DELTA_ARGS, st.integers(1, 3))
@example(16, "1e-20", 1)  # the two terms would merge: refused
@example(16, "1.3", 1)  # delta_inf > 0.5
@example(8, "0.1", 1)
def test_permanent_flags_never_leak_a_traceback(n, delta, trials):
    out, err = io.StringIO(), io.StringIO()
    argv = ["permanent", "--n", str(n), "--delta", delta, "--trials", str(trials)]
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "circle decomposition at delta=.* is severely "
                                "ill conditioned", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a junk number
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert len(rows) == trials
        for row in rows:
            values = [float(v) for v in row.values()]
            assert all(math.isfinite(v) for v in values)
            assert float(row["error"]) <= float(row["bound"]) + 1e-9
    else:
        assert err.getvalue().startswith(("error: ", "usage: "))


def test_figure_right_endpoints(tmp_path):
    out = tmp_path / "right.csv"
    assert main(["figure", "--panel", "right", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    first, last = rows[0], rows[-1]
    assert float(first["plain_bound"]) == pytest.approx(0.125, rel=1e-9)
    assert float(first["optimized_bound"]) == pytest.approx(0.25, rel=1e-6)
    assert 1e-5 <= float(last["optimized_bound"]) <= 1e-3


def test_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["permanent", "--n", "3", "--delta", "0.3", "--trials", "4", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    for m in (ma, mb):  # only timestamps and output paths may differ
        m.pop("wall_clock_s")
        m.pop("out")
        m["flags"].pop("out")
    assert ma == mb


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "plain"],
        ["bound", '{"type":"fock","n":2}', "--r", "2"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "analytic"],
        ["certify", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[0.5,0]}]}',
         "--eps", "0.5"],
    ],
    ids=["plain", "optimized", "analytic", "certify-r0"],
)
def test_certificate_check_roundtrip(tmp_path, capsys, argv):
    cert_path = tmp_path / "cert.json"
    assert main(argv + ["--out", str(cert_path)]) == 0
    assert main(["bound", "--check", str(cert_path)]) == 0
    assert capsys.readouterr().out.startswith("certificate OK")

    tampered = json.loads(cert_path.read_text())
    if tampered["r"] == 0:  # nothing certified: the threshold is 0 and has no N
        assert tampered["epsilon_threshold"] == 0.0
        assert tampered["parameters"] == {"N": None, "b": None}
        return
    tampered["epsilon_threshold"] *= 1.5
    cert_path.write_text(json.dumps(tampered))
    assert main(["bound", "--check", str(cert_path)]) == 3


def test_analytic_bound_on_a_non_fock_state_names_the_rule(capsys):
    assert main(["bound", '{"type":"squeezed","r":0.5}', "--r", "2", "--method", "analytic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Fock-state descriptors only" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", '{"type":"fock","n":1}', "--r", "1", "--method", "plain", "--n-max", "1024"],
        ["bound", '{"type":"fock","n":1}', "--r", "1", "--n-max", "1024"],
        ["certify", '{"type":"squeezed","r":0.5}', "--eps", "0.1", "--n-max", "1024"],
        ["bound", "--check", dict(CERT, parameters={"N": 1024, "b": 1.0})],
    ],
    ids=["bound-plain", "bound-optimized", "certify", "check"],
)
def test_hankel_past_one_svd_block_exits_4(capsys, tmp_path, argv):
    assert MAX_HANKEL_N == 1023
    path = tmp_path / "cert.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    argv = [str(path) if isinstance(arg, dict) else arg for arg in argv]
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 5.0  # refused before any matrix is built
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(MAX_HANKEL_N) in err


def test_certify_certificate_checks_too(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["certify", '{"type":"fock","n":2,"cutoff":12}', "--eps", "1e-4",
                 "--n-max", "6", "--out", str(cert_path)]) == 0
    assert main(["certify", "--check", str(cert_path)]) == 0


# A certificate as written before the unused "rank_tol" field was dropped.
OLD_CERTIFICATE = {
    "epsilon_threshold": 0.22360679770341038,
    "method": "optimized",
    "parameters": {"N": 3, "b": 0.5779482574500846},
    "r": 2,
    "rank_tol": 1e-10,
    "state_descriptor": {"cutoff": 8, "n": 3, "type": "fock"},
    "statement": "any eps < epsilon_threshold implies kappa_eps(state) > r",
    "version": "0.1.0",
}


def test_check_accepts_certificate_with_rank_tol(tmp_path, capsys):
    cert_path = tmp_path / "old.json"
    cert_path.write_text(json.dumps(OLD_CERTIFICATE))
    assert main(["bound", "--check", str(cert_path)]) == 0
    assert capsys.readouterr().out.startswith("certificate OK")


def test_new_certificates_omit_rank_tol(capsys):
    code, payload = run_json(capsys, ["bound", '{"type":"fock","n":3,"cutoff":8}',
                                      "--r", "2", "--n-max", "4"])
    assert code == 0
    assert "rank_tol" not in payload
    # the kink of max(1, 6! b^12) gives 12 b^6 / 2 = sqrt(5)/10; the stored
    # certificate's threshold is the golden-section point 2.1e-10 below it
    exact = math.sqrt(5.0) / 10.0
    assert abs(payload["epsilon_threshold"] - exact) <= 1e-15 * exact
    assert payload["epsilon_threshold"] > OLD_CERTIFICATE["epsilon_threshold"]
