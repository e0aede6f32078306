import csv
import hashlib
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
from csrank import hankel
from csrank.certify import fock_analytic_threshold
from csrank.cli import build_parser, main
from csrank.decomp import MAX_CIRCLE_NODES, MAX_RESTARTS, fit_superposition
from csrank.fock import MAX_CUTOFF, fock_state, state_from_descriptor
from csrank.hankel import (
    MAX_HANKEL_N,
    plain_bound,
    rescaled_bound,
)
from csrank.multimode import (
    multimode_from_descriptor,
    multimode_lower_bound,
    reduction_amplitudes,
)
from csrank.permanent import MAX_TRIALS, verify_permanent_bound


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


def test_n_max_defaults_to_10_for_certify_and_max_r_10_for_bound(capsys):
    # cli.py alone holds these defaults: no library function has one
    squeezed = '{"type":"squeezed","r":0.5}'
    code, payload = run_json(capsys, ["certify", squeezed, "--eps", "1e-30"])
    assert code == 0
    assert (payload["r"], payload["parameters"]["N"]) == (10, 10)
    code, payload = run_json(capsys, ["bound", squeezed, "--r", "12"])
    assert code == 0
    assert payload["parameters"]["N"] == 12


def test_plain_and_optimized_refuse_a_short_cutoff_alike(capsys, monkeypatch):
    # bound's default --n-max is max(r, 10), so cutoff 14 holds no H_10
    built = []
    entries = hankel._entries
    monkeypatch.setattr(hankel, "_entries", lambda *args: built.append(args) or entries(*args))
    errors = []
    for method in ("plain", "optimized"):
        assert main(["bound", '{"type":"fock","n":6,"cutoff":14}', "--r", "6",
                     "--method", method]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: cutoff 14 too small for N_max 10\n"] * 2
    assert built == []  # refused before any Hankel matrix is built


@pytest.mark.parametrize("method", ["plain", "optimized", "analytic"])
def test_negative_r_names_r_for_every_method(capsys, method):
    assert main(["bound", '{"type":"fock","n":2}', "--r", "-1", "--method", method]) == 2
    assert capsys.readouterr().err == "error: r must be non-negative\n"


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


# The fields a certificate cannot be read without.
_CERT_FIELDS = ("state_descriptor", "r", "epsilon_threshold", "method")
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
                       "superposition-merged-overflow": "c must be finite",
                       "check-plain-b-5": "method plain stores b = 1",
                       "check-analytic-N-99-b-negative": "method analytic_fock stores b = 1",
                       "check-analytic-N-99": "stated at r = n = N",
                       "check-r0-b-without-N": "N and b are stored together",
                       "check-statement-5": "statement must read",
                       "check-version-5": "version be a string",
                       "analytic-cutoff-below-n": "n=3 exceeds cutoff=2",
                       "analytic-negative-cutoff": "n=3 exceeds cutoff=-5",
                       "analytic-string-cutoff": "cutoff",
                       "analytic-negative-n-max": "needs N >= max(r, 1) = 2, past N_max=-1",
                       "analytic-n-max-below-r": "needs N >= max(r, 1) = 2, past N_max=1",
                       **{f"check-missing-{field}": f"certificate has no field '{field}'"
                          for field in _CERT_FIELDS},
                       "check-empty": "certificate has no field 'state_descriptor'",
                       "check-N-past-cutoff": "cutoff 2 too small for N_max 3",
                       "check-negative-r": "r must be non-negative",
                       "bound-without-r": "--r is required",
                       "bound-without-state": "a state descriptor is required",
                       "superposition-cancelling-pair": "terms cancel below rounding: "
                                                        "squared norm 0 <=",
                       "fit-cutoff-drops-the-norm": "the cutoff drops more than 1e-6 of the "
                                                    "state's norm (kept 0.689495)",
                       "squeezed-400-digit-r": f"r={10**399} is out of range"}


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
        ["bound", "--check", dict(CERT, parameters={"N": 1, "b": 5.0})],
        ["bound", "--check", dict(ANALYTIC_CERT, parameters={"N": 99, "b": -7.0})],
        ["bound", "--check", dict(ANALYTIC_CERT, parameters={"N": 99, "b": 1.0})],
        ["bound", "--check", dict(OPT_CERT, r=0, epsilon_threshold=0.0,
                                  parameters={"N": None, "b": 3.0})],
        ["bound", "--check", dict(CERT, statement=5)],
        ["bound", "--check", dict(CERT, version=5)],
        ["bound", '{"type":"fock","n":3,"cutoff":2}', "--r", "3", "--method", "analytic"],
        ["bound", '{"type":"fock","n":3,"cutoff":-5}', "--r", "3", "--method", "analytic"],
        ["bound", '{"type":"fock","n":3,"cutoff":"x"}', "--r", "3", "--method", "analytic"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "analytic", "--n-max", "-1"],
        ["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "analytic", "--n-max", "1"],
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
        *(["bound", "--check", {k: v for k, v in CERT.items() if k != field}]
          for field in _CERT_FIELDS),
        ["bound", "--check", {}],
        ["bound", "--check", dict(CERT, state_descriptor=dict(FOCK1, cutoff=2),
                                  parameters={"N": 3, "b": 1.0})],
        ["bound", "--check", dict(CERT, r=-1)],
        ["bound", '{"type":"fock","n":1}'],
        ["bound"],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[0.5,0]},'
                  '{"c":[-1,0],"alpha":[0.500000001,0]}]}', "--r", "1"],
        ["fit", '{"type":"squeezed","r":2,"cutoff":4}', "--r", "1"],
        ["bound", f'{{"type":"squeezed","r":{10**399}}}', "--r", "1"],
    ],
    ids=["core-scalar-amps", "superposition-scalar-c", "multimode-scalar-c", "squeezed-huge-r",
         "fock-list-n", "core-scalar-amps-field", "squeezed-list-r", "fock-string-cutoff",
         "fock-fractional-n", "superposition-scalar-term", "squeezed-negative-cutoff",
         "multimode-scalar-occ", "multimode-repeated-occ",
         "check-list-r", "check-top-level-list", "check-list-parameters", "check-missing-N",
         "check-analytic-r-above-n", "check-analytic-no-N", "check-analytic-squeezed", "check-method-weighted",
         "check-method-list", "check-infinite-threshold", "check-negative-N",
         "check-plain-b-5", "check-analytic-N-99-b-negative", "check-analytic-N-99",
         "check-r0-b-without-N", "check-statement-5", "check-version-5",
         "analytic-cutoff-below-n", "analytic-negative-cutoff", "analytic-string-cutoff",
         "analytic-negative-n-max", "analytic-n-max-below-r",
         "superposition-huge-c", "superposition-huge-norm", "superposition-merged-overflow",
         "certify-negative-n-max", "bound-r0-n-max-0", "bound-plain-r0-n-max-0",
         "bound-eps-negative", "bound-eps-nan", "bound-eps-one",
         *(f"check-missing-{field}" for field in _CERT_FIELDS), "check-empty",
         "check-N-past-cutoff", "check-negative-r", "bound-without-r", "bound-without-state",
         "superposition-cancelling-pair", "fit-cutoff-drops-the-norm", "squeezed-400-digit-r"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", '{"type":"fock","n":2}', "--r", "1", "--seed", "-1"],
        ["fit", '{"type":"fock","n":2}', "--r", "2", "--seed", "-1"],
        ["permanent", "--n", "4", "--delta", "0.1", "--trials", "2", "--seed", "-1"],
        ["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}', "--seed", "-3"],
    ],
    ids=["fit-r1", "fit-r2", "permanent", "multimode"],
)
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: argument --seed: must be non-negative, got {argv[-1]}" in err
    assert not out.exists()


def test_non_integer_seed_is_a_usage_error_naming_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", '{"type":"fock","n":1}', "--r", "1", "--seed", "x"])
    assert exc.value.code == 2
    assert "error: argument --seed: invalid int value: 'x'" in capsys.readouterr().err


def test_resource_limit_exits_4(capsys):
    assert main(["permanent", "--n", "17", "--delta", "0.2", "--trials", "1"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", '{"type":"fock","n":1}', "--r", "1", "--max-iters", "0"],
        ["permanent", "--n", "2", "--delta", "0.2", "--trials", "0"],
        ["permanent", "--n", "2", "--delta", "0.2", "--trials", "-2"],
    ],
    ids=["fit-max-iters-0", "permanent-trials-0", "permanent-trials-negative"],
)
def test_malformed_counts_exit_2(capsys, tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_multimode_has_no_trials_option(capsys):
    # the candidate set is fixed: the uniform row and multimode.TRIALS Gaussian rows
    with pytest.raises(SystemExit) as exc:
        main(["multimode", '{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}', "--trials", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", '{"type":"fock","n":1,"cutoff":%d}' % (MAX_CUTOFF + 1), "--r", "1"],
        ["bound", '{"type":"fock","n":%d}' % (MAX_CUTOFF + 1), "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[1e300,0]}]}',
         "--r", "1"],
        ["bound", '{"type":"squeezed","r":4.6}', "--r", "1"],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[316,0]}]}',
         "--r", "1"],
    ],
    ids=["explicit-cutoff", "fock-n", "huge-alpha", "squeezed-auto-cutoff",
         "coherent-auto-cutoff"],
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


_WIDE_COUNT = st.integers(-3, 12) | st.sampled_from([10**400, -10**400])


@settings(max_examples=200, deadline=None)
@given(_DESCRIPTORS, _WIDE_COUNT, _WIDE_COUNT, st.sampled_from(["plain", "optimized", "analytic"]))
@example({"type": "fock", "n": 2}, 1, 2, "plain")
@example({"type": "squeezed", "r": 0.5}, 1, 2, "optimized")
@example({"type": "fock", "n": 2}, 10**400, 3, "plain")
@example({"type": "fock", "n": 2}, 2, 10**400, "optimized")
@example({"type": "fock", "n": 2}, 2, -10**400, "analytic")
def test_cli_never_leaks_a_traceback(descriptor, r, n_max, method):
    # the optimized search at N = 1, 2 divides by tails and sigma in its secant
    state = json.dumps(descriptor)
    for argv in (["bound", state, "--r", str(r), "--method", method, "--n-max", str(n_max)],
                 ["certify", state, "--eps", "0.1", "--n-max", str(n_max)]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
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
@example(CERT)
@example(ANALYTIC_CERT)
@example(dict(OPT_CERT, r=0, epsilon_threshold=0.0, parameters={"N": None, "b": None}))
@example(dict(CERT, parameters={"N": 1, "b": 5.0}))
@example(dict(ANALYTIC_CERT, parameters={"N": 99, "b": -7.0}))
@example(dict(OPT_CERT, r=0, epsilon_threshold=0.0, parameters={"N": None, "b": 3.0}))
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
    if code == 0:  # an accepted record holds the (N, b) its method writes
        params = certificate.get("parameters") or {}
        n, b = params.get("N"), params.get("b")
        assert (n is None) == (b is None)
        if certificate["method"] == "plain":
            assert b == 1
        if certificate["method"] == "analytic_fock":
            assert (n, b) == (certificate["r"], 1)


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
@given(_MULTIMODE, st.integers(0, 3) | st.sampled_from([10**400, -10**400]))
@example({"modes": 2, "amps": [{"occ": [1, 1], "c": [0.5, 0.0]}]}, 0)
@example({"modes": 1, "amps": [{"occ": [0], "c": [0.6, 0]}, {"occ": [2], "c": [0, 0.8]}]}, 3)
@example({"modes": 3, "amps": [{"occ": [0, 0, 0], "c": [1, 0]}]}, 1)
def test_multimode_never_leaks_a_traceback(descriptor, seed):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["multimode", json.dumps(descriptor), "--seed", str(seed)])
        except SystemExit as exc:  # argparse reads a state such as "-Infinity" as an option
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


def test_fit_without_a_seed_records_the_seed_that_reproduces_it(capsys):
    argv = ["fit", '{"type":"fock","n":3}', "--r", "2", "--restarts", "3"]
    code, first = run_json(capsys, argv)
    seed = first["manifest"]["seed"]
    assert code == 0 and isinstance(seed, int) and first["manifest"]["flags"]["seed"] == seed
    code, again = run_json(capsys, argv + ["--seed", str(seed)])
    assert code == 0
    for payload in (first, again):  # only the wall clock may differ
        payload["manifest"].pop("wall_clock_s")
    assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)


def test_cli_defaults_are_pinned_and_agree_with_the_library(tmp_path, capsys):
    # the library takes every run setting from its caller; only the CLI has defaults
    fit_state = '{"type":"fock","n":1}'
    code, fit = run_json(capsys, ["fit", fit_state, "--r", "1", "--seed", "0"])
    assert code == 0
    assert (fit["manifest"]["flags"]["restarts"], fit["manifest"]["flags"]["max_iters"]) == (
        16, 4000)
    want = fit_superposition(state_from_descriptor(json.loads(fit_state)), 1, 16, 0, 4000)
    assert [(complex(*t["c"]), complex(*t["alpha"])) for t in fit["terms"]] == [
        (t.c, t.alpha) for t in want.superposition.terms]

    out = tmp_path / "per.csv"
    assert main(["permanent", "--n", "4", "--delta", "0.1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "per.csv.manifest.json").read_text())
    assert (manifest["flags"]["trials"], manifest["flags"]["seed"]) == (100, 0)
    rows = [(int(row["trial"]), int(row["seed"]), float(row["abs_permanent"]),
             float(row["abs_formula"]), float(row["error"])) for row in csv.DictReader(out.open())]
    assert rows == list(verify_permanent_bound(4, 0.1, 100, 0).trials)

    # the README example, and a core whose bunching row depends on the seed
    for descriptor in ('{"modes":2,"amps":[{"occ":[1,1],"c":[1,0]}]}',
                       '{"modes":2,"amps":[{"occ":[2,1],"c":[1,0]}]}'):
        code, payload = run_json(capsys, ["multimode", descriptor])
        assert code == 0 and payload["manifest"]["flags"]["seed"] == 0
        report = multimode_lower_bound(multimode_from_descriptor(json.loads(descriptor)), 0)
        assert payload["unitary"] == [[[z.real, z.imag] for z in row]
                                      for row in report.unitary.tolist()]


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


@pytest.mark.parametrize("delta", ["30", "100", "1e+300"])
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
        assert float(row["error"]) <= float(row["bound"])
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


# Half the drawn floats fall where the bridge runs (delta_inf <= 0.5 below 1.49).
_DELTA_ARGS = st.sampled_from(["x", "", "0", "-0.2", "-1e-3", "nan", "inf", "-inf",
                               "1e-300", "1e-20", "30", "100", "1e3"]) | (
    st.floats(1e-3, 1.5) | st.floats(1.5, 1e3)).map(repr)
_HUGE = 10**400
# Trials that finish fast: at most 3, or past the cap, which is refused unrun.
_TRIALS = st.integers(1, 3) | st.integers(-_HUGE, 0) | st.integers(MAX_TRIALS + 1, _HUGE)


@settings(max_examples=500, deadline=None)
@given(st.integers(-2, 18) | st.integers(-_HUGE, _HUGE), _DELTA_ARGS, _TRIALS,
       st.integers(0, 3) | st.integers(-_HUGE, _HUGE))
@example(16, "1e-20", 1, 0)  # the two terms would merge: refused
@example(16, "1.3", 1, 0)  # delta_inf > 0.5
@example(8, "0.1", 1, 0)
@example(4, "0.1", _HUGE, 0)  # refused before any row is kept
@example(4, "0.1", MAX_TRIALS + 1, 0)
@example(4, "0.1", 2, _HUGE)
def test_permanent_flags_never_leak_a_traceback(n, delta, trials, seed):
    out, err = io.StringIO(), io.StringIO()
    argv = ["permanent", "--n", str(n), "--delta", delta, "--trials", str(trials),
            "--seed", str(seed)]
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
    if trials > MAX_TRIALS and 1 <= n <= 16 and not err.getvalue().startswith("usage: "):
        assert code == 4  # refused before the delta is read
    if code == 0:
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert len(rows) == trials
        for row in rows:
            assert int(row["seed"]) == seed + int(row["trial"])  # exact past 2^53 too
            values = [float(row[k]) for k in ("abs_permanent", "abs_formula", "error", "bound")]
            assert all(math.isfinite(v) for v in values)
            assert float(row["error"]) <= float(row["bound"])
    else:
        assert err.getvalue().startswith(("error: ", "usage: "))


# Fits that finish fast: r and restarts at most 2, or past a cap, refused unrun;
# no working cutoff exceeds MAX_CUTOFF, so r = MAX_CUTOFF + 2 is always past it.
_FIT_R = st.integers(1, 2) | st.integers(-_HUGE, 0) | st.integers(MAX_CUTOFF + 2, _HUGE)
_FIT_RESTARTS = st.integers(1, 2) | st.integers(-_HUGE, 0) | st.integers(MAX_RESTARTS + 1, _HUGE)


@settings(max_examples=200, deadline=None)
@given(_FIT_R, _FIT_RESTARTS)
@example(100_000, 16)  # once an allocation failure past the memory limit
@example(2, 100_000_000)  # once a 100-million-start loop
@example(71, 1)  # past fock n = 2's working cutoff 69 + 1
@example(62, 16)  # more than MAX_STEP_ENTRIES in one Newton step
def test_fit_flags_never_leak_a_traceback(r, restarts):
    out, err = io.StringIO(), io.StringIO()
    argv = ["fit", '{"type":"fock","n":2}', "--r", str(r), "--restarts", str(restarts),
            "--seed", "0", "--max-iters", "20"]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if r < 1 or restarts < 1:
        assert code == 2
    elif r > 2 or restarts > 2:
        assert code == 4 and err.getvalue().startswith("error: ")
    else:
        assert code == 0 and len(json.loads(out.getvalue())["terms"]) == r


@settings(max_examples=200, deadline=None)
@given(_DESCRIPTORS, _DELTA_ARGS)
@example({"type": "fock", "n": 1}, "1e+300")  # coefficients past the double range
@example({"type": "fock", "n": 3}, "1e-20")  # the nodes would merge
@example({"type": "fock", "n": 2}, "1e-4")  # ill conditioned, still solved
@example({"type": "core", "amps": [[0, 0], [0, 0]]}, "0.1")  # no nonzero amplitude
@example({"type": "squeezed", "r": 4}, "0.5")  # 37,891 nodes: refused unbuilt
# kept amplitudes of |28i> and |20i> whose squares, or the product of norms, underflow
@example({"type": "superposition", "terms": [{"c": [0, 1], "alpha": [0, 28]}], "cutoff": 1}, "1.0")
@example({"type": "superposition", "terms": [{"c": [0, 1], "alpha": [0, 20]}], "cutoff": 0},
         "1e-300")
def test_decompose_never_leaks_a_traceback(descriptor, delta):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "circle decomposition at delta=.* is severely "
                                "ill conditioned", RuntimeWarning)
        try:
            code = main(["decompose", json.dumps(descriptor), "--delta", delta])
        except SystemExit as exc:  # argparse refuses a junk number
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith(("error: ", "usage: "))


def test_decompose_past_the_node_cap_exits_4(capsys):
    # squeezing r = 4 occupies Fock levels up to 37,890: a system of 1.4e9 entries
    start = time.perf_counter()
    assert main(["decompose", '{"type":"squeezed","r":4}', "--delta", "0.5"]) == 4
    assert time.perf_counter() - start < 5.0  # refused before the system is built
    assert capsys.readouterr().err == (f"error: a circle decomposition takes at most "
                                       f"{MAX_CIRCLE_NODES} nodes, got 37891 for highest "
                                       "occupation 37890\n")
    n = MAX_CIRCLE_NODES - 1  # the largest core it takes
    code, payload = run_json(capsys, ["decompose", '{"type":"fock","n":%d}' % n,
                                      "--delta", "30"])
    assert code == 0 and len(payload["terms"]) == MAX_CIRCLE_NODES


def test_figure_right_endpoints(tmp_path):
    out = tmp_path / "right.csv"
    assert main(["figure", "--panel", "right", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    first, last = rows[0], rows[-1]
    assert float(first["plain_bound"]) == pytest.approx(0.125, rel=1e-9)
    assert float(first["optimized_bound"]) == pytest.approx(0.25, rel=1e-6)
    assert 1e-5 <= float(last["optimized_bound"]) <= 1e-3


FIGURE_SHA256 = {  # recorded when each panel still built its states in the CLI
    "left": "9243919b0f164d65c1862c9888fd651dc400061e2b61d089de1b3c0ea05a3f45",
    "right": "c65ca4ec2547f6f21b1fa791fe28f0201d578235651e006e4892cecde2537bf6",
}


@pytest.mark.parametrize("panel", list(FIGURE_SHA256))
def test_figure_csvs_keep_their_bytes(tmp_path, panel):
    out = tmp_path / f"{panel}.csv"
    assert main(["figure", "--panel", panel, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[panel]


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


@pytest.mark.parametrize(
    "argv, scale, code, verdict",
    [
        (["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "plain"], 1 + 1e-13, 0, "OK"),
        (["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "plain"], 1 + 1e-11, 3,
         "MISMATCH"),
        # r = 0 stores 0 and re-derives 0, which no scale moves
        (["certify", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[0.5,0]}]}',
          "--eps", "0.5"], 1 + 1e-11, 0, "OK"),
    ],
    ids=["within-1e-12", "past-1e-12", "r0"],
)
def test_check_matches_within_a_relative_1e_12(tmp_path, capsys, argv, scale, code, verdict):
    cert_path = tmp_path / "cert.json"
    assert main(argv + ["--out", str(cert_path)]) == 0
    stored = json.loads(cert_path.read_text())
    stored["epsilon_threshold"] *= scale
    cert_path.write_text(json.dumps(stored))
    capsys.readouterr()
    assert main(["bound", "--check", str(cert_path)]) == code
    assert capsys.readouterr().out.startswith(f"certificate {verdict}: ")


def test_an_off_norm_superposition_certificate_over_claims_and_fails_its_check(tmp_path, capsys):
    # the threshold of |0.5> + |-0.5> taken as its raw vector, of squared norm 3.213,
    # as certificates stored it before a superposition named its unit vector
    cat = {"type": "superposition", "terms": [{"c": [1, 0], "alpha": [0.5, 0]},
                                              {"c": [1, 0], "alpha": [-0.5, 0]}]}
    code, payload = run_json(capsys, ["certify", json.dumps(cat), "--eps", "0.04", "--n-max", "6"])
    assert (code, payload["kappa_eps_at_least"]) == (0, 1)
    stored = {"state_descriptor": cat, "r": 1, "epsilon_threshold": 0.048675048941962784,
              "method": "optimized", "parameters": {"N": 1, "b": 1.0}}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(stored))
    assert main(["bound", "--check", str(path)]) == 3
    assert capsys.readouterr().out.startswith("certificate MISMATCH: ")


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
        # an --n-max whose 2 n_max cutoff is past MAX_CUTOFF
        ["bound", '{"type":"fock","n":1}', "--r", "1", "--n-max", str(MAX_CUTOFF // 2 + 1)],
        ["certify", '{"type":"squeezed","r":0.5}', "--eps", "0.1",
         "--n-max", str(MAX_CUTOFF // 2 + 1)],
        # below it, where a state of cutoff 2 n_max used to be built first
        ["certify", '{"type":"squeezed","r":0.5}', "--eps", "0.1", "--n-max", "40000"],
        ["bound", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[1,0]}]}', "--r", "1",
         "--n-max", "49000"],
    ],
    ids=["bound-plain", "bound-optimized", "certify", "check", "bound-n-max", "certify-n-max",
         "certify-n-max-40000", "bound-n-max-49000"],
)
def test_hankel_past_one_svd_block_exits_4(capsys, tmp_path, monkeypatch, argv):
    assert MAX_HANKEL_N == 1023
    built = []

    def recording(*args):
        built.append(args)
        return state_from_descriptor(*args)

    monkeypatch.setattr("csrank.certify.state_from_descriptor", recording)
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
    assert built == []  # refused before any state is built


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


# Certificates as `bound` (plain, optimized, analytic at r = 2 on |2>) and
# `certify` (at r = 0) wrote them while each method's certificate was still
# built in the CLI, manifest removed.
_STATEMENT = "any eps < epsilon_threshold implies kappa_eps(state) > r"
PINNED_CERTIFICATES = {
    "plain": (["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "plain"], {
        "epsilon_threshold": 0.013888888888888888, "method": "plain",
        "parameters": {"N": 2, "b": 1.0}, "r": 2, "state_descriptor": {"n": 2, "type": "fock"},
        "statement": _STATEMENT, "version": "0.1.0"}),
    "optimized": (["bound", '{"type":"fock","n":2}', "--r", "2"], {
        "epsilon_threshold": 0.16666666666666669, "method": "optimized",
        "parameters": {"N": 2, "b": 0.7071067811865475}, "r": 2,
        "state_descriptor": {"n": 2, "type": "fock"}, "statement": _STATEMENT,
        "version": "0.1.0"}),
    "analytic": (["bound", '{"type":"fock","n":2}', "--r", "2", "--method", "analytic"], {
        "epsilon_threshold": 0.013888888888888888, "method": "analytic_fock",
        "parameters": {"N": 2, "b": 1.0}, "r": 2, "state_descriptor": {"n": 2, "type": "fock"},
        "statement": _STATEMENT, "version": "0.1.0"}),
    "certify-r0": (["certify", '{"type":"superposition","terms":[{"c":[1,0],"alpha":[0.5,0]}]}',
                    "--eps", "0.5"], {
        "epsilon": 0.5, "epsilon_threshold": 0.0, "kappa_eps_at_least": 1, "method": "optimized",
        "parameters": {"N": None, "b": None}, "r": 0,
        "state_descriptor": {"terms": [{"alpha": [0.5, 0], "c": [1, 0]}], "type": "superposition"},
        "statement": _STATEMENT, "version": "0.1.0"}),
}


@pytest.mark.parametrize("name", list(PINNED_CERTIFICATES))
def test_certificates_keep_their_bytes(tmp_path, capsys, name):
    # OLD_CERTIFICATE re-checks in test_check_accepts_certificate_with_rank_tol
    argv, pinned = PINNED_CERTIFICATES[name]
    path = tmp_path / "cert.json"
    assert main(argv + ["--out", str(path)]) == 0
    written = json.loads(path.read_text())
    del written["manifest"]
    assert json.dumps(written, indent=2, sort_keys=True) == json.dumps(pinned, indent=2,
                                                                        sort_keys=True)
    path.write_text(json.dumps(pinned))
    capsys.readouterr()
    assert main(["bound", "--check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("certificate OK")


# `multimode` payloads, manifest removed, as it wrote them while `--trials` was
# still a flag (at its default of 64): the README example and six cores of the
# bridge workload's ones, tensor and core forms at 2-4 modes, at their seeds.
PINNED_MULTIMODE = {
    "readme": (
        {"amps": [{"c": [1, 0], "occ": [1, 1]}], "modes": 2},
        [],
        {"abs_d_n_sq": 0.5000000000000001,
         "d_n": [0.7071067811865476, 0.0],
         "hankel_threshold": 0.006944444444444444,
         "lower_bound": 3,
         "reduction_amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]],
         "unitary": [[[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                     [[0.7071067811865475, 0.0], [-0.7071067811865475, 0.0]]]}),
    "ones-2": (
        {"amps": [{"c": [1.0, 0.0], "occ": [1, 1]}], "modes": 2},
        ["--seed", "1866217508"],
        {"abs_d_n_sq": 0.5000000000000001,
         "d_n": [0.7071067811865476, 0.0],
         "hankel_threshold": 0.006944444444444444,
         "lower_bound": 3,
         "reduction_amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]],
         "unitary": [[[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                     [[0.7071067811865475, 0.0], [-0.7071067811865475, 0.0]]]}),
    "ones-4": (
        {"amps": [{"c": [1.0, 0.0], "occ": [1, 1, 1, 1]}], "modes": 4},
        ["--seed", "248819508"],
        {"abs_d_n_sq": 0.09375000000000001,
         "d_n": [0.3061862178478973, 0.0],
         "hankel_threshold": 5.580357142857145e-06,
         "lower_bound": 5,
         "reduction_amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                  [0.3061862178478973, 0.0]],
         "unitary": [[[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                     [[0.8660254037844388, 0.0], [-0.2886751345948129, 0.0],
                      [-0.2886751345948129, 0.0], [-0.2886751345948129, 0.0]],
                     [[1.1792433787234476e-17, 0.0], [0.8164965809277259, 0.0],
                      [-0.40824829046386296, 0.0], [-0.40824829046386296, 0.0]],
                     [[-1.1408696328308086e-17, 0.0], [1.783469463991585e-17, 0.0],
                      [0.7071067811865475, 0.0], [-0.7071067811865476, 0.0]]]}),
    "tensor-3": (
        {"amps": [{"c": [1.0, 0.0], "occ": [1, 2, 1]}], "modes": 3},
        ["--seed", "563313609"],
        {"abs_d_n_sq": 0.18720096774513204,
         "d_n": [-0.43160769157483136, -0.03026166417395546],
         "hankel_threshold": 1.1142914746734058e-05,
         "lower_bound": 5,
         "reduction_amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                  [-0.43160769157483136, -0.03026166417395546]],
         "unitary": [[[0.42393260187763293, 0.2771912880252953],
                      [0.019881678048647405, -0.6967777697526828],
                      [0.42831627560868724, -0.2722072104358893]],
                     [[0.8622332276757478, -5.4108459556276746e-18],
                      [0.21422537433194963, 0.34897500020877614],
                      [-0.12308011622435445, 0.2715310006310181]],
                     [[-1.6030869864476783e-17, -6.977377407630687e-18],
                      [-0.32974020410446503, 0.4875456845006565],
                      [0.8084371362832932, 1.4046231666168463e-17]]]}),
    "tensor-4": (
        {"amps": [{"c": [1.0, 0.0], "occ": [0, 3, 1, 1]}], "modes": 4},
        ["--seed", "1316414565"],
        {"abs_d_n_sq": 0.1007652232226061,
         "d_n": [-0.047511683701956554, -0.3138596232942545],
         "hankel_threshold": 2.7768194230215506e-07,
         "lower_bound": 6,
         "reduction_amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                  [-0.047511683701956554, -0.3138596232942545]],
         "unitary": [[[0.0849888962056721, 0.22999649979755857],
                      [0.15900254963265842, 0.6503087060491012],
                      [0.09485029826029585, -0.41224406129357405],
                      [-0.188086887897214, 0.526665786907527]],
                     [[0.9694733093812398, 1.9179501322293887e-18],
                      [-0.16821729467769056, -0.01928778138058022],
                      [0.08948515463649097, 0.05864153637978114],
                      [-0.10845681829634135, -0.09079163801726081]],
                     [[-8.536732871604132e-19, 3.356525489626055e-18],
                      [0.2991700021811463, -0.15044536589251445],
                      [0.8997843253573686, -1.4477788928186447e-17],
                      [0.27782699654847726, 0.032616399348147064]],
                     [[1.5248870174848716e-17, -1.9775235846852707e-17],
                      [-0.535268497694404, 0.3528439263472843],
                      [-5.105211496437989e-17, 7.851285780071901e-18],
                      [0.767456056732767, -1.5202723395198563e-18]]]}),
    "core-2": (
        {"amps": [{"c": [0.45239580271155294, -0.39894562376147386], "occ": [1, 0]},
                  {"c": [-0.6094033725331992, 0.49553517055496954], "occ": [1, 2]},
                  {"c": [-0.1348052424155394, 0.03286937596069641], "occ": [2, 1]}],
         "modes": 2},
        ["--seed", "1618157079"],
        {"abs_d_n_sq": 0.3489546478741873,
         "d_n": [0.38910622137693496, 0.44446709255011324],
         "hankel_threshold": 0.0002841988749928327,
         "lower_bound": 4,
         "reduction_amplitudes": [[0.0, 0.0], [-0.3013396176194648, 0.19139510514734082],
                                  [0.0, 0.0], [0.38910622137693496, 0.44446709255011324]],
         "unitary": [[[-0.5845782733421718, -0.0924408195166691],
                      [-0.6195193682444717, -0.5156730452460575]],
                     [[0.8060539294757961, 7.623383306656762e-18],
                      [-0.5084359575817866, -0.30293553739124107]]]}),
    "core-3": (
        {"amps": [{"c": [-0.8093766923655596, -0.12603858364123244], "occ": [1, 0, 0]},
                  {"c": [-0.5639364312238389, 0.063779896632547], "occ": [1, 2, 1]},
                  {"c": [-0.05217557371897802, 0.06487818678304552], "occ": [3, 0, 1]}],
         "modes": 3},
        ["--seed", "629145196"],
        {"abs_d_n_sq": 0.06449223325554194,
         "d_n": [0.05014645196564475, 0.2489529405546342],
         "hankel_threshold": 2.6490181524606967e-06,
         "lower_bound": 5,
         "reduction_amplitudes": [[0.0, 0.0], [-0.4306019269006333, 0.17335584829554404],
                                  [0.0, 0.0], [0.0, 0.0],
                                  [0.05014645196564475, 0.2489529405546342]],
         "unitary": [[[0.48685715292713394, -0.28999925065802473],
                      [-0.36320620289974426, 0.5447166060502654],
                      [0.33420767376353366, 0.37221076197131475]],
                     [[-0.06325352540780377, 0.32121130072976073],
                      [-0.093964756723202, -0.36637212889441845],
                      [0.8658893575222534, -1.802557558868418e-17]],
                     [[0.7561037224273195, 5.284227641886632e-18],
                      [0.5905753379414234, -0.2820069700325235],
                      [-6.5787619872276556e-18, 7.460580530269175e-18]]]}),
}


@pytest.mark.parametrize("name", list(PINNED_MULTIMODE))
def test_multimode_payloads_keep_their_bytes(capsys, name):
    descriptor, flags, pinned = PINNED_MULTIMODE[name]
    code, payload = run_json(capsys, ["multimode", json.dumps(descriptor), *flags])
    assert code == 0
    del payload["manifest"]
    assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(pinned, indent=2,
                                                                        sort_keys=True)
