import argparse
import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrank.cli import _search_config, main
from csrank.fock import MAX_CUTOFF, state_from_descriptor
from csrank.hankel import MAX_GRID_POINTS, SearchConfig, plain_bound


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


def test_bound_optimized_squeezed(capsys):
    code, payload = run_json(
        capsys,
        ["bound", '{"type":"squeezed","r":0.5,"phi":0}', "--r", "3",
         "--method", "optimized", "--n-max", "8"],
    )
    assert code == 0
    assert payload["epsilon_threshold"] > 0


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


def test_search_config_takes_the_default_grid_unless_given():
    args = argparse.Namespace(b_grid=None)
    assert _search_config(args, 7) == SearchConfig(N_max=7)
    args.b_grid = "0.1,2,5"
    assert _search_config(args, 7) == SearchConfig(N_max=7, b_grid=(0.1, 2.0, 5))
    args.b_grid = "0.1,2"
    with pytest.raises(ValueError):
        _search_config(args, 7)


def test_malformed_json_exits_2(capsys):
    assert main(["bound", "{not json", "--r", "1"]) == 2
    assert main(["bound", '{"type":"nope"}', "--r", "1"]) == 2
    assert main(["bound", '{"type":"fock","n":1}', "--r", "5", "--n-max", "2"]) == 2
    assert main(["certify", '{"type":"fock","n":1}']) == 2  # missing --eps


FOCK1 = {"type": "fock", "n": 1}
CERT = {"state_descriptor": FOCK1, "r": 1, "epsilon_threshold": 0.125,
        "method": "plain", "parameters": {"N": 1, "b": 1.0}}


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
        ["bound", "--check", dict(CERT, r=[1])],
        ["bound", "--check", [CERT]],
        ["bound", "--check", dict(CERT, parameters=[1, 1.0])],
        ["bound", "--check", dict(CERT, parameters={"b": 1.0})],
    ],
    ids=["core-scalar-amps", "superposition-scalar-c", "multimode-scalar-c", "squeezed-huge-r",
         "fock-list-n", "core-scalar-amps-field", "squeezed-list-r", "fock-string-cutoff",
         "fock-fractional-n", "superposition-scalar-term", "squeezed-negative-cutoff",
         "multimode-scalar-occ",
         "check-list-r", "check-top-level-list", "check-list-parameters", "check-missing-N"],
)
def test_malformed_descriptor_values_exit_2(capsys, tmp_path, argv):
    # A non-string argument is a certificate, written to a file for --check.
    path = tmp_path / "cert.json"
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_resource_limit_exits_4(capsys):
    assert main(["permanent", "--n", "9", "--delta", "0.2", "--trials", "1"]) == 4


@pytest.mark.parametrize("command", [["bound", "--r", "1"], ["certify", "--eps", "0.1"]],
                         ids=["bound", "certify"])
def test_oversized_b_grid_exits_4(capsys, command):
    argv = command[:1] + ['{"type":"fock","n":1}'] + command[1:]
    assert main(argv + ["--b-grid", "1e-3,10,1000000000000"]) == 4
    err = capsys.readouterr().err
    assert str(MAX_GRID_POINTS) in err and "Traceback" not in err


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


_NUMBER = st.integers(-3, 40) | st.floats(-50, 50)
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


def test_fit_command(capsys):
    code, payload = run_json(capsys, ["fit", '{"type":"fock","n":1}', "--r", "1",
                                      "--seed", "0", "--restarts", "6"])
    assert code == 0
    assert payload["fidelity_achieved"] == pytest.approx(math.exp(-1), abs=1e-8)


def test_decompose_command(capsys):
    code, payload = run_json(capsys, ["decompose", '{"type":"fock","n":1}',
                                      "--delta", "0.1"])
    assert code == 0
    assert len(payload["terms"]) == 2
    assert payload["infidelity"] < 1e-4


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


def test_certificate_check_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["bound", '{"type":"fock","n":2}', "--r", "2",
                 "--out", str(cert_path)]) == 0
    assert main(["bound", "--check", str(cert_path)]) == 0

    tampered = json.loads(cert_path.read_text())
    tampered["epsilon_threshold"] *= 1.5
    cert_path.write_text(json.dumps(tampered))
    assert main(["bound", "--check", str(cert_path)]) == 3


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
    assert payload["epsilon_threshold"] == OLD_CERTIFICATE["epsilon_threshold"]
