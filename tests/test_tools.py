import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_cli_times():
    spec = importlib.util.spec_from_file_location("cli_times", ROOT / "tools" / "cli_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_times_keeps_every_label_and_counts_the_source_lines(monkeypatch, tmp_path):
    cli_times = load_cli_times()
    monkeypatch.setattr(cli_times, "COMMANDS", {"version": ["--version"]})
    monkeypatch.setattr(cli_times, "SUITE", ["-c", "pass"])
    out = tmp_path / "BENCH.json"
    for label in ("parent", "change", "change"):
        assert cli_times.main(["--label", label, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert sorted(data) == ["change", "parent"]
    for run in (data["change"]["commands"]["version"], data["change"]["tier1_suite"]):
        assert run["exit_codes"] == [0] and len(run["runs_s"]) == cli_times.REPEAT
        assert run["best_s"] == min(run["runs_s"])
        assert run["median_s"] == sorted(run["runs_s"])[cli_times.REPEAT // 2]
    lines = data["change"]["src_lines"]
    assert lines["csrank/hankel.py"] == len((ROOT / "src/csrank/hankel.py").read_text().splitlines())
    assert lines["total"] == sum(n for name, n in lines.items() if name != "total")


def test_cli_times_alternates_the_labels_on_every_run(monkeypatch, tmp_path):
    cli_times = load_cli_times()
    monkeypatch.setattr(cli_times, "COMMANDS", {"version": ["--version"], "fit": ["fit"]})
    other = tmp_path / "other"
    (other / "src" / "csrank").mkdir(parents=True)
    (other / "src" / "csrank" / "__init__.py").write_text("x = 1\n")
    order = []

    def fake_run(argv, env, cwd):
        order.append((argv[-1], env["PYTHONPATH"]))
        return 0.1 * len(order), 0

    monkeypatch.setattr(cli_times, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["--repo", str(other), "--label", "parent", "--repo", str(ROOT), "--label", "change",
            "--out", str(out)]
    assert cli_times.main(argv) == 0
    labels = {str(other / "src"): "parent", str(ROOT / "src"): "change"}
    runs = [(what, labels[path]) for what, path in order]
    per_run = ["parent", "change", "change", "parent", "parent", "change"]
    assert runs == ([("--version", label) for label in per_run] + [("fit", label) for label in per_run]
                    + [(cli_times.SUITE[-1], label) for label in per_run])
    data = json.loads(out.read_text())
    assert sorted(data) == ["change", "parent"]
    assert data["parent"]["src_lines"] == {"csrank/__init__.py": 1, "total": 1}
    assert data["change"]["commands"]["version"]["runs_s"] == [0.2, 0.3, 0.6]
    assert data["parent"]["commands"]["version"]["median_s"] == 0.4


def test_cli_times_records_each_repeats_ratio_to_the_first_label(monkeypatch, tmp_path):
    cli_times = load_cli_times()
    monkeypatch.setattr(cli_times, "COMMANDS", {"version": ["--version"]})
    other = tmp_path / "other"
    (other / "src" / "csrank").mkdir(parents=True)
    (other / "src" / "csrank" / "__init__.py").write_text("x = 1\n")
    # each label's runs in repeat order, for the command and then the suite
    times = {str(other / "src"): iter([0.2, 0.4, 0.3] * 2),
             str(ROOT / "src"): iter([0.1, 0.6, 0.9] * 2)}
    monkeypatch.setattr(cli_times, "run_once",
                        lambda argv, env, cwd: (next(times[env["PYTHONPATH"]]), 0))
    out = tmp_path / "BENCH.json"
    argv = ["--repo", str(other), "--label", "parent", "--repo", str(ROOT), "--label", "change",
            "--out", str(out)]
    assert cli_times.main(argv) == 0
    data = json.loads(out.read_text())
    for run in (data["change"]["commands"]["version"], data["change"]["tier1_suite"]):
        assert run["ratio_to"] == "parent"
        assert run["ratios"] == [0.5, 1.5, 3.0]
        # the median of the ratios, not the ratio of the medians (0.6 / 0.3)
        assert run["median_ratio"] == 1.5
    for run in (data["parent"]["commands"]["version"], data["parent"]["tier1_suite"]):
        assert not {"ratio_to", "ratios", "median_ratio"} & set(run)

def test_cli_times_wants_one_repo_per_label(tmp_path, capsys):
    cli_times = load_cli_times()
    out = tmp_path / "BENCH.json"
    for argv in (["--repo", str(ROOT), "--label", "a", "--label", "b"],
                 ["--label", "a", "--label", "b"],
                 ["--repo", str(ROOT), "--label", "a", "--repo", str(ROOT), "--label", "a"]):
        with pytest.raises(SystemExit) as exit_info:
            cli_times.main([*argv, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "give one --repo per --label" in capsys.readouterr().err
    assert not out.exists()
