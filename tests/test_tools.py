import importlib.util
import json
from pathlib import Path

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
    lines = data["change"]["src_lines"]
    assert lines["csrank/hankel.py"] == len((ROOT / "src/csrank/hankel.py").read_text().splitlines())
    assert lines["total"] == sum(n for name, n in lines.items() if name != "total")
