import csv
import json
import re

import pytest

from aerotrack import benchmarks
from aerotrack.cli import build_parser, main


def write_json(path, raw):
    path.write_text(json.dumps(raw))
    return str(path)


class TestRun:
    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        raw = dict(benchmarks.ALL["sharp_turn_low"](), duration="abc")
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "duration" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "ok.json", benchmarks.ALL["sharp_turn_low"]())
        assert main(["run", path, "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        raw = dict(benchmarks.ALL["sharp_turn_low"](), seed=-1)
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_variant_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "ok.json", benchmarks.ALL["sharp_turn_low"]())
        for variant in ("bogus", "no_occ"):  # a variant has one name, its VARIANTS key
            assert main(["run", path, "--variant", variant]) == 1
            assert capsys.readouterr().err.splitlines() == [f"unknown variant {variant!r}; "
                "choose from full, no_occlusion_penalty, no_gimbal_search"]

    def test_zero_time_weight_exits_1(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["search"] = dict(raw.get("search", {}), rho=0)
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "rho" in capsys.readouterr().err

    def test_invalid_map_exits_1(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["map"] = dict(raw["map"], resolution=-1)
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_malformed_map_numbers_exit_1(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["map"] = dict(raw["map"], dims=["a", 1, 1], origin=[0, 0, "x"])
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "dims" in err[0] and "origin" in err[0]

    def test_missing_fields_exit_1_with_one_line(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        del raw["name"], raw["duration"]
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "name" in err[0] and "duration" in err[0]

    def test_zero_replan_rate_exits_1(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["tracker"] = dict(raw.get("tracker", {}), replan_hz=0)
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "replan_hz" in capsys.readouterr().err

    def test_metrics_are_strict_json(self, tmp_path, capsys):
        raw = dict(benchmarks.ALL["occlusion_turn"](), duration=1.0)  # no relocation ends
        main(["run", write_json(tmp_path / "short.json", raw)])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        metrics = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert metrics["relocation_times"] == []
        assert metrics["mean_relocation_time"] is None


class TestBenchmark:
    def test_one_scenario_prints_the_table_and_writes_one_row_per_run(self, tmp_path, capsys):
        for path in benchmarks.write_all(tmp_path):
            if path.stem != "sharp_turn_low":
                path.unlink()
        path = tmp_path / "sharp_turn_low.json"
        write_json(path, dict(json.loads(path.read_text()), duration=1.0))
        out = tmp_path / "rows.csv"
        assert main(["benchmark", str(tmp_path), "--runs", "1", "--out", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == [
            "scenario", "variant", "success", "mean_dist", "los_frac", "plan_ms", "plan_failures"]
        assert [line.split()[:2] for line in table[2:]] == [
            ["sharp_turn_low", "full"], ["sharp_turn_low", "no_occlusion_penalty"]]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scenario"], r["variant"], r["run"]) for r in rows] == [
            ("sharp_turn_low", "full", "0"), ("sharp_turn_low", "no_occlusion_penalty", "0")]

    def test_table_columns_end_under_their_headers(self):
        def row(scenario, run, success):
            return {"scenario": scenario, "variant": "full", "run": run, "success": success,
                    "mean_dist": 3.0, "los_fraction": 0.9, "plan_ms": 12.0, "plan_failures": 1}

        rows = ([row("a", i, 1) for i in range(10)] + [row("b", i, i % 2) for i in range(10)]
                + [row("c", i, 1) for i in range(5)])
        lines = benchmarks.benchmark_table(rows).splitlines()

        def right_edges(line):
            return [m.end() for m in re.finditer(r"\S+", line)][2:]

        assert [line.split()[2:] for line in lines[2:]] == [
            ["10/10", "3.000", "0.900", "12.0", "10"], ["5/10", "3.000", "0.900", "12.0", "10"],
            ["5/5", "3.000", "0.900", "12.0", "5"]]
        assert all(right_edges(line) == right_edges(lines[0]) for line in lines[2:])

    def test_empty_directory_exits_1(self, tmp_path, capsys):
        assert main(["benchmark", str(tmp_path)]) == 1
        assert "no scenario files" in capsys.readouterr().err

    def test_unknown_variant_exits_1(self, tmp_path, capsys):
        benchmarks.write_all(tmp_path)
        assert main(["benchmark", str(tmp_path), "--variants", "full,bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "unknown variant 'bogus'; choose from full, no_occlusion_penalty, no_gimbal_search"]

    def test_malformed_scenario_json_exits_1(self, tmp_path, capsys):
        benchmarks.write_all(tmp_path)
        broken = tmp_path / "broken.json"
        broken.write_text('{"name": ')
        assert main(["benchmark", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{broken}: not valid JSON")

    @pytest.mark.parametrize("variants", [",", "", " , "])
    def test_empty_variant_list_exits_1(self, tmp_path, capsys, variants):
        benchmarks.write_all(tmp_path)
        assert main(["benchmark", str(tmp_path), "--variants", variants]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"--variants names no variant, got {variants!r}"]

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_exit_1(self, tmp_path, capsys, runs):
        benchmarks.write_all(tmp_path)
        assert main(["benchmark", str(tmp_path), "--runs", runs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"--runs must be at least 1, got {runs}"]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        benchmarks.write_all(tmp_path)
        assert main(["benchmark", str(tmp_path), "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"--workers must be at least 1, got {workers}"]


@pytest.mark.parametrize("command, name, message", [
    ("run", ".", "Is a directory"),
    ("run", "utf16.json", "not valid JSON ('utf-8' codec can't decode"),
    ("benchmark", ".", "utf16.json: not valid JSON ('utf-8' codec can't decode"),
], ids=["run-dir", "run-utf16", "benchmark-utf16"])
def test_unreadable_input_exits_1_with_one_line(tmp_path, capsys, command, name, message):
    # a scenario file saved as UTF-16 starts with the bytes ff fe
    benchmarks.write_all(tmp_path)
    text = (tmp_path / "sharp_turn_low.json").read_text()
    (tmp_path / "utf16.json").write_bytes(text.encode("utf-16"))
    assert main([command, str(tmp_path / name)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and message in err[0]


def test_commands_are_run_and_benchmark(capsys):
    assert "{run,benchmark}" in build_parser().format_usage()
    with pytest.raises(SystemExit) as exc:
        main(["gen-map", "x"])
    assert exc.value.code == 2  # argparse's unknown command
    assert "invalid choice: 'gen-map'" in capsys.readouterr().err
