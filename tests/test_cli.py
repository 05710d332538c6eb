import csv
import json

import numpy as np
import pytest

from aerotrack import benchmarks
from aerotrack.cli import main
from aerotrack.grid import MapSpec, build_map

BOX_SPEC = {
    "origin": [0, 0, 0],
    "resolution": 0.1,
    "dims": [20, 10, 5],
    "obstacles": [{"type": "box", "min": [0.5, 0.2, 0.0], "max": [1.2, 0.6, 0.3]}],
}


def write_json(path, raw):
    path.write_text(json.dumps(raw))
    return str(path)


class TestGenMap:
    def test_saves_occupancy_as_float_values(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "map.json", BOX_SPEC)
        out = tmp_path / "map.npz"
        assert main(["gen-map", spec_path, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["saved"] == str(out)
        with np.load(out) as saved:
            assert sorted(saved.files) == ["origin", "resolution", "values"]
            values = saved["values"]
        assert values.dtype == np.float32
        assert set(np.unique(values)) == {0.0, 1.0}
        assert np.array_equal(values, build_map(MapSpec.from_dict(BOX_SPEC)).occupied)

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "bad.json", dict(BOX_SPEC, resolution=-1))
        assert main(["gen-map", spec_path]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_malformed_numbers_exit_1(self, tmp_path, capsys):
        raw = dict(BOX_SPEC, dims=["a", 1, 1], origin=[0, 0, "x"])
        assert main(["gen-map", write_json(tmp_path / "bad.json", raw)]) == 1
        err = capsys.readouterr().err
        assert "dims" in err and "origin" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["gen-map", str(tmp_path / "absent.json")]) == 1
        assert "file not found" in capsys.readouterr().err


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
        assert main(["run", path, "--variant", "bogus"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "unknown variant 'bogus'; choose from full, no_occlusion_penalty, no_gimbal_search"]

    def test_zero_time_weight_exits_1(self, tmp_path, capsys):
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["search"] = dict(raw.get("search", {}), rho=0)
        assert main(["run", write_json(tmp_path / "bad.json", raw)]) == 1
        assert "rho" in capsys.readouterr().err

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
            "scenario", "variant", "success", "mean_dist", "los_frac", "plan_ms"]
        assert [line.split()[:2] for line in table[2:]] == [
            ["sharp_turn_low", "full"], ["sharp_turn_low", "no_occlusion_penalty"]]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scenario"], r["variant"], r["run"]) for r in rows] == [
            ("sharp_turn_low", "full", "0"), ("sharp_turn_low", "no_occlusion_penalty", "0")]

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

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_exit_1(self, tmp_path, capsys, runs):
        benchmarks.write_all(tmp_path)
        assert main(["benchmark", str(tmp_path), "--runs", runs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"--runs must be at least 1, got {runs}"]


class TestFitRegression:
    @staticmethod
    def samples(n, p_cam=(2.0, 0.1, 0.9)):
        return [{"L": 100.0 + 5.0 * i, "u": 320.0 + i, "p_cam": list(p_cam)} for i in range(n)]

    def fit(self, path, capsys):
        code = main(["fit-regression", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err.splitlines()

    def test_too_few_samples_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "few.json", {"samples": self.samples(5)})
        code, out, err = self.fit(path, capsys)
        assert (code, out) == (1, "")
        assert err == ["fit failed: dataset of 5 samples is too small to fit"]

    def test_top_level_list_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", self.samples(10))
        code, out, err = self.fit(path, capsys)
        assert (code, out) == (1, "")
        assert err == [f"{path}: expected a JSON object with a 'samples' list"]

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"samples": [')
        code, out, err = self.fit(path, capsys)
        assert (code, out) == (1, "")
        assert len(err) == 1 and err[0].startswith(f"{path}: not valid JSON")

    def test_two_coordinate_p_cam_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "flat.json", {"samples": self.samples(10, (2.0, 0.1))})
        code, out, err = self.fit(path, capsys)
        assert (code, out) == (1, "")
        assert err == ["samples[0]: p_cam: expected 3 numbers, got [2.0, 0.1]"]
