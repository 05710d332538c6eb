import json

import numpy as np

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
