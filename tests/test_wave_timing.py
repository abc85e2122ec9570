"""scripts/wave_timing.py: the in-process wave timings, on the bundled case."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "wave_timing", Path(__file__).resolve().parent.parent / "scripts" / "wave_timing.py")
wave_timing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(wave_timing)


def test_bundled_case_prints_one_json_line(capsys):
    wave_timing.main(["--case", "bundled", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["case"] == "bundled" and record["elements"] == 100
    assert record["q"] == 17 and record["repeats"] == 1
    assert record["forward_ms"] > 0 and record["jacobian_ms"] > 0
    assert record["jacobian_peak_mib"] > 0
