"""Golden outputs: the bytes the CLI writes on the packaged fixtures.

Each case runs one command in-process through `cli.main` and compares what
it wrote with the file of the same name under `tests/golden/`, or, for the
large CSVs, with that file's SHA-256 digest in `tests/golden/digests.json`.
A mismatch names the golden file.

Two parts of the `sensitivity` case are not compared as bytes.  Its JSON is
kept without `diagnostics.stage_s`, the wall-clock time of each stage.  Its
PRCC coefficients, in the JSON and in the `--prcc-csv` table, pass through
BLAS and LAPACK, and are compared to `PRCC_ATOL`.

After a change that is meant to move an output, rewrite every golden file
with

    PYTHONPATH=src python tests/test_golden.py

and list each file that changed in CHANGES.md, with the reason.
"""

import hashlib
import json
import pathlib

import pytest

from arbo import _kernels
from arbo.cli import main
from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).with_name("golden")
DIGESTS = GOLDEN / "digests.json"


def _config(fixture: str) -> list:
    return ["--config", str(FIXTURES / f"{fixture}.json")]


# Output file name -> the command line that writes it, without --out.
CASES = {
    **{f"{command}_{fixture}.json": [command, *_config(fixture)]
       for command in ("thresholds", "equilibria")
       for fixture in ("sec22_backward", "table2_baseline", "table5_control")},
    "icer_table5_control.json": ["icer", *_config("table5_control")],
    "bifurcation_sec22_backward.csv": [
        "bifurcation", *_config("sec22_backward"), "--lo", "0", "--hi",
        "0.0877"],
    "simulate_table5_control.csv": ["simulate", *_config("table5_control")],
    "sensitivity_table2_baseline.json": [
        "sensitivity", *_config("table2_baseline"), "--samples", "5000",
        "--seed", "20260823"],
    "control_table5_control.json": ["control", *_config("table5_control")],
}
# The further files a case writes: flag -> file name.
SIDE_FILES = {
    "sensitivity_table2_baseline.json": {
        "--prcc-csv": "sensitivity_table2_baseline_prcc.csv",
        "--hist-csv": "sensitivity_table2_baseline_hist.csv"},
    "control_table5_control.json": {
        "--controls-csv": "control_table5_control_controls.csv",
        "--states-csv": "control_table5_control_states.csv"},
}
# Kept as digests: together they are about 1.1 MB.
DIGESTED = ("bifurcation_sec22_backward.csv", "simulate_table5_control.csv",
            "control_table5_control_controls.csv",
            "control_table5_control_states.csv")
SENSITIVITY_JSON = "sensitivity_table2_baseline.json"
PRCC_CSV = "sensitivity_table2_baseline_prcc.csv"
# With OpenBLAS forced to other core types (Prescott, Sandybridge, SkylakeX)
# and to 1 or 2 threads, every output here stayed bitwise the same except
# the PRCC coefficients, which moved by at most 3.3e-16; the tolerance is
# three times that.
PRCC_ATOL = 1e-15


def _run(name: str, out_dir: pathlib.Path) -> dict:
    """Every file the case `name` writes into `out_dir`: name -> bytes."""
    side = SIDE_FILES.get(name, {})
    argv = [*CASES[name], "--out", str(out_dir / name)]
    for flag, file_name in side.items():
        argv += [flag, str(out_dir / file_name)]
    assert main(argv) == 0, name
    return {file_name: (out_dir / file_name).read_bytes()
            for file_name in (name, *side.values())}


def _dump(report: dict) -> bytes:
    """The bytes `cli._emit_json` writes for `report`."""
    return (json.dumps(report, indent=2) + "\n").encode()


def _without_timing(data: bytes) -> bytes:
    """A sensitivity JSON without its stage times."""
    report = json.loads(data)
    del report["diagnostics"]["stage_s"]
    return _dump(report)


def _assert_prcc_close(got: dict, want: dict, where: str) -> None:
    assert list(got) == list(want), f"{where}: PRCC parameters differ"
    for name, value in got.items():
        assert abs(value - want[name]) <= PRCC_ATOL, (
            f"{where}: PRCC({name}) = {value!r}, golden {want[name]!r}")


def _prcc_table(data: bytes) -> dict:
    header, *rows = data.decode().splitlines()
    assert header == "parameter,prcc"
    return {name: float(value)
            for name, value in (row.split(",") for row in rows)}


def _check(file_name: str, got: bytes) -> None:
    path = GOLDEN / file_name
    if file_name in DIGESTED:
        digest = hashlib.sha256(got).hexdigest()
        assert digest == json.loads(DIGESTS.read_text())[file_name], (
            f"{file_name} differs from its digest in {DIGESTS}")
        return
    want = path.read_bytes()
    if file_name == SENSITIVITY_JSON:
        report, golden = json.loads(_without_timing(got)), json.loads(want)
        _assert_prcc_close(report["prcc"], golden["prcc"], str(path))
        report["prcc"] = golden["prcc"]
        got = _dump(report)
    elif file_name == PRCC_CSV:
        _assert_prcc_close(_prcc_table(got), _prcc_table(want), str(path))
        return
    assert got == want, f"{file_name} differs from {path}"


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    """[TRIVIAL] Each output is byte for byte the checked-in one."""
    if name.startswith("control_") and _kernels.BACKEND != "c":
        pytest.skip("the sweep takes minutes on the Python kernels")
    for file_name, got in _run(name, tmp_path).items():
        _check(file_name, got)


def write_golden() -> None:
    """Rewrite every golden file from the code on the path."""
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for name in CASES:
        for file_name, got in _run(name, GOLDEN).items():
            if file_name in DIGESTED:
                digests[file_name] = hashlib.sha256(got).hexdigest()
                (GOLDEN / file_name).unlink()
            elif file_name == SENSITIVITY_JSON:
                (GOLDEN / file_name).write_bytes(_without_timing(got))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
