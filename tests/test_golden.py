"""Golden outputs: the bytes the CLI writes on the packaged fixtures.

Each case runs one command in-process through `cli.main` and compares what
it wrote with the file of the same name under `tests/golden/`, or, for the
two large CSVs, with that file's SHA-256 digest in `tests/golden/digests.json`.
A mismatch names the golden file.

After a change that is meant to move an output, rewrite every golden file
with

    PYTHONPATH=src python tests/test_golden.py

and list each file that changed in CHANGES.md, with the reason.
"""

import hashlib
import json
import pathlib

import pytest

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
}
# Kept as digests: together they are about 0.5 MB.
DIGESTED = ("bifurcation_sec22_backward.csv", "simulate_table5_control.csv")


def _run(name: str, out_dir: pathlib.Path) -> bytes:
    out = out_dir / name
    assert main([*CASES[name], "--out", str(out)]) == 0, name
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    """[TRIVIAL] Each output is byte for byte the checked-in one."""
    got = _run(name, tmp_path)
    if name in DIGESTED:
        digest = hashlib.sha256(got).hexdigest()
        assert digest == json.loads(DIGESTS.read_text())[name], (
            f"{name} differs from its digest in {DIGESTS}")
    else:
        assert got == (GOLDEN / name).read_bytes(), (
            f"{name} differs from {GOLDEN / name}")


def write_golden() -> None:
    """Rewrite every golden file from the code on the path."""
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for name in CASES:
        got = _run(name, GOLDEN)
        if name in DIGESTED:
            digests[name] = hashlib.sha256(got).hexdigest()
            (GOLDEN / name).unlink()
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
