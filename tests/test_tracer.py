"""The benchmark's tracer (perfbench/spans.py) wraps functions under the
names that callers inside the package look them up by."""

import pathlib

from arbo.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_enters_and_restores_every_patched_name(monkeypatch, tmp_path):
    """[TRIVIAL] Entering the tracer finds every name it patches (a name
    gone from its module raises KeyError there), a traced command records
    spans, and leaving it puts every original back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    sites = [site for entry in spans.TIMED + spans.COUNTED for site in entry[1]]
    before = [owner.__dict__[attr] for owner, attr in sites]
    config = ROOT / "src/arbo/fixtures/sec22_backward.json"
    with spans.Tracer() as tracer:
        assert main(["bifurcation", "--config", str(config), "--lo", "0",
                     "--hi", "0.0877", "--steps", "20",
                     "--out", str(tmp_path / "scan.csv")]) == 0
    assert [owner.__dict__[attr] for owner, attr in sites] == before
    metrics = tracer.layer_metrics()
    assert metrics["equilibria.bifurcation_scan.calls"] == 1
    assert metrics["equilibria.scan_to_csv.s"] > 0.0
