"""Shared fixtures: packaged parameter sets and random-draw helpers."""

import json
import pathlib

import numpy as np
import pytest

import arbo
from arbo.control import ObjectiveWeights
from arbo.model import ControlParams, ModelParams
from arbo.ode import TimeGrid
from arbo.sensitivity import PARAM_ORDER, ParamDistribution, baseline_ranges
from arbo.thresholds import net_reproductive_number

FIXTURES = pathlib.Path(arbo.__file__).parent / "fixtures"


def load_fixture(name: str) -> dict:
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)


class Scenario:
    """One packaged configuration, materialized into model objects."""

    def __init__(self, name: str):
        cfg = load_fixture(name)
        self.config = cfg
        self.params = ModelParams(**cfg["params"])
        self.control_params = ControlParams(**cfg["control_params"])
        self.weights = ObjectiveWeights(**cfg["weights"])
        self.x0 = np.asarray(cfg["initial_state"], dtype=float)
        g = cfg["grid"]
        self.grid = TimeGrid(t0=g["t0"], tf=g["tf"], n_steps=g["n_steps"])


@pytest.fixture(scope="session")
def table5() -> Scenario:
    """Field-study parameter set used for the control experiments."""
    return Scenario("table5_control")


@pytest.fixture(scope="session")
def sec22() -> Scenario:
    """High-disease-mortality set exhibiting a backward bifurcation."""
    return Scenario("sec22_backward")


@pytest.fixture(scope="session")
def baseline() -> Scenario:
    """Baseline set bundled with the sensitivity-analysis ranges."""
    return Scenario("table2_baseline")


def random_params(rng: np.random.Generator, **overrides) -> ModelParams:
    """One random draw from the baseline sensitivity ranges."""
    dist = baseline_ranges()
    values = {}
    for name in PARAM_ORDER:
        lo, hi = dist.ranges[name]
        values[name] = rng.uniform(lo, hi)
    values.update(overrides)
    return ModelParams(**values)


def random_established_params(rng: np.random.Generator,
                              **overrides) -> ModelParams:
    """A random draw with an established vector population (N > 1)."""
    for _ in range(1000):
        p = random_params(rng, **overrides)
        if net_reproductive_number(p) > 1.0:
            return p
    raise AssertionError("could not draw params with N > 1")


def mixed_regime_ranges() -> ParamDistribution:
    """+/-20 % around the backward-bifurcation set, widened so that LHS
    draws fall in every regime: no vectors (N <= 1), sub- and
    supercritical, with (psi <= 0) and without a saddle-node window."""
    ranges = {k: (0.8 * v, 1.2 * v)
              for k, v in load_fixture("sec22_backward")["params"].items()}
    ranges.update(beta_hv=(0.0, 0.75), mu_b=(0.02, 7.2), delta=(0.0, 0.05),
                  eta_h=(0.0, 0.999), eta_v=(0.0, 0.999))
    return ParamDistribution(ranges)
