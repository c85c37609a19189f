"""Reference computations made apart from `arbo`, used to check its
outputs.  Nothing here calls into the package: parameters arrive as
plain mappings with the field names of `arbo.model.ModelParams`."""

import math

import numpy as np


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    for lo, hi in zip(starts, ends):
        ranks[order[lo:hi]] = 0.5 * (lo + 1 + hi)
    return ranks


def prcc_by_regression(columns: dict, output) -> dict:
    """Partial rank correlation of each column with the output: the
    correlation of the residuals left after regressing both ranks on
    the ranks of every other column (with an intercept)."""
    names = list(columns)
    ranks = np.column_stack([average_ranks(columns[k]) for k in names])
    y = average_ranks(output)
    n = len(y)
    out = {}
    for j, name in enumerate(names):
        design = np.column_stack([np.ones(n), np.delete(ranks, j, axis=1)])
        res_x = ranks[:, j] - design @ np.linalg.lstsq(design, ranks[:, j], rcond=None)[0]
        res_y = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        out[name] = float(res_x @ res_y / math.sqrt((res_x @ res_x) * (res_y @ res_y)))
    return out


def vector_reproduction(p) -> float:
    """Eggs that one egg leaves through the aquatic stages and an adult
    female's life; the vector population persists iff it exceeds 1."""
    reach_larva = p["s"] / (p["s"] + p["mu_E"])
    reach_pupa = p["l"] / (p["l"] + p["mu_L"])
    reach_adult = p["theta"] / (p["theta"] + p["mu_P"])
    return p["mu_b"] / p["mu_v"] * reach_larva * reach_pupa * reach_adult


def disease_free_vectors(p) -> float:
    """Adult vectors at the disease-free equilibrium, solved from the
    egg/larva/pupa/adult balance equations (None when they die out)."""
    n = vector_reproduction(p)
    if n <= 1.0:
        return None
    k6 = p["l"] + p["mu_L"]
    k7 = p["theta"] + p["mu_P"]
    # Larvae L = s*E*G_L / (k6*G_L + s*E); substituting the adult and
    # pupa balances into the egg balance leaves a linear equation in E.
    eggs = k6 * p["Gamma_L"] * (n - 1.0) / (p["s"] + n * k6 * p["Gamma_L"] / p["Gamma_E"])
    larvae = p["s"] * eggs * p["Gamma_L"] / (k6 * p["Gamma_L"] + p["s"] * eggs)
    pupae = p["l"] * larvae / k7
    return p["theta"] * pupae / p["mu_v"]


def ngm_r0(p) -> float:
    """Spectral radius of F V^-1 over (E_h, I_h, E_v, I_v) at the
    disease-free equilibrium."""
    s_v = disease_free_vectors(p)
    if s_v is None:
        return 0.0
    n_h = p["lambda_h_in"] / p["mu_h"]
    a, bhv, bvh = p["a"], p["beta_hv"], p["beta_vh"]
    f = np.zeros((4, 4))
    f[0, 2] = a * bhv * p["eta_v"]
    f[0, 3] = a * bhv
    f[2, 0] = a * bvh * p["eta_h"] * s_v / n_h
    f[2, 1] = a * bvh * s_v / n_h
    v = np.diag([p["mu_h"] + p["gamma_h"], p["mu_h"] + p["delta"] + p["sigma"],
                 p["mu_v"] + p["gamma_v"], p["mu_v"]])
    v[1, 0] = -p["gamma_h"]
    v[3, 2] = -p["gamma_v"]
    return float(np.max(np.abs(np.linalg.eigvals(f @ np.linalg.inv(v)))))


def icer_chain(table) -> tuple[list, list]:
    """Strong-dominance elimination by direct arithmetic over rows of
    {name, cost, averted}: returns the comparisons made, as
    (first, second, ICER of first, incremental ICER), and the order in
    which strategies were eliminated."""
    rest = sorted(table, key=lambda r: r["averted"])
    comparisons, eliminated = [], []
    while len(rest) >= 2:
        a, b = rest[0], rest[1]
        if a["averted"] == b["averted"] and a["cost"] == b["cost"]:
            rest.pop(1)
            continue
        if a["averted"] == b["averted"]:
            eliminated.append(rest.pop(0 if a["cost"] > b["cost"] else 1)["name"])
            continue
        own = a["cost"] / a["averted"]
        inc = (b["cost"] - a["cost"]) / (b["averted"] - a["averted"])
        comparisons.append((a["name"], b["name"], own, inc))
        if inc < 0.0:
            eliminated.append(rest.pop(0)["name"])
        elif inc > own:
            eliminated.append(rest.pop(1)["name"])
        else:
            break
    return comparisons, eliminated


def trapezoid(values, dt: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))
