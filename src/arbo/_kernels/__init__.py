"""RK4 kernels of the forward-backward sweep.

`rk4.c` holds the controlled right-hand side, its state derivative
`field_vjp` (J^T lambda, as `model.field_vjp`), the adjoint right-hand
side built from that derivative (as `model.adjoint_field`) and the
control characterization (as `model.characterize_controls`), over
flat double arrays with the model and control parameters and the nine
objective weights `wts` = (D1..D4, B1..B5) each in the order
`model.params_to_array` gives `ModelParams`, `ControlParams` and
`model.ObjectiveWeights`.  Its three entry points are `rk4_controlled`
(forward states), `rk4_adjoint` (backward adjoints, which read only
D1..D4 of `wts`) and `sweep_step`, one whole sweep iteration: both
passes, the relaxed control update and the two relative changes.  On
first import it is compiled with the system C compiler and loaded with
ctypes.  The library is cached under a hash of the source and the
compile command, in `__pycache__` next to the source, or in the user
cache directory when that is not writable.

If the build or the load fails, the same kernels run the Python
right-hand sides (`model.controlled_field`, `model.adjoint_field`)
through `ode.rk4_nodes`, forward and backward, and the sweep iteration
composes those with `model.characterize_controls`; like the C kernels,
they take the parameter arrays unchecked.  Built without fused
multiply-add, the C kernels give the same values to the last bit.
`_checked` builds both backends' entry points: each checks and converts
its arguments once, in front of the backend, whose loops take only
checked arrays; `rk4_basic` is `rk4_controlled` with zero controls and
zero control efficacies.  `sweep` checks a sweep's arguments and
allocates its output buffers once, then iterates it over those buffers,
one loop call per iteration (`_iterations`).  `BACKEND` is "c" or
"python"; `FALLBACK_REASON` is None or the error that forced the
fallback.  Every kernel raises `model.ZeroPopulationError` in the step
whose right-hand side meets a zero or negative human total, and
`ode.NonFiniteError` at the first node holding a NaN or an infinity.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import itertools
import logging
import os
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .. import model, ode

SOURCE = Path(__file__).with_name("rk4.c")
FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

_log = logging.getLogger("arbo")


@dataclasses.dataclass(frozen=True)
class Kernels:
    """One backend's kernels, with the reason it was chosen when it is
    the fallback."""

    backend: str
    reason: str | None
    rk4_basic: Callable
    rk4_controlled: Callable
    rk4_adjoint: Callable
    sweep: Callable


_NO_HUMANS = -2  # NO_HUMANS in rk4.c


def _check(bad: int, dt: float) -> None:
    """Raise the error a C loop's return code stands for."""
    if bad == _NO_HUMANS:
        raise model.ZeroPopulationError("total human population is zero")
    if bad >= 0:
        raise ode.NonFiniteError(bad, bad * dt)


def _array(a, shape) -> np.ndarray:
    """`a` as C-contiguous doubles of the given shape, where None stands
    for any positive number of rows."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != len(shape) or 0 in a.shape or any(
            w is not None and w != s for w, s in zip(shape, a.shape)):
        raise ValueError(f"array of shape {a.shape}, need {shape}")
    return a


def _checked(backend: str, controlled, adjoint, bind_sweep) -> Kernels:
    """The entry points of a backend whose loops are given: each checks
    its arguments once and hands the loop C-contiguous doubles."""
    no_effect = np.zeros(6)

    def rk4_controlled(par, cpar, x0, u, dt):
        """Controlled forward RK4 with node controls u of shape (n+1, 5);
        half-step controls are the average of the adjacent nodes."""
        return controlled(_array(par, (21,)), _array(cpar, (6,)),
                          _array(x0, (10,)), _array(u, (None, 5)), dt)

    def rk4_basic(par, x0, n_steps, dt):
        """Uncontrolled forward RK4; returns the (n_steps+1, 10) trajectory."""
        n = int(n_steps)
        if n < 0:
            raise ValueError(f"n_steps must be >= 0, got {n}")
        return rk4_controlled(par, no_effect, x0, np.zeros((n + 1, 5)), dt)

    def rk4_adjoint(par, cpar, wts, states, u, dt):
        """Backward RK4 for the adjoint system with zero terminal value;
        intermediate stages average the adjacent nodes."""
        states = _array(states, (None, 10))
        return adjoint(_array(par, (21,)), _array(cpar, (6,)), _array(wts, (9,)),
                       states, _array(u, (len(states), 5)), dt)

    def sweep(par, cpar, wts, mask, mix, x0, u0, dt):
        """The iterations of one sweep from the node controls u0 (rows, 5),
        with step dt and relaxation weight mix, under the 0/1 strategy
        mask (see `_iterations`)."""
        mask = _array(mask, (5,))
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError(f"mask entries must be 0 or 1, got {mask}")
        u0 = _array(u0, (None, 5))
        rows = len(u0)
        fixed = (_array(par, (21,)), _array(cpar, (6,)), _array(wts, (9,)),
                 mask, float(mix), _array(x0, (10,)), float(dt))
        states = (np.empty((rows, 10)), np.empty((rows, 10)))
        adjoints = np.empty((rows, 10))
        controls = (np.empty((rows, 5)), np.empty((rows, 5)))
        run = bind_sweep(*fixed, states, adjoints, controls)
        return _iterations(run, fixed, u0, states, adjoints, controls)

    return Kernels(backend, None, rk4_basic, rk4_controlled, rk4_adjoint,
                   sweep)


def _iterations(run, fixed, u, states, adjoints, controls):
    """The sweep iterations from the node controls u, each item
    (states, adjoints, u_new, control_change, state_change), where
    u_new = mix * u_char + (1 - mix) * u for the masked, clamped
    characterization u_char, and each change is the relative sup-norm
    change (`_rel_sup_change`) against the item before, the first state
    change infinite.  Item k runs under the item before's u_new (u for
    the first), writes its states and u_new into buffer k % 2 of each
    pair and its adjoints into the one adjoint buffer.  So u keeps its
    bytes, an item's states and controls keep theirs through the next
    item, and its adjoints until it.  The C loop reads the checked fixed
    arguments through bare addresses, so the iterator holds them."""
    prev_states = None
    for i in itertools.cycle((1, 0)):
        changes = run(u, prev_states, i)
        yield (states[i], adjoints, controls[i], *changes)
        u, prev_states = controls[i], states[i]


def _namespaces(*arrays) -> list:
    """The arrays of `ModelParams`, `ControlParams` and then
    `ObjectiveWeights` as namespaces of their fields, unchecked."""
    records = (model.ModelParams, model.ControlParams, model.ObjectiveWeights)
    return [SimpleNamespace(**dict(zip([f.name for f in dataclasses.fields(r)],
                                       a.tolist())))
            for r, a in zip(records, arrays)]


def _forward(p, c, x0, u, dt):
    return ode.rk4_nodes(lambda t, x, uu: model.controlled_field(x, uu, p, c),
                         x0, (u,), dt, dt * np.arange(len(u), dtype=float))


def _backward(p, c, w, states, u, dt):
    return ode.rk4_nodes(
        lambda t, lam, x, uu: model.adjoint_field(x, uu, lam, p, c, w),
        np.zeros(10), (states, u), dt, dt * np.arange(len(u), dtype=float),
        backward=True)


def _rel_sup_change(new: np.ndarray, old: np.ndarray) -> float:
    """max|new - old| / max(1, max|new|), NaN when either holds a NaN;
    mirrored by `rk4.c`'s `sweep_step`."""
    return float(np.max(np.abs(new - old)) / max(1.0, np.max(np.abs(new))))


def _py_sweep(par, cpar, wts, mask, mix, x0, dt, states, adjoints, controls):
    p, c, w = _namespaces(par, cpar, wts)

    def run(u, prev_states, i):
        x, u_new = states[i], controls[i]
        x[...] = _forward(p, c, x0, u, dt)
        adjoints[...] = _backward(p, c, w, x, u, dt)
        u_char = model.characterize_controls(x, adjoints, p, c, w, mask)
        u_new[...] = mix * u_char + (1.0 - mix) * u
        state_change = (float("inf") if prev_states is None
                        else _rel_sup_change(x, prev_states))
        return _rel_sup_change(u_new, u), state_change
    return run


PYTHON = _checked(
    "python",
    lambda par, cpar, *rest: _forward(*_namespaces(par, cpar), *rest),
    lambda par, cpar, wts, *rest: _backward(*_namespaces(par, cpar, wts), *rest),
    _py_sweep)


def _c_kernels(lib: ctypes.CDLL) -> Kernels:
    # `_checked` hands these loops C-contiguous doubles of the right shapes
    # and the outputs come from np.empty, so the arguments are bare pointers.
    arr, n, step = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.rk4_controlled.argtypes = [arr, arr, arr, arr, n, step, arr]
    lib.rk4_adjoint.argtypes = [arr, arr, arr, arr, arr, n, step, arr]
    lib.sweep_step.argtypes = [arr, arr, arr, arr, step, arr, arr, arr, n,
                               step, arr, arr, arr, arr]
    for fn in (lib.rk4_controlled, lib.rk4_adjoint, lib.sweep_step):
        fn.restype = ctypes.c_long

    def controlled(par, cpar, x0, u, dt):
        out = np.empty((len(u), 10))
        _check(lib.rk4_controlled(*_addresses([par, cpar, x0, u]), len(u) - 1,
                                  dt, out.ctypes.data), dt)
        return out

    def adjoint(par, cpar, wts, states, u, dt):
        out = np.empty(states.shape)
        _check(lib.rk4_adjoint(*_addresses([par, cpar, wts, states, u]),
                               len(u) - 1, dt, out.ctypes.data), dt)
        return out

    def sweep(par, cpar, wts, mask, mix, x0, dt, states, adjoints, controls):
        change = np.empty(2)
        head = (*_addresses([par, cpar, wts, mask]), mix, x0.ctypes.data)
        states_at, controls_at = _addresses(states), _addresses(controls)
        n_steps, adjoints_at = len(adjoints) - 1, adjoints.ctypes.data
        change_at = change.ctypes.data

        def run(u, prev_states, i):
            _check(lib.sweep_step(
                *head, u.ctypes.data,
                None if prev_states is None else prev_states.ctypes.data,
                n_steps, dt, states_at[i], adjoints_at, controls_at[i],
                change_at), dt)
            return float(change[0]), float(change[1])
        return run

    return _checked("c", controlled, adjoint, sweep)


def _addresses(arrays) -> list:
    return [a.ctypes.data for a in arrays]


def _cache_dirs() -> list[Path]:
    """`__pycache__` next to the source, then the user cache directory,
    left out when no home directory can be found to name it by."""
    try:
        user = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    except (KeyError, RuntimeError):  # KeyError before Python 3.11
        return [SOURCE.parent / "__pycache__"]
    return [SOURCE.parent / "__pycache__", Path(user) / "arbo"]


def _library(compiler: str, cache_dir) -> Path:
    """The cached shared library, built first if no cache holds it."""
    command = [compiler, *FLAGS]
    recipe = SOURCE.read_bytes() + "\0".join([*command, *LIBS]).encode()
    name = f"rk4-{hashlib.sha256(recipe).hexdigest()[:16]}.so"
    dirs = [Path(cache_dir)] if cache_dir is not None else _cache_dirs()
    for d in dirs:
        if (d / name).is_file():
            return d / name
    for d in dirs:
        if _writable(d):
            return _build(command, d / name)
    raise OSError(f"no writable cache directory among {[str(d) for d in dirs]}")


def _writable(d: Path) -> bool:
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(d, os.W_OK)


def _build(command: list, target: Path) -> Path:
    """Compile to a temporary name, then move the result into place."""
    import subprocess  # only a build needs it; keeps start-up lean

    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        proc = subprocess.run([*command, "-o", str(tmp), str(SOURCE), *LIBS],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise OSError(f"{command[0]} exited with status {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load(compiler: str = "cc", cache_dir=None) -> Kernels:
    """Build (or reuse) and load the C kernels; on any failure return the
    Python kernels with the reason, logged as one warning."""
    try:
        return _c_kernels(ctypes.CDLL(str(_library(compiler, cache_dir))))
    except Exception as exc:  # any build or load failure means fallback
        reason = f"{type(exc).__name__}: {exc}"
        _log.warning("compiled RK4 kernels unavailable, using the Python "
                     "kernels: %s", reason)
        return dataclasses.replace(PYTHON, reason=reason)


_active = load()
BACKEND = _active.backend
FALLBACK_REASON = _active.reason
rk4_basic = _active.rk4_basic
rk4_controlled = _active.rk4_controlled
rk4_adjoint = _active.rk4_adjoint
sweep = _active.sweep

__all__ = ["BACKEND", "FALLBACK_REASON", "PYTHON", "Kernels", "load",
           "rk4_adjoint", "rk4_basic", "rk4_controlled", "sweep"]
