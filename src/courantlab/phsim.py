"""Port-Hamiltonian simulation and the behavior projection.

Three closely related systems share one fixed-step RK4 integrator:

  open system        dx/dt = J grad H(x) + B u(t),   y = B^T grad H(x)
  closed system      dx/dt = J grad H(x)
  interaction system dx/dt = J grad H(x) + B u(t),   dz/dt = -B^T grad H(x)

with J skew (checked exactly on rational input), H an exact polynomial
whose gradient is differentiated symbolically and only then evaluated in
double precision, and u polynomial in t.  The interaction system is the
closed Hamiltonian system of H_u(t, x, z) = H(x) + u(t)^T z on the
extended space, and projecting its trajectories by (x, z) -> (x, -dz/dt)
recovers the open system's behavior: -dz/dt = B^T grad H(x) = y.

The z samples never feed back into x, and the x stages perform literally
the same floating-point operations with or without the z channel, so the
x marginal of an interaction run is bitwise identical to the plain run.
dz/dt is recorded from the right-hand side at the grid points (not by
differencing), which makes the projection an algebraic identity there.

If T is not an integer multiple of h the step is adjusted to T/round(T/h)
so the grid lands exactly on T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .bundles import LinearSubspace
from .courant_core import CourantStructure, dirac_check, standard_structure
from .polyexpr import Polynomial, PolyMap, parse

__all__ = [
    "PHSystem",
    "InputSignal",
    "Trajectory",
    "simulate_ph",
    "simulate_poisson",
    "simulate_interaction",
    "project_behavior",
    "BalanceReport",
    "energy_balance",
    "dirac_structure_of",
    "write_csv",
]


class PHSystem:
    """x' = J grad H + B u with skew J; the skewness check is exact."""

    __slots__ = ("n", "m", "j", "b", "hamiltonian", "label")

    def __init__(self, j, b, hamiltonian: Polynomial, label: str = "ph"):
        jm = linalg.mat(j)
        n = len(jm)
        if any(len(row) != n for row in jm):
            raise ValueError("J must be square")
        for i in range(n):
            for k in range(n):
                if jm[i][k] + jm[k][i] != 0:
                    raise ValueError("J must be exactly skew-symmetric")
        bm = linalg.mat(b) if b else [[] for _ in range(n)]
        if len(bm) != n:
            raise ValueError("B must have one row per state dimension")
        m = len(bm[0]) if bm and bm[0] else 0
        if any(len(row) != m for row in bm):
            raise ValueError("B rows must have equal length")
        if hamiltonian.num_vars != n:
            raise ValueError(
                f"H has {hamiltonian.num_vars} variables, state dimension is {n}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "j", jm)
        object.__setattr__(self, "b", bm)
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("PHSystem is immutable")

    def gradient(self) -> list[Polynomial]:
        return self.hamiltonian.gradient()

    def __repr__(self):
        return f"PHSystem({self.label}: n={self.n}, m={self.m})"


class InputSignal:
    """A polynomial input t -> u(t) in R^m."""

    __slots__ = ("u",)

    def __init__(self, u: PolyMap):
        if u.num_inputs != 1:
            raise ValueError("input signals are functions of the single variable t")
        object.__setattr__(self, "u", u)

    def __setattr__(self, name, value):
        raise AttributeError("InputSignal is immutable")

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        return cls(PolyMap.zero(1, m))

    @classmethod
    def constant(cls, values: Sequence) -> "InputSignal":
        return cls(PolyMap.constant(1, values))

    @classmethod
    def from_exprs(cls, exprs: Sequence[str]) -> "InputSignal":
        return cls(PolyMap(1, [parse(e, ["t"]) for e in exprs]))

    @property
    def m(self) -> int:
        return len(self.u)

    def __repr__(self):
        return f"InputSignal({self.u.to_strings(['t'])})"


@dataclass
class Trajectory:
    """Grid samples of a simulation run."""

    times: np.ndarray          # (N+1,)
    states: np.ndarray         # (N+1, state dim)
    outputs: np.ndarray        # (N+1, m): B^T grad H along the run
    step: float
    system: PHSystem | None = None
    zdot: np.ndarray | None = None     # interaction runs: dz/dt from the RHS
    z_dim: int = 0
    energy_drift: float | None = None  # closed runs: max |H(x_t) - H(x_0)|
    diverged: bool = field(default=False)

    @property
    def x(self) -> np.ndarray:
        """The x block of the states (drops z columns of interaction runs)."""
        dim = self.states.shape[1] - self.z_dim
        return self.states[:, :dim]


def _compile(poly: Polynomial) -> Callable[[np.ndarray], float]:
    terms = [
        (float(coeff), [(i, e) for i, e in enumerate(exps) if e])
        for exps, coeff in poly.terms.items()
    ]

    def evaluate(point) -> float:
        total = 0.0
        for coeff, exps in terms:
            value = coeff
            for i, e in exps:
                value *= point[i] ** e
            total += value
        return total

    return evaluate


def _compile_gradient(h: Polynomial):
    grads = [_compile(g) for g in h.gradient()]

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.array([g(x) for g in grads], dtype=float)

    return evaluate


def _compile_input(u: InputSignal):
    comps = [_compile(p) for p in u.u]

    def evaluate(t: float) -> np.ndarray:
        point = (t,)
        return np.array([c(point) for c in comps], dtype=float)

    return evaluate


def _grid(t_final: float, h: float) -> tuple[int, float]:
    if h <= 0 or t_final <= 0:
        raise ValueError("horizon and step must be positive")
    steps = max(1, round(t_final / h))
    return steps, t_final / steps


def _run(system: PHSystem, u: InputSignal | None, x0, t_final, h, z0=None):
    """Shared RK4 core; the x stage arithmetic never touches z."""
    if u is not None and u.m != system.m:
        raise ValueError(f"input has {u.m} channels, system has {system.m} ports")
    steps, dt = _grid(t_final, h)
    jmat = np.array([[float(v) for v in row] for row in system.j], dtype=float)
    bmat = np.array(
        [[float(v) for v in row] for row in system.b], dtype=float
    ).reshape(system.n, system.m)
    grad = _compile_gradient(system.hamiltonian)
    u_fn = _compile_input(u) if u is not None and system.m else None

    def fx(t: float, x: np.ndarray) -> np.ndarray:
        rhs = jmat @ grad(x)
        if u_fn is not None:
            rhs = rhs + bmat @ u_fn(t)
        return rhs

    track_z = z0 is not None
    x = np.array(x0, dtype=float)
    if x.shape != (system.n,):
        raise ValueError(f"x0 must have {system.n} coordinates")
    if track_z:
        z = np.array(z0, dtype=float)
        if z.shape != (system.m,):
            raise ValueError(f"z0 must have {system.m} coordinates")
    times = np.arange(steps + 1) * dt
    xs = np.empty((steps + 1, system.n))
    xs[0] = x
    zs = np.empty((steps + 1, system.m)) if track_z else None
    if track_z:
        zs[0] = z
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = times[k]
            k1 = fx(t, x)
            k2 = fx(t + dt / 2, x + (dt / 2) * k1)
            k3 = fx(t + dt / 2, x + (dt / 2) * k2)
            k4 = fx(t + dt, x + dt * k3)
            if track_z:
                # z stages reuse the same gradient expressions at the x stage values
                g1 = -(bmat.T @ grad(x))
                g2 = -(bmat.T @ grad(x + (dt / 2) * k1))
                g3 = -(bmat.T @ grad(x + (dt / 2) * k2))
                g4 = -(bmat.T @ grad(x + dt * k3))
                z = z + (dt / 6) * (g1 + 2 * g2 + 2 * g3 + g4)
                zs[k + 1] = z
            x = x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            xs[k + 1] = x
            if not np.all(np.isfinite(x)):
                diverged = True
                times = times[: k + 2]
                xs = xs[: k + 2]
                if track_z:
                    zs = zs[: k + 2]
                break
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = np.array([bmat.T @ grad(xi) for xi in xs])
    return times, xs, zs, outputs, dt, diverged


def simulate_ph(
    system: PHSystem, u: InputSignal, x0, t_final: float, h: float
) -> Trajectory:
    """Integrate the open system; outputs y = B^T grad H(x) on the grid."""
    times, xs, _, outputs, dt, diverged = _run(system, u, x0, t_final, h)
    return Trajectory(times, xs, outputs, dt, system=system, diverged=diverged)


def simulate_poisson(j, hamiltonian: Polynomial, x0, t_final: float, h: float) -> Trajectory:
    """Integrate the closed system x' = J grad H; reports the energy drift."""
    system = PHSystem(j, [[] for _ in range(len(linalg.mat(j)))], hamiltonian, label="closed")
    times, xs, _, outputs, dt, diverged = _run(system, None, x0, t_final, h)
    h_fn = _compile(hamiltonian)
    h0 = h_fn(xs[0])
    drift = max(abs(h_fn(xi) - h0) for xi in xs)
    return Trajectory(
        times, xs, outputs, dt, system=system, energy_drift=drift, diverged=diverged
    )


def simulate_interaction(
    system: PHSystem, u: InputSignal, x0, z0, t_final: float, h: float
) -> Trajectory:
    """Integrate the extended Hamiltonian system on (x, z).

    The state rows are (x, z) concatenated; dz/dt is recorded from the
    right-hand side at each grid point, not by differencing z.
    """
    times, xs, zs, outputs, dt, diverged = _run(system, u, x0, t_final, h, z0=z0)
    states = np.hstack([xs, zs])
    zdot = -outputs  # dz/dt = -B^T grad H(x), evaluated at the grid points
    return Trajectory(
        times, states, outputs, dt, system=system, zdot=zdot,
        z_dim=system.m, diverged=diverged,
    )


def project_behavior(trajectory: Trajectory) -> Trajectory:
    """(x, z) -> (x, -dz/dt): the interaction behavior seen as an open system."""
    if trajectory.zdot is None:
        raise ValueError("project_behavior needs an interaction trajectory")
    return Trajectory(
        trajectory.times,
        trajectory.x.copy(),
        -trajectory.zdot,
        trajectory.step,
        system=trajectory.system,
        diverged=trajectory.diverged,
    )


@dataclass
class BalanceReport:
    delta_energy: float
    supplied: float
    residual: float

    def to_json(self) -> dict:
        return {
            "delta_energy": self.delta_energy,
            "supplied": self.supplied,
            "residual": self.residual,
        }


def energy_balance(trajectory: Trajectory, u: InputSignal) -> BalanceReport:
    """H(x_T) - H(x_0) - integral of y^T u, with Simpson quadrature.

    An odd interval count falls back to a trapezoid on the last interval.
    """
    system = trajectory.system
    if system is None:
        raise ValueError("trajectory carries no system")
    h_fn = _compile(system.hamiltonian)
    u_fn = _compile_input(u) if system.m else None
    xs = trajectory.x
    delta = h_fn(xs[-1]) - h_fn(xs[0])
    integrand = np.zeros(len(trajectory.times))
    if u_fn is not None:
        for idx, t in enumerate(trajectory.times):
            integrand[idx] = float(trajectory.outputs[idx] @ u_fn(t))
    dt = trajectory.step
    intervals = len(trajectory.times) - 1
    supplied = 0.0
    even = intervals if intervals % 2 == 0 else intervals - 1
    for k in range(0, even, 2):
        supplied += (dt / 3) * (integrand[k] + 4 * integrand[k + 1] + integrand[k + 2])
    if intervals % 2:
        supplied += (dt / 2) * (integrand[-2] + integrand[-1])
    return BalanceReport(delta, supplied, abs(delta - supplied))


def interconnection_matrix(system: PHSystem):
    """The skew block [[J, B], [-B^T, 0]] of the interaction system."""
    n, m = system.n, system.m
    total = n + m
    s = linalg.zeros(total, total)
    for i in range(n):
        for k in range(n):
            s[i][k] = system.j[i][k]
        for k in range(m):
            s[i][n + k] = system.b[i][k]
            s[n + k][i] = -system.b[i][k]
    return s


def dirac_structure_of(system: PHSystem) -> tuple[LinearSubspace, bool]:
    """Graph of [[J, B], [-B^T, 0]] inside R^(n+m) (+) its dual, checked.

    Returns the subspace together with the exact maximal-isotropy verdict
    against the standard pairing.
    """
    s = interconnection_matrix(system)
    subspace = LinearSubspace.graph_of_matrix(s)
    ambient: CourantStructure = standard_structure(system.n + system.m)
    return subspace, dirac_check(ambient, subspace)


def write_csv(trajectory: Trajectory, path, include_z: bool = False) -> None:
    """t, x1..xn, y1..ym rows with 17 significant digits."""
    xs = trajectory.states if include_z else trajectory.x
    n_cols = xs.shape[1]
    m = trajectory.outputs.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n_cols)]
        + [f"y{i + 1}" for i in range(m)]
    )
    lines = [",".join(header)]
    for idx, t in enumerate(trajectory.times):
        row = [t, *xs[idx], *trajectory.outputs[idx]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
