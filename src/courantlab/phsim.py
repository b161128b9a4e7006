"""Port-Hamiltonian simulation and the behavior projection.

Three closely related systems share one fixed-step RK4 integrator:

  open system        dx/dt = J grad H(x) + B u(t),   y = B^T grad H(x)
  closed system      dx/dt = J grad H(x)
  interaction system dx/dt = J grad H(x) + B u(t),   dz/dt = -B^T grad H(x)

with J skew (checked exactly on rational input), H an exact polynomial and
u polynomial in t.  The interaction system is the closed Hamiltonian system
of H_u(t, x, z) = H(x) + u(t)^T z on the extended space, and projecting its
trajectories by (x, z) -> (x, -dz/dt) recovers the open system's behavior:
-dz/dt = B^T grad H(x) = y.

Every right-hand side is a polynomial, so a run first forms its fields
exactly, once, in the rational kernel:

  F_i(x) = sum_k J_ik dH/dx_k     n polynomials in x
  Y_l(x) = sum_i B_il dH/dx_i     m polynomials in x
  V_i(t) = sum_l B_il u_l(t)      n polynomials in t

and generates one RK4 loop function per run from them (`_loop`), from float
source built of `repr(float(coeff))` literals and generated names only, so
no scene text reaches it and each coefficient is rounded once.  The loop
keeps x (and z) in scalar locals, evaluates V once per time point (never
when V = 0) and stores grid rows in `array('d')` columns.  Its floats are
those of the list-based RK4 loop it replaced, bit for bit:

  k_s = (F(stage point s)) + V(stage time s)    no "+ V" when V = 0
  stage points x + (h/2) k_1, x + (h/2) k_2, x + h k_3
  x <- x + (h/6) (k_1 + 2 k_2 + 2 k_3 + k_4)
  z <- z - (h/6) (y_1 + 2 y_2 + 2 y_3 + y_4)

Leaving out "+ V" keeps a -0.0 slope -0.0.  The output at grid point k is
Y(x_k), the stage-1 evaluation of step k (the last grid point gets one
evaluation after the loop).  An interaction run also evaluates Y at the
other three stage points, for its z stages.

Each evaluation point (a stage point with F, and with Y where it is
evaluated there; the final x with Y; a time point with V) computes each
distinct term once (`_emit`).  A term's magnitude is |c| * x * ... * y, the
literal left out where it is 1.0; one that occurs more than once at the point
is bound to a local, and every other term keeps its own text, the chain of
repr(float(c)) and the variables.  A shared term after the first of its
sum (or of its `_CHAIN` group) is added as `+ name`, or subtracted as
`- name` when c < 0; a negative shared term that opens a sum or group is
written `-1.0*name`.  Every float, NaN bits included, is the unshared one:
(-|c|) * x * ... * y and -1.0 * (|c| * x * ... * y) are both the exact
negation of |c| * x * ... * y, since rounding is symmetric, a NaN made
inside the chain (inf * 0) is the same default NaN either way, and an
operation with one NaN operand returns that NaN (as x86-64 SSE2 does); and
a - u is a + (-u) exactly.  A unary minus would flip a NaN's sign, so none
is written.  Only flat chains are shared: a chain of more than `_CHAIN`
operands is grouped, and its groups set its rounding.

The z samples never feed back into x.  With the z channel, F shares terms
with Y at all four stage points instead of the first alone, which changes
the source of the x statements but, sharing being exact, none of their
floats: the x marginal of an interaction run is bitwise identical to the
plain run.  So are its outputs: both loops emit stage-1 Y from the family
F + Y at x, and the last one from Y alone.  dz/dt is recorded from the
right-hand side at the grid points (not by differencing), which makes the
projection an algebraic identity there, and `project_behavior` gives
-dz/dt = -(-Y), which is Y bit for bit: a sign flipped twice, a NaN's too.
The projected interaction run is the open run, and the CLI's `project`
writes `simulate_ph`'s rows.

A run stops after the first grid row whose x is not finite, keeps that row
and reports `diverged`.  The generated code writes powers as repeated
products, which overflow to inf where `float ** int` would raise.

If T is not an integer multiple of h the step is adjusted to T/round(T/h)
so the grid lands exactly on T.

numpy is imported on first use by the four functions that build or read
arrays (`_run`, `simulate_interaction`, `energy_balance`, `write_csv`), and
`write_csv` imports the CSV text writer `_csvtext`, which imports numpy at
its top, on its first call, so importing this module, and every exact
command with it, never loads either.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, Sequence

from . import linalg
from .bundles import LinearSubspace
from .courant_core import dirac_check, standard_structure
from .polyexpr import Frozen, Polynomial, PolyMap, _unpack, parse, poly_sum

if TYPE_CHECKING:
    import numpy as np

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


class PHSystem(Frozen):
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
        self._set(n, m, jm, bm, hamiltonian, label)

    def gradient(self) -> list[Polynomial]:
        return self.hamiltonian.gradient()

    def __repr__(self):
        return f"PHSystem({self.label}: n={self.n}, m={self.m})"


class InputSignal(Frozen):
    """A polynomial input t -> u(t) in R^m."""

    __slots__ = ("u",)

    def __init__(self, u: PolyMap):
        if u.num_inputs != 1:
            raise ValueError("input signals are functions of the single variable t")
        self._set(u)

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


class Trajectory:
    """Grid samples of a simulation run: `times` (N+1,), `states` (N+1,
    state dim) and `outputs` (N+1, m), B^T grad H along the run.  An
    interaction run keeps dz/dt from the RHS as `zdot`; a closed run keeps
    max |H(x_t) - H(x_0)| as `energy_drift`."""

    def __init__(self, times: np.ndarray, states: np.ndarray, outputs: np.ndarray, step: float,
                 system: PHSystem | None = None, zdot: np.ndarray | None = None, z_dim: int = 0,
                 energy_drift: float | None = None, diverged: bool = False):
        self.times, self.states, self.outputs, self.step = times, states, outputs, step
        self.system, self.zdot, self.z_dim = system, zdot, z_dim
        self.energy_drift, self.diverged = energy_drift, diverged

    @property
    def x(self) -> np.ndarray:
        """The x block of the states (drops z columns of interaction runs)."""
        dim = self.states.shape[1] - self.z_dim
        return self.states[:, :dim]


# Operands per flat `+` or `*` chain.  Longer chains are grouped in
# parentheses, because CPython's compiler recurses once per operand of a
# chain and fails at a few thousand (a monomial x1^32767, a sum of 10^4 terms).
_CHAIN = 64


def _chain(operands: list[str], op: str) -> str:
    """Join left to right, grouping runs of _CHAIN operands if there are more."""
    while len(operands) > _CHAIN:
        operands = [
            "(" + op.join(operands[i:i + _CHAIN]) + ")"
            for i in range(0, len(operands), _CHAIN)
        ]
    return op.join(operands)


def _terms(poly: Polynomial) -> list[str]:
    """Each term's own float source, over the format fields {0}, {1}, ...
    for poly's variables: the product chain of `repr(float(coeff))` (left
    out when coeff = 1) and the variables, a power written as repeated
    products, so overflow gives inf rather than OverflowError.  A
    coefficient outside the float range raises ValueError.
    """
    names, terms = [f"{{{i}}}" for i in range(poly.num_vars)], []
    for key, coeff in poly._packed.items():
        try:
            literal = repr(float(coeff))
        except OverflowError:
            size = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
            raise ValueError(f"a field coefficient of size 10^{size:.0f} is outside "
                             "the float range") from None
        chain = [name for name, e in zip(names, _unpack(key, len(names))) if e for _ in range(e)]
        terms.append(_chain(([] if coeff == 1 else [literal]) + chain, "*") or "1.0")
    return terms


def _emit(rows: list[list[str]]):
    """The float source of the polys whose `_terms` are rows, at a point:
    `_emit(rows)(point, tag)` gives (bindings, sums), built from the terms,
    the point's names, `+`, `-` and grouping parentheses; no text from a
    scene reaches it.  A term's key is its magnitude, its text without the
    sign and without a factor 1.0 (an exact one).  Each key of a flat
    product that occurs more than once is computed once, by a binding
    `w<tag>_<i> = key`, and read by name: a negated one as -1.0*name where
    it opens a sum or a `_CHAIN` group and as `- name` after another term
    (see the module docstring).  Every other term keeps its text.  The
    source is built once, over the fields of `_terms` and {t} for the tag,
    and formatted at each point.
    """
    keys = [[text.lstrip("-").removeprefix("1.0*") for text in row] for row in rows]
    counts = Counter(key for row in keys for key in row if "*" in key and "(" not in key)
    shared = {key: f"w{{t}}_{i}" for i, key in
              enumerate(key for key, count in counts.items() if count > 1)}
    sums = [_chain([("-1.0*" if text[0] == "-" else "") + shared[key] if key in shared
                    else text for text, key in zip(row, row_keys)], " + ") or "0.0"
            for row, row_keys in zip(rows, keys)]
    # a negated shared term after another is subtracted: in the templates,
    # only the shared names start with w
    templates = ([f"{name} = {key}" for key, name in shared.items()],
                 [src.replace(" + -1.0*w", " - w") for src in sums])
    return lambda point, tag: [[src.format(*point, t=tag) for src in part] for part in templates]


def _define(lines: list[str], name: str):
    namespace: dict = {}
    exec(compile("\n".join(lines), "<phsim field>", "exec"), namespace)
    return namespace[name]


def _compile(polys: Iterable[Polynomial], num_vars: int):
    """One float function: point -> [p(point) for p in polys] (see `_emit`)."""
    names = [f"v{i}" for i in range(num_vars)]
    bindings, sums = _emit([_terms(p) for p in polys])(names, "")
    return _define([
        "def evaluate(point):", f"    [{', '.join(names)}] = point",
        *("    " + line for line in bindings), "    return [" + ", ".join(sums) + "]",
    ], "evaluate")


def _fields(system: PHSystem, u: InputSignal | None):
    """F = J grad H, Y = B^T grad H and V = B u, formed exactly."""
    n = system.n
    grad = system.gradient()
    f = [poly_sum(n, (g * c for g, c in zip(grad, row))) for row in system.j]
    y = [
        poly_sum(n, (g * row[l] for g, row in zip(grad, system.b)))
        for l in range(system.m)
    ]
    v = [] if u is None else [
        poly_sum(1, (p * c for p, c in zip(u.u, row))) for row in system.b
    ]
    return f, y, v


def _grid(t_final: float, h: float) -> tuple[int, float]:
    if h <= 0 or t_final <= 0:
        raise ValueError("horizon and step must be positive")
    steps = max(1, round(t_final / h))
    return steps, t_final / steps


def _loop(f_polys, y_polys, v_polys, track_z: bool):
    """The fused RK4 loop of a run (see the module docstring); V is None when zero.

    The generated run(steps, dt, half, sixth, isfinite, *x, *z, *X, *Y, *Z)
    starts from the scalars x and z, stores grid row j of each coordinate in
    its column buffer (X[i][j], Y[l][j], Z[l][j]) and returns (rows, diverged).
    """
    n, m = len(f_polys), len(y_polys)
    x, z = [f"x{i}" for i in range(n)], [f"z{l}" for l in range(m if track_z else 0)]
    points = [x] + [[f"p{s}_{i}" for i in range(n)] for s in (1, 2, 3)]
    f_rows, y_rows = ([_terms(p) for p in polys] for polys in (f_polys, y_polys))
    # F shares its terms with Y at each point where Y is evaluated; each
    # family's source is built once and formatted at its points
    stages = [_emit(f_rows + y_rows)] + [_emit(f_rows + (y_rows if track_z else []))] * 3
    body, ys = [], []
    if v_polys is not None:
        at = _emit([_terms(p) for p in v_polys])
        body = ["t0 = k * dt", "t1 = t0 + half", "t3 = t0 + dt"]
        for t in ("t0", "t1", "t3"):
            bindings, sums = at([t], t)
            body += bindings + [f"v{t[1]}_{i} = {src}" for i, src in enumerate(sums)]
    for s, (point, at) in enumerate(zip(points, stages)):
        bindings, sums = at(point, s)
        body += bindings + [f"k{s}_{i} = " + (
            src if v_polys is None else f"({src}) + v{'0113'[s]}_{i}")
            for i, src in enumerate(sums[:n])]
        ys += [f"y{s}_{l} = {src}" for l, src in enumerate(sums[n:])]
        if s < 3:
            step = "dt" if s == 2 else "half"
            body += [f"p{s + 1}_{i} = x{i} + {step} * k{s}_{i}" for i in range(n)]
    body += ys + [f"Y{l}[k] = y0_{l}" for l in range(m)] + ["j = k + 1"]

    def rk4(name, sign, slope, i):
        return [f"{name} = {name} {sign} sixth * ({slope}0_{i} + 2.0 * {slope}1_{i} + "
                f"2.0 * {slope}2_{i} + {slope}3_{i})", f"{name.upper()}[j] = {name}"]

    for l, name in enumerate(z):
        body += rk4(name, "-", "y", l)
    for i, name in enumerate(x):
        body += rk4(name, "+", "k", i)
    finite = " and ".join(f"isfinite({name})" for name in x) or "True"
    body += [f"if not ({finite}):", "    diverged = True", "    break"]
    columns = [v.upper() for v in x] + [f"Y{l}" for l in range(m)] + [v.upper() for v in z]
    bindings, sums = _emit(y_rows)(x, 4)
    return _define([
        f"def run(steps, dt, half, sixth, isfinite, {', '.join(x + z + columns)}):",
        "    diverged = False",
        "    for k in range(steps):",
        *("        " + line for line in body),
        *("    " + line for line in bindings),
        *(f"    Y{l}[j] = {src}" for l, src in enumerate(sums)),
        "    return j + 1, diverged",
    ], "run")


def _run(system: PHSystem, u: InputSignal | None, x0, t_final, h, z0=None):
    """Shared RK4 core: one generated loop per run; the x stages never read z."""
    import numpy as np

    if u is not None and u.m != system.m:
        raise ValueError(f"input has {u.m} channels, system has {system.m} ports")
    steps, dt = _grid(t_final, h)
    n, m = system.n, system.m
    f_polys, y_polys, v_polys = _fields(system, u)
    if all(p.is_zero() for p in v_polys):
        v_polys = None
    track_z = z0 is not None
    run = _loop(f_polys, y_polys, v_polys, track_z)
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have {n} coordinates")
    z = np.array(z0 if track_z else [], dtype=float)
    if track_z and z.shape != (m,):
        raise ValueError(f"z0 must have {m} coordinates")
    x, z = x.tolist(), z.tolist()
    # row 0 holds the initial state; the loop writes every later row it keeps
    buffers = [array("d", [v]) * (steps + 1) for v in x + [0.0] * m + z]
    rows, diverged = run(steps, dt, dt / 2, dt / 6, math.isfinite, *x, *z, *buffers)
    table = np.array(buffers).reshape(len(buffers), steps + 1).T[:rows]
    return (
        np.arange(rows) * dt, table[:, :n], table[:, n + m:] if track_z else None,
        table[:, n:n + m], dt, diverged,
    )


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
    h_fn = _compile([hamiltonian], system.n)
    energies = [h_fn(xi)[0] for xi in xs.tolist()]
    drift = max(abs(e - energies[0]) for e in energies)
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
    import numpy as np

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


class BalanceReport:
    def __init__(self, delta_energy: float, supplied: float, residual: float):
        self.delta_energy, self.supplied, self.residual = delta_energy, supplied, residual

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
    import numpy as np

    system = trajectory.system
    if system is None:
        raise ValueError("trajectory carries no system")
    h_fn = _compile([system.hamiltonian], system.n)
    u_fn = _compile(u.u, 1) if system.m else None
    xs = trajectory.x
    delta = h_fn(xs[-1].tolist())[0] - h_fn(xs[0].tolist())[0]
    integrand = np.zeros(len(trajectory.times))
    if u_fn is not None:
        for idx, t in enumerate(trajectory.times.tolist()):
            integrand[idx] = float(trajectory.outputs[idx] @ u_fn((t,)))
    dt = trajectory.step
    intervals = len(trajectory.times) - 1
    supplied = 0.0
    even = intervals if intervals % 2 == 0 else intervals - 1
    for k in range(0, even, 2):
        supplied += (dt / 3) * (integrand[k] + 4 * integrand[k + 1] + integrand[k + 2])
    if intervals % 2:
        supplied += (dt / 2) * (integrand[-2] + integrand[-1])
    return BalanceReport(delta, supplied, abs(delta - supplied))


def dirac_structure_of(system: PHSystem) -> tuple[LinearSubspace, bool]:
    """Graph of [[J, B], [-B^T, 0]] inside R^(n+m) (+) its dual, checked.

    Returns the subspace together with `dirac_check`'s exact verdict,
    Dirac (isotropic, half rank, closed), in the standard structure on
    R^(n+m), whose metric is the split pairing
    <(v, p), (v', p')> = p(v') + p'(v).
    """
    j, b, m = system.j, system.b, system.m
    subspace = LinearSubspace.graph_of_matrix(
        [jr + br for jr, br in zip(j, b)] + [[-row[l] for row in b] + [0] * m for l in range(m)])
    return subspace, dirac_check(standard_structure(system.n + m), subspace)


# rows formatted per write: bounds the text and the digit arrays held at
# once.  On a quartic run's 10 001 rows of 7 values (2-vCPU VM), 512 rows
# took 10.4 ms against 12.3 ms at 256, 9.6 ms at 1024 and 15.9 ms for the
# whole run at once.  The simulate bench's peak RSS read 54.6 MB in 4 of 8
# runs at 1024 rows (49.6-50.2 MB in the others), 49.5-49.7 MB in all 7 at
# 512 rows, and 48.2-48.5 MB with one '%.17g' per value
_CSV_CHUNK = 512


def write_csv(trajectory: Trajectory, path) -> None:
    """t, x1..xn, y1..ym rows with 17 significant digits, the bytes of
    '%.17g' per value, written in chunks of `_CSV_CHUNK` rows whose text
    `_csvtext.rows_text` forms in numpy; the states z of an interaction run
    are not written."""
    import numpy as np

    from ._csvtext import rows_text

    xs = trajectory.x
    n_cols = xs.shape[1]
    m = trajectory.outputs.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n_cols)]
        + [f"y{i + 1}" for i in range(m)]
    )
    times = trajectory.times
    with nullcontext(path) if hasattr(path, "write") else open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(times), _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            fh.write(rows_text(np.hstack(
                [times[start:stop, None], xs[start:stop], trajectory.outputs[start:stop]])))
