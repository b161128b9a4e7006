"""The compiled RK4 core against two plain reference loops.

`reference_run` is the simulator's earliest core: per-term closures for
grad H, J @ grad H + B @ u(t) in numpy, the z stages recomputing grad H at
the four stage points, and the outputs B^T grad H from a separate pass over
the grid.  The compiled core forms J grad H, B^T grad H and B u exactly and
rounds each coefficient once, so the two agree to rounding, not bitwise.
The tolerance was fixed before the comparison: max abs difference <= 1e-12
over 10 000 steps.

`list_reference_run` is the RK4 loop on Python float lists that the fused
loop replaced: the fields compiled term by term, with no term shared
(`unshared_compile`), and called once per stage through a right-hand-side
closure.  Every float of the fused loop, which computes a term magnitude
repeated at a point once, is the one this loop computes, so the two must
agree bitwise, signed zeros and NaNs included.
"""

import itertools
import math

import numpy as np
import pytest

from courantlab.phsim import (
    InputSignal,
    PHSystem,
    _chain,
    _fields,
    _grid,
    _run,
    project_behavior,
    simulate_interaction,
    simulate_ph,
)
from courantlab.polyexpr import Polynomial, parse

TOL = 1e-12
J_OSC = [[0, 1], [-1, 0]]
B_OSC = [[1], [0]]


def _reference_compile(poly):
    terms = [
        (float(coeff), [(i, e) for i, e in enumerate(exps) if e])
        for exps, coeff in poly.terms.items()
    ]

    def evaluate(point):
        total = 0.0
        for coeff, exps in terms:
            value = coeff
            for i, e in exps:
                value *= point[i] ** e
            total += value
        return total

    return evaluate


def unshared_compile(polys, num_vars):
    """point -> [p(point) for p in polys], each term written out on its own:
    its repr(float(coeff)) (left out when coeff = 1) and its variables
    joined by `*`, the terms by ` + `, as the simulator wrote every field
    before it shared repeated terms."""
    names = [f"v{i}" for i in range(num_vars)]
    sums = []
    for poly in polys:
        terms = []
        for exps, coeff in poly.terms.items():
            factors = [] if coeff == 1 else [repr(float(coeff))]
            for name, e in zip(names, exps):
                factors.extend([name] * e)
            terms.append(_chain(factors, "*") if factors else "1.0")
        sums.append(_chain(terms, " + ") if terms else "0.0")
    namespace = {}
    exec(f"def evaluate(point):\n    [{', '.join(names)}] = point\n"
         f"    return [{', '.join(sums)}]", namespace)
    return namespace["evaluate"]


def reference_run(system, u, x0, t_final, h, z0=None):
    """(times, xs, zs, outputs, diverged) from the numpy loop."""
    steps, dt = _grid(t_final, h)
    jmat = np.array([[float(v) for v in row] for row in system.j], dtype=float)
    bmat = np.array(
        [[float(v) for v in row] for row in system.b], dtype=float
    ).reshape(system.n, system.m)
    grads = [_reference_compile(g) for g in system.gradient()]
    comps = [_reference_compile(p) for p in u.u]

    def grad(x):
        return np.array([g(x) for g in grads], dtype=float)

    def u_fn(t):
        return np.array([c((t,)) for c in comps], dtype=float)

    def fx(t, x):
        return jmat @ grad(x) + bmat @ u_fn(t)

    track_z = z0 is not None
    x = np.array(x0, dtype=float)
    z = np.array(z0, dtype=float) if track_z else None
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
        outputs = np.array([bmat.T @ grad(xi) for xi in xs])
    return times, xs, zs, outputs, diverged


def list_reference_run(system, u, x0, t_final, h, z0=None):
    """(times, xs, zs, outputs, dt, diverged) from the list-based loop."""
    steps, dt = _grid(t_final, h)
    n, m = system.n, system.m
    f_polys, y_polys, v_polys = _fields(system, u)
    f_fn = unshared_compile(f_polys, n)
    y_fn = unshared_compile(y_polys, n)
    v_fn = unshared_compile(v_polys, 1) if any(not p.is_zero() for p in v_polys) else None

    def rhs(t, point):
        if v_fn is None:
            return f_fn(point)
        return [a + b for a, b in zip(f_fn(point), v_fn((t,)))]

    track_z = z0 is not None
    x = [float(v) for v in x0]
    z = [float(v) for v in z0] if track_z else None
    times = np.arange(steps + 1) * dt
    xs = np.empty((steps + 1, n))
    ys = np.empty((steps + 1, m))
    zs = np.empty((steps + 1, m)) if track_z else None
    xs[0] = x
    if track_z:
        zs[0] = z
    half, sixth = dt / 2, dt / 6
    rows, diverged = steps + 1, False
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, x)
        x2 = [a + half * b for a, b in zip(x, k1)]
        k2 = rhs(t + half, x2)
        x3 = [a + half * b for a, b in zip(x, k2)]
        k3 = rhs(t + half, x3)
        x4 = [a + dt * b for a, b in zip(x, k3)]
        k4 = rhs(t + dt, x4)
        y1 = y_fn(x)
        ys[k] = y1
        if track_z:
            z = [
                c - sixth * (a + 2 * b + 2 * d + e)
                for c, a, b, d, e in zip(z, y1, y_fn(x2), y_fn(x3), y_fn(x4))
            ]
            zs[k + 1] = z
        x = [a + sixth * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        xs[k + 1] = x
        if not all(map(math.isfinite, x)):
            rows, diverged = k + 2, True
            break
    ys[rows - 1] = y_fn(x)
    return (
        times[:rows], xs[:rows], zs[:rows] if track_z else None, ys[:rows],
        dt, diverged,
    )


def assert_bitwise(got, want):
    """Equal shapes and bytes: array_equal that also tells -0.0 from 0.0."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def oscillator():
    return PHSystem(J_OSC, B_OSC, parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"]))


def quartic():
    """n = 4, m = 2: H = sum a_i/2 x_i^2 + b_i/4 x_i^4, a skew J with gyration."""
    names = ["x1", "x2", "x3", "x4"]
    h = parse(
        "1/2*x1^2 + 1/8*x1^4 + 3/4*x2^2 + 1/16*x2^4 "
        "+ 1/4*x3^2 + 1/8*x3^4 + 1/2*x4^2 + 1/16*x4^4",
        names,
    )
    j = [[0, 1, -2, 0], [-1, 0, 1, 2], [2, -1, 0, -1], [0, -2, 1, 0]]
    b = [[1, 0], [0, 1], [-1, 1], [0, -1]]
    return PHSystem(j, b, h, "quartic")


CASES = [
    ("oscillator_u0", oscillator, InputSignal.zero(1), [1.0, 0.0], [0.0]),
    ("oscillator_u1", oscillator, InputSignal.constant([1]), [1.0, 0.0], [0.0]),
    ("oscillator_ut", oscillator, InputSignal.from_exprs(["t"]), [1.0, 0.0], [0.0]),
    ("quartic", quartic, InputSignal.from_exprs(["1/20 - 1/200*t", "-1/40 + 1/200*t"]),
     [0.6, -0.3, 0.8, 0.1], [0.25, -0.5]),
]


@pytest.mark.parametrize("name, make, u, x0, z0", CASES, ids=[c[0] for c in CASES])
def test_matches_reference_loop_over_10000_steps(name, make, u, x0, z0):
    system = make()
    times, xs, zs, outputs, diverged = reference_run(system, u, x0, 10.0, 1e-3, z0=z0)
    assert len(times) == 10_001 and not diverged
    ph = simulate_ph(system, u, x0, 10.0, 1e-3)
    inter = simulate_interaction(system, u, x0, z0, 10.0, 1e-3)
    assert np.array_equal(ph.times, times) and np.array_equal(inter.times, times)
    assert np.abs(ph.x - xs).max() <= TOL
    assert np.abs(ph.outputs - outputs).max() <= TOL
    assert np.abs(inter.x - xs).max() <= TOL
    assert np.abs(inter.states[:, system.n:] - zs).max() <= TOL
    assert np.abs(inter.outputs - outputs).max() <= TOL


def test_divergence_index_matches_reference():
    # test_overflow_detection's system stops after step 2, H = x1^4 + x2^4
    # from x1 = 1e100 after step 1; both keep their first non-finite row
    cases = [
        (PHSystem(J_OSC, [[0], [0]], parse("x1^2*x2^2", ["x1", "x2"])),
         [10.0, 10.0], 50.0, 0.5, 3),
        (PHSystem(J_OSC, B_OSC, parse("x1^4 + x2^4", ["x1", "x2"])),
         [1e100, 1.0], 1.0, 0.1, 2),
    ]
    for system, x0, t_final, h, rows in cases:
        u = InputSignal.zero(1)
        times, xs, _, _, diverged = reference_run(system, u, x0, t_final, h)
        assert diverged and len(times) == rows
        for traj in (simulate_ph(system, u, x0, t_final, h),
                     simulate_interaction(system, u, x0, [0.0], t_final, h)):
            assert traj.diverged
            assert len(traj.times) == traj.states.shape[0] == traj.outputs.shape[0] == rows
            assert np.abs(traj.x[:-1] - xs[:-1]).max() <= TOL * np.abs(xs[:-1]).max()
            assert not np.all(np.isfinite(traj.x[-1]))


def diverging_quadratic():
    return PHSystem(J_OSC, [[0], [0]], parse("x1^2*x2^2", ["x1", "x2"]))


def diverging_quartic():
    return PHSystem(J_OSC, B_OSC, parse("x1^4 + x2^4", ["x1", "x2"]))


def closed_oscillator():
    """m = 0: the closed system of `simulate_poisson`, with no input."""
    return PHSystem(J_OSC, [[], []], parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"]))


def shared_in_f():
    """F = (2 x2 + 2 x3, -2 x1 + 2 x3, -2 x1 - 2 x2) and Y = 2 x3: the
    magnitude 2 x2 is shared by F_1 and F_3 alone, negated in F_3."""
    j = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    return PHSystem(j, [[0], [0], [1]], parse("x1^2 + x2^2 + x3^2", ["x1", "x2", "x3"]))


# (name, system, input, x0, z0, T, h, rows); rows < T/h + 1 marks a divergence
BITWISE_CASES = [
    *((name, make, u, x0, z0, 10.0, 1e-3, 10_001) for name, make, u, x0, z0 in CASES),
    ("diverging_quadratic", diverging_quadratic, InputSignal.zero(1),
     [10.0, 10.0], [0.5], 50.0, 0.5, 3),
    ("diverging_quartic", diverging_quartic, InputSignal.from_exprs(["1 + t"]),
     [1e100, 1.0], [0.5], 1.0, 0.1, 2),
    ("closed_m0", closed_oscillator, None, [1.0, 0.5], None, 1.0, 1e-3, 1001),
    ("shared_in_f", shared_in_f, InputSignal.from_exprs(["1/10*t"]), [0.3, -0.2, 0.5],
     [0.1], 1.0, 1e-3, 1001),
    # V = (1, 0): the zero component is still added, turning x2 = -0.0 into 0.0
    ("signed_zero_u1", oscillator, InputSignal.constant([1]), [0.0, -0.0], [-0.0],
     0.1, 1e-3, 101),
]


@pytest.mark.parametrize("name, make, u, x0, z0, t_final, h, rows", BITWISE_CASES,
                         ids=[c[0] for c in BITWISE_CASES])
def test_fused_loop_bitwise_equals_list_loop(name, make, u, x0, z0, t_final, h, rows):
    system = make()
    for z in [None] if z0 is None else [None, z0]:
        want = list_reference_run(system, u, x0, t_final, h, z0=z)
        got = _run(system, u, x0, t_final, h, z0=z)
        assert_bitwise(got, want)
        times, xs, zs, outputs, _, diverged = got
        assert len(times) == rows and diverged == (rows < round(t_final / h) + 1)
        if z is not None:
            # the z rows stop at the same grid row as x
            assert zs.shape == (rows, system.m)


@pytest.mark.parametrize("name, make, u, x0, z0, t_final, h, rows",
                         [case for case in BITWISE_CASES if case[4] is not None],
                         ids=[case[0] for case in BITWISE_CASES if case[4] is not None])
def test_z_moves_no_x_row_and_no_output(name, make, u, x0, z0, t_final, h, rows):
    # the premise of the CLI's `project`, which writes the open run's rows:
    # the x rows and outputs of a run with z are those of the run without
    # it, bit for bit, and so is every other result but the z rows; the
    # projection's outputs -(-Y) are Y
    system = make()
    times, xs, zs, outputs, dt, diverged = _run(system, u, x0, t_final, h, z0=z0)
    assert zs.shape == (rows, system.m)
    assert_bitwise((times, xs, None, outputs, dt, diverged), _run(system, u, x0, t_final, h))
    projected = project_behavior(simulate_interaction(system, u, x0, z0, t_final, h))
    ph = simulate_ph(system, u, x0, t_final, h)
    assert_bitwise([projected.times, projected.states, projected.outputs, projected.diverged],
                   [ph.times, ph.states, ph.outputs, ph.diverged])


def test_long_chains_compile_in_the_fused_loop():
    # F_1 = Y_1 = x1^5000 + every monomial of degree <= 3 in x2..x31, 5457
    # terms: both chains pass CPython's compiler depth unless `_chain`
    # groups them, and F_1 appears once per stage
    n = 32
    terms = {}
    for degree in range(4):
        for combo in itertools.combinations_with_replacement(range(1, 31), degree):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            exps[31] = 1
            terms[tuple(exps)] = 1
    terms[(5000,) + (0,) * 30 + (1,)] = 1
    j = [[0] * n for _ in range(n)]
    j[0][31], j[31][0] = 1, -1
    b = [[0] for _ in range(n)]
    b[31][0] = 1
    system = PHSystem(j, b, Polynomial(n, terms))
    u = InputSignal.constant([1])
    x0 = [0.99] + [0.01] * 31
    got = _run(system, u, x0, 0.002, 1e-3)
    assert_bitwise(got, list_reference_run(system, u, x0, 0.002, 1e-3))
    assert np.all(np.isfinite(got[1])) and 0.0 < got[1][-1, 0] ** 5000


def test_shared_negative_term_keeps_the_nan_bits():
    # H = 3/4 x1^2 x2: F_2 = -3/2 x1 x2 and Y = 3/2 x1 x2 share one
    # magnitude, which opens F_2's sum as -1.0*name wherever Y is evaluated.
    # From x1 = 1e200 the first slope F_1 = 3/4 x1^2 overflows, so the
    # stage-1 point is (inf, 0.0) and inf * 0.0 is a NaN there; a unary
    # minus would flip its sign bit
    system = PHSystem(J_OSC, B_OSC, parse("3/4*x1^2*x2", ["x1", "x2"]))
    u = InputSignal.zero(1)
    for z in (None, [0.5]):
        want = list_reference_run(system, u, [1e200, 0.0], 1.0, 0.1, z0=z)
        got = _run(system, u, [1e200, 0.0], 1.0, 0.1, z0=z)
        assert_bitwise(got, want)
        times, xs, _, outputs, _, diverged = got
        assert diverged and len(times) == 2 and np.isnan(xs[1, 1]) and np.isnan(outputs[1, 0])
