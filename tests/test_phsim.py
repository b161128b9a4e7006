import io
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from courantlab.courant_core import dirac_check, standard_structure
from courantlab.bundles import LinearSubspace
from courantlab.phsim import (
    InputSignal,
    PHSystem,
    Trajectory,
    _compile,
    dirac_structure_of,
    energy_balance,
    project_behavior,
    simulate_interaction,
    simulate_ph,
    simulate_poisson,
    write_csv,
)
from courantlab.polyexpr import Polynomial, parse


J_OSC = [[0, 1], [-1, 0]]
B_OSC = [[1], [0]]


def oscillator():
    h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
    return PHSystem(J_OSC, B_OSC, h, "oscillator")


def closed_form(t):
    return np.array([math.cos(t), -math.sin(t)])


class TestPHSystem:
    def test_skewness_enforced(self):
        h = parse("x1^2", ["x1", "x2"])
        with pytest.raises(ValueError, match="skew"):
            PHSystem([[0, 1], [1, 0]], [[0], [0]], h)

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="variables"):
            PHSystem(J_OSC, B_OSC, parse("x1", ["x1"]))


class TestSimulatePH:
    def test_closed_rotation_over_one_period(self):
        sys = oscillator()
        traj = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 2 * math.pi, 1e-3)
        assert np.abs(traj.x[-1] - np.array([1.0, 0.0])).max() <= 1e-6
        # against the closed form along the whole grid
        for k in (0, 1000, 3000, len(traj.times) - 1):
            assert np.abs(traj.x[k] - closed_form(traj.times[k])).max() <= 1e-9

    def test_zero_b_matches_poisson(self):
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        sys = PHSystem(J_OSC, [[0], [0]], h)
        open_run = simulate_ph(sys, InputSignal.from_exprs(["t"]), [1.0, 0.5], 1.0, 1e-3)
        closed_run = simulate_poisson(J_OSC, h, [1.0, 0.5], 1.0, 1e-3)
        assert np.array_equal(open_run.x, closed_run.x)

    def test_zero_hamiltonian(self):
        sys = PHSystem(J_OSC, B_OSC, Polynomial(2))
        traj = simulate_ph(sys, InputSignal.zero(1), [2.0, -1.0], 1.0, 1e-2)
        assert np.all(traj.x == traj.x[0])
        assert np.all(traj.outputs == 0.0)

    def test_grid_lands_on_horizon(self):
        sys = oscillator()
        traj = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 2 * math.pi, 1e-3)
        assert traj.times[-1] == pytest.approx(2 * math.pi, abs=0, rel=1e-15)

    def test_overflow_detection(self):
        # H = -x1^2 x2^2 style growth: J drives x along an unstable cubic
        h = parse("x1^2*x2^2", ["x1", "x2"])
        sys = PHSystem([[0, 1], [-1, 0]], [[0], [0]], h)
        traj = simulate_ph(sys, InputSignal.zero(1), [10.0, 10.0], 50.0, 0.5)
        assert traj.diverged

    def test_divergence_on_the_last_step(self):
        h = parse("x1^4 + x2^4", ["x1", "x2"])
        sys = PHSystem(J_OSC, B_OSC, h)
        traj = simulate_ph(sys, InputSignal.zero(1), [1e100, 1.0], 0.1, 0.1)
        assert traj.diverged and len(traj.times) == 2
        assert not np.all(np.isfinite(traj.x[-1]))


class TestSimulatePoisson:
    def test_energy_drift_bound(self):
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        traj = simulate_poisson(J_OSC, h, [1.0, 0.0], 2 * math.pi, 1e-3)
        assert traj.energy_drift <= 1e-10

    def test_linear_h_zero_j(self):
        h = parse("x1 + 2*x2", ["x1", "x2"])
        traj = simulate_poisson([[0, 0], [0, 0]], h, [3.0, 4.0], 1.0, 1e-2)
        assert np.all(traj.x == traj.x[0])

    def test_u_independence(self):
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        closed_run = simulate_poisson(J_OSC, h, [1.0, 0.0], 1.0, 1e-3)
        sys = PHSystem(J_OSC, [[0], [0]], h)
        open_run = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 1.0, 1e-3)
        assert np.array_equal(closed_run.times, open_run.times)
        assert np.array_equal(closed_run.x, open_run.x)

    def test_signed_zero_survives_without_input(self):
        # with V = 0 the slope is J grad H alone, never J grad H + 0.0, so
        # x2 = -0.0 with slope -1.0*x1 = -0.0 stays -0.0; the closed run
        # (m = 0) and the open run with u = 0 are the same floats
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        closed_run = simulate_poisson(J_OSC, h, [0.0, -0.0], 1.0, 1e-2)
        open_run = simulate_ph(oscillator(), InputSignal.zero(1), [0.0, -0.0], 1.0, 1e-2)
        assert not np.any(closed_run.x) and np.all(np.signbit(closed_run.x[:, 1]))
        assert closed_run.x.tobytes() == open_run.x.tobytes()
        assert closed_run.outputs.shape == (101, 0)


class TestInteraction:
    def test_x_marginal_bitwise_equal(self):
        sys = oscillator()
        for u in (InputSignal.zero(1), InputSignal.constant([1]),
                  InputSignal.from_exprs(["t"])):
            ph = simulate_ph(sys, u, [1.0, 0.0], 1.0, 1e-3)
            inter = simulate_interaction(sys, u, [1.0, 0.0], [0.0], 1.0, 1e-3)
            assert np.array_equal(ph.x, inter.x)

    def test_constant_u_conserves_interaction_hamiltonian(self):
        sys = oscillator()
        inter = simulate_interaction(sys, InputSignal.constant([1]), [1.0, 0.0],
                                     [0.0], 1.0, 1e-3)
        hu = 0.5 * (inter.x[:, 0] ** 2 + inter.x[:, 1] ** 2) + inter.states[:, 2]
        assert np.abs(hu - hu[0]).max() <= 1e-8

    def test_zero_b_keeps_z_constant(self):
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        sys = PHSystem(J_OSC, [[0], [0]], h)
        inter = simulate_interaction(sys, InputSignal.zero(1), [1.0, 0.0],
                                     [0.7], 1.0, 1e-2)
        assert np.all(inter.states[:, 2] == 0.7)


class TestProjection:
    def test_projection_is_rhs_identity(self):
        sys = oscillator()
        inter = simulate_interaction(sys, InputSignal.constant([1]), [1.0, 0.0],
                                     [0.0], 1.0, 1e-3)
        projected = project_behavior(inter)
        grad_outputs = inter.outputs  # B^T grad H(x) at the grid points
        assert np.abs(projected.outputs - grad_outputs).max() == 0.0

    def test_projection_matches_open_system_output(self):
        sys = oscillator()
        for u in (InputSignal.zero(1), InputSignal.constant([1]),
                  InputSignal.from_exprs(["t"])):
            ph = simulate_ph(sys, u, [1.0, 0.0], 1.0, 1e-3)
            inter = simulate_interaction(sys, u, [1.0, 0.0], [0.0], 1.0, 1e-3)
            projected = project_behavior(inter)
            assert np.abs(projected.outputs - ph.outputs).max() <= 1e-12

    def test_needs_interaction_trajectory(self):
        sys = oscillator()
        ph = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 0.1, 1e-2)
        with pytest.raises(ValueError):
            project_behavior(ph)


class TestEnergyBalance:
    def test_conservation_with_zero_input(self):
        sys = oscillator()
        traj = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 2 * math.pi, 1e-3)
        report = energy_balance(traj, InputSignal.zero(1))
        assert report.residual <= 1e-10

    def test_unit_input_balance(self):
        sys = oscillator()
        u = InputSignal.constant([1])
        traj = simulate_ph(sys, u, [1.0, 0.0], 1.0, 1e-3)
        report = energy_balance(traj, u)
        assert report.residual <= 1e-8

    def test_zero_hamiltonian_exact(self):
        sys = PHSystem(J_OSC, B_OSC, Polynomial(2))
        u = InputSignal.constant([1])
        traj = simulate_ph(sys, u, [1.0, 1.0], 1.0, 1e-2)
        report = energy_balance(traj, u)
        assert report.residual == 0.0

    def test_odd_grid_trapezoid_fallback(self):
        sys = oscillator()
        u = InputSignal.constant([1])
        traj = simulate_ph(sys, u, [1.0, 0.0], 0.101, 1e-3)  # 101 intervals
        report = energy_balance(traj, u)
        assert report.residual <= 1e-8


class TestRK4Order:
    def test_halving_reduces_error_sixteen_fold(self):
        sys = oscillator()

        def final_error(h):
            traj = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 1.0, h)
            return np.abs(traj.x[-1] - closed_form(1.0)).max()

        factor = final_error(2e-3) / final_error(1e-3)
        assert 12 <= factor <= 20


class TestDiracStructure:
    def test_oscillator_graph_is_dirac(self):
        subspace, verdict = dirac_structure_of(oscillator())
        assert verdict and subspace.dim == 3

    def test_zero_b_graph_of_j_alone(self):
        h = parse("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
        sys = PHSystem(J_OSC, [[0], [0]], h)
        subspace, verdict = dirac_structure_of(sys)
        assert verdict

    def test_symmetric_graph_rejected_by_checker(self):
        s = standard_structure(3)
        sym = LinearSubspace.graph_of_matrix(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert not dirac_check(s, sym)


class TestCSV:
    def test_header_and_precision(self):
        sys = oscillator()
        traj = simulate_ph(sys, InputSignal.zero(1), [1.0, 0.0], 0.01, 1e-3)
        buffer = io.StringIO()
        write_csv(traj, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "t,x1,x2,y1"
        assert len(lines) == len(traj.times) + 1
        value = float(lines[2].split(",")[1])
        assert value == traj.x[1][0]  # 17 significant digits round-trip

    def test_bytes_match_per_value_format(self, tmp_path):
        # 2500 rows span several write chunks; rows hold inf, nan and -0.0
        rng = np.random.default_rng(5)
        rows = 2500
        states = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        outputs = rng.normal(size=(rows, 2))
        states[7] = [np.inf, -np.inf, np.nan]
        states[1500] = [-0.0, 0.0, 5e-324]
        outputs[2499] = [np.nan, -0.0]
        traj = Trajectory(np.arange(rows) * 1e-3, states, outputs, 1e-3, z_dim=1)
        for include_z in (False, True):
            xs = traj.states if include_z else traj.x
            header = (["t"] + [f"x{i + 1}" for i in range(xs.shape[1])]
                      + [f"y{i + 1}" for i in range(outputs.shape[1])])
            lines = [",".join(header)]
            for idx, t in enumerate(traj.times):
                row = [t, *xs[idx], *traj.outputs[idx]]
                lines.append(",".join(f"{v:.17g}" for v in row))
            expected = "\n".join(lines) + "\n"
            buffer = io.StringIO()
            write_csv(traj, buffer, include_z=include_z)
            assert buffer.getvalue() == expected
            path = tmp_path / f"run_{include_z}.csv"
            write_csv(traj, path, include_z=include_z)
            assert path.read_text() == expected


NAMES = ["x1", "x2", "x3"]
coefficients = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def polynomials(draw, max_terms=6):
    exps = st.tuples(*[st.integers(0, 4)] * len(NAMES))
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return Polynomial(len(NAMES), terms)


def assert_matches_exact(p, point):
    value, = _compile([p], 3)(point)
    exact = p.eval(point)  # Fraction(v) of a float is exact
    # rounding is relative to the sum of the terms' magnitudes
    scale = sum(abs(float(c)) * math.prod(abs(v) ** e for v, e in zip(point, exps))
                for exps, c in p.terms.items())
    # Gradual underflow adds an absolute error that no relative bound can
    # cover.  In IEEE double arithmetic fl(a*b) = a*b*(1 + d) + e with
    # |d| <= 2^-53 and |e| <= 2^-1075 (half the least subnormal 2^-1074),
    # e = 0 unless the product is subnormal, and a sum of subnormals is
    # exact.  A term is the chain coeff * v * v * ..., so each e is carried
    # only by the variable factors after it: the absolute part is at most
    # 2^-1074 times the number of products times the largest product of
    # later factors, max(1, |v|)^degree.
    products = sum(max(sum(exps) - (c == 1), 0) for exps, c in p.terms.items())
    later = max([1.0, *map(abs, point)]) ** max((sum(exps) for exps in p.terms), default=0)
    assert abs(value - float(exact)) <= 1e-12 * scale + products * 2.0 ** -1074 * later


class TestCompile:
    @settings(max_examples=60, deadline=timedelta(seconds=2), database=None)
    @given(polynomials(), st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    def test_matches_exact_evaluation(self, p, point):
        assert_matches_exact(p, point)

    @pytest.mark.parametrize("text, point", [
        # 0.5 * 5e-324 rounds to 0 (a tie, to even): 0.0 against 5e-324
        ("1/2*x2*x3", [0.0, 5e-324, 2.0]),
        # 1.5 * 5e-324 rounds to 1e-323 (a tie, to even): 2e-323 against 1.5e-323
        ("x1*x2*x3", [1.5, 5e-324, 2.0]),
    ])
    def test_matches_exact_evaluation_below_the_normal_range(self, text, point):
        assert_matches_exact(parse(text, NAMES), point)

    def test_several_outputs_and_zero(self):
        polys = [parse("x1 - 2*x2", NAMES[:2]), Polynomial(2), parse("3", NAMES[:2])]
        assert _compile(polys, 2)([5.0, 1.0]) == [3.0, 0.0, 3.0]
        assert _compile([], 2)([5.0, 1.0]) == []

    def test_power_overflow_gives_inf(self):
        # float ** int raises OverflowError here; repeated products give inf
        assert _compile([parse("x1^4", ["x1"])], 1)([1e100]) == [math.inf]

    def test_long_chains_compile(self):
        # past CPython's compiler depth for a flat chain of operands
        x = 1 + 2 ** -20
        value, = _compile([parse("x1^5000", ["x1"])], 1)([x])
        assert value == pytest.approx(x ** 5000, rel=1e-11)
        many = Polynomial(3, {(a, b, c): 1 for a in range(20) for b in range(20)
                              for c in range(13)})
        assert _compile([many], 3)([1.0, 1.0, 1.0]) == [5200.0]
