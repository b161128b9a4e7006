import io
import math
import re
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from courantlab import phsim
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
        states[9] = [np.nan, 5e-324, 1.0]     # the written columns see nan and a subnormal too
        outputs[2499] = [np.nan, -0.0]
        # values '%.17g' formats itself on both sides of a chunk boundary,
        # in the last column, between values of the exact digits
        chunk = phsim._CSV_CHUNK
        outputs[chunk - 1:chunk + 1] = [[0.25, 1e-300], [-1e13, -2.5e-5]]
        traj = Trajectory(np.arange(rows) * 1e-3, states, outputs, 1e-3, z_dim=1)
        # the last state column is z, which is not written
        lines = ["t,x1,x2,y1,y2"]
        for idx, t in enumerate(traj.times):
            row = [t, *states[idx, :2], *outputs[idx]]
            lines.append(",".join(f"{v:.17g}" for v in row))
        expected = "\n".join(lines) + "\n"
        buffer = io.StringIO()
        write_csv(traj, buffer)
        assert buffer.getvalue() == expected
        path = tmp_path / "run.csv"
        write_csv(traj, path)
        assert path.read_text() == expected


def reference_text(values: list[float]) -> str:
    return ",".join("%.17g" % v for v in values) + "\n"


# values whose '%.17g' text pins one rule of `_csvtext`: (value, text)
CSV_CASES = {
    # an exact tie at the 18th digit rounds half to even, down and up: past
    # the fast range, which '%.17g' writes itself, and inside it
    "tie_rounds_down_to_even": (1e14 + 0.125, "100000000000000.12"),
    "tie_rounds_up_to_even": (1e14 + 0.375, "100000000000000.38"),
    "fast_tie_rounds_down_to_even": (1 + 2.0 ** -17, "1.0000076293945312"),
    "fast_tie_rounds_up_to_even": (1 + 3 * 2.0 ** -17, "1.0000228881835938"),
    "fast_tie_at_twelve": (1e12 + 1 / 32, "1000000000000.0312"),
    # np.log10 gives exactly 3.0, one above the decimal exponent
    "log10_rounded_up": (float(np.nextafter(1000.0, 0.0)), "999.99999999999989"),
    "empty_fraction_has_no_point": (3.0, "3"),
    "int_part_zero": (0.5, "0.5"),
    "least_fast_value": (1e-4, "0.0001"),
    "below_the_fast_range": (float(np.nextafter(1e-4, 0.0)), "9.9999999999999991e-05"),
    "largest_fast_value": (float(np.nextafter(1e13, 0.0)), "9999999999999.998"),
    "above_the_fast_range": (1e13, "10000000000000"),
    "negative": (-2.5, "-2.5"),
    "zero": (0.0, "0"),
    "negative_zero": (-0.0, "-0"),
    "inf": (math.inf, "inf"),
    "negative_inf": (-math.inf, "-inf"),
    "nan": (math.nan, "nan"),
    "least_subnormal": (5e-324, "4.9406564584124654e-324"),
}


class TestCSVDigits:
    """`_csvtext.rows_text` against the per-value '%.17g' it replaces."""

    @staticmethod
    def text(values):
        from courantlab._csvtext import rows_text

        return rows_text(np.array(values, dtype=float).reshape(1, -1))

    @pytest.mark.parametrize("name", CSV_CASES)
    def test_a_named_value_is_written_as_the_reference(self, name):
        value, text = CSV_CASES[name]
        assert "%.17g" % value == text
        assert self.text([value]) == text + "\n"
        assert self.text([1.0, value, -0.0]) == f"1,{text},-0\n"

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-6, 17):
            for direction in (0.0, math.inf):
                x = 10.0 ** k
                for _ in range(4):
                    x = float(np.nextafter(x, direction))
                    values += [x, -x]
            values.append(10.0 ** k)
        assert self.text(values) == reference_text(values)

    def test_every_exponent_of_the_fast_range(self):
        # mantissas drawn at each decimal exponent X from -4 to 12, and the
        # values either side of 1e-4 and of 1e13, the ends of the fast range
        rng = np.random.default_rng(11)
        values = [float(v) for x in range(-4, 13)
                  for v in rng.uniform(1.0, 10.0, 200) * 10.0 ** x]
        for bound in (1e-4, 1e13):
            values += [float(np.nextafter(bound, 0.0)), bound, float(np.nextafter(bound, 1.0))]
        assert self.text(values) == reference_text(values)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(), st.floats(min_value=1e-4, max_value=1e13),
                              st.floats(min_value=-1e13, max_value=-1e-4)),
                    min_size=1, max_size=40))
    def test_drawn_floats_are_written_as_the_reference(self, values):
        assert self.text(values) == reference_text(values)


def bench_quartic():
    """Seed 1's draw of the bench's quartic pair: n = 4, m = 2, a skew J of
    small integers and a quartic H."""
    h = parse("1/4*x1^2 + 1/16*x1^4 + 3/4*x2^2 + 1/8*x2^4 + 1/2*x3^2 + 1/8*x3^4 "
              "+ 3/4*x4^2 + 1/16*x4^4", ["x1", "x2", "x3", "x4"])
    j = [[0, 2, -1, 1], [-2, 0, -1, -1], [1, 1, 0, -1], [-1, 1, 1, 0]]
    return PHSystem(j, [[1, 0], [-1, 1], [0, -1], [-1, 0]], h)


# the loop of a quadratic system whose fields repeat no term magnitude, as
# generated before each repeated one was computed once per point
QUAD_SOURCE = """\
def run(steps, dt, half, sixth, isfinite, x0, x1, z0, X0, X1, Y0, Z0):
    diverged = False
    for k in range(steps):
        t0 = k * dt
        t1 = t0 + half
        t3 = t0 + dt
        v0_0 = 0.25 + -0.05*t0
        v0_1 = 0.125 + -0.025*t0
        v1_0 = 0.25 + -0.05*t1
        v1_1 = 0.125 + -0.025*t1
        v3_0 = 0.25 + -0.05*t3
        v3_1 = 0.125 + -0.025*t3
        k0_0 = (0.75*x0 + 2.25*x1) + v0_0
        k0_1 = (-1.5*x0 + -0.75*x1) + v0_1
        p1_0 = x0 + half * k0_0
        p1_1 = x1 + half * k0_1
        k1_0 = (0.75*p1_0 + 2.25*p1_1) + v1_0
        k1_1 = (-1.5*p1_0 + -0.75*p1_1) + v1_1
        p2_0 = x0 + half * k1_0
        p2_1 = x1 + half * k1_1
        k2_0 = (0.75*p2_0 + 2.25*p2_1) + v1_0
        k2_1 = (-1.5*p2_0 + -0.75*p2_1) + v1_1
        p3_0 = x0 + dt * k2_0
        p3_1 = x1 + dt * k2_1
        k3_0 = (0.75*p3_0 + 2.25*p3_1) + v3_0
        k3_1 = (-1.5*p3_0 + -0.75*p3_1) + v3_1
        y0_0 = 1.25*x0 + 1.25*x1
        y1_0 = 1.25*p1_0 + 1.25*p1_1
        y2_0 = 1.25*p2_0 + 1.25*p2_1
        y3_0 = 1.25*p3_0 + 1.25*p3_1
        Y0[k] = y0_0
        j = k + 1
        z0 = z0 - sixth * (y0_0 + 2.0 * y1_0 + 2.0 * y2_0 + y3_0)
        Z0[j] = z0
        x0 = x0 + sixth * (k0_0 + 2.0 * k1_0 + 2.0 * k2_0 + k3_0)
        X0[j] = x0
        x1 = x1 + sixth * (k0_1 + 2.0 * k1_1 + 2.0 * k2_1 + k3_1)
        X1[j] = x1
        if not (isfinite(x0) and isfinite(x1)):
            diverged = True
            break
    Y0[j] = 1.25*x0 + 1.25*x1
    return j + 1, diverged
"""


def loop_source(monkeypatch, system, u, x0, z0):
    """The source lines of the loop that a run of the system generates."""
    captured, define = [], phsim._define
    monkeypatch.setattr(phsim, "_define",
                        lambda lines, name: captured.append(lines) or define(lines, name))
    phsim._run(system, u, x0, 0.01, 1e-3, z0=z0)
    return captured[0]


def stage_magnitudes(lines, s):
    """How often each product magnitude |c|*x*...*y is written at stage s."""
    counts = Counter()
    for line in lines:
        target, _, value = line.strip().partition(" = ")
        if re.fullmatch(f"[kyw]{s}_[0-9]+", target):
            for term in re.split(r" [+-] ", value.replace("(", "").replace(")", "")):
                term = term.lstrip("-").removeprefix("1.0*")
                counts[term] += "*" in term
    return counts


class TestGeneratedSource:
    def test_repeated_terms_are_computed_once_per_point(self, monkeypatch):
        # the quartic pair's F and Y repeat most term magnitudes: the loop
        # body held 241 `*` (307 with z) while each term was written out
        u = InputSignal.from_exprs(["-1/20 + 1/200*t", "1/40 + -1/200*t"])
        x0 = [0.1, 0.2, 0.3, 0.4]
        for z0, stars in ((None, 132), ([0.1, 0.2], 141)):
            lines = loop_source(monkeypatch, bench_quartic(), u, x0, z0)
            body = [line for line in lines if line.startswith(" " * 8)]
            assert sum(line.count("*") for line in body) == stars
            for s in range(4):
                assert max(stage_magnitudes(body, s).values()) == 1

    def test_fields_without_repeated_terms_keep_their_source(self, monkeypatch):
        quad = PHSystem([[0, "3/2"], ["-3/2", 0]], [[1], ["1/2"]],
                        parse("1/2*x1^2 + 1/2*x1*x2 + 3/4*x2^2", ["x1", "x2"]))
        u = InputSignal.from_exprs(["1/4 - 1/20*t"])
        lines = loop_source(monkeypatch, quad, u, [0.5, -0.5], [0.0])
        assert "\n".join(lines) == QUAD_SOURCE.rstrip("\n")


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
