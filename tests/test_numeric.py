"""Floating-point cross-checks: integrator, residual stencils, surface sampling."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from birot4 import numeric
from birot4.numeric import (
    DEFAULT_STEP,
    DEFAULT_THRESHOLD,
    FLOOR_RADIUS,
    IntegrationParams,
    NumericError,
    ProfileState,
    STATE_COLUMNS,
    SWEEP_FIELDS,
    SurfaceProfile,
    SweepRow,
    _RESIDUAL_ROWS,
    _enforced_initial_state,
    _integrate,
    _joint_residual,
    biharmonic_residual,
    catenoid_state,
    catenoid_surface,
    cylinder_state,
    cylinder_surface,
    integrate_profile,
    stencil_first_derivative,
    stencil_second_derivative,
    surface_laplacian_gap,
    sweep_nonminimal,
    trajectory_table,
)
from birot4.series import ProfileIVP, solve_profile_ivp


@pytest.fixture(scope="module")
def catenoid_forward():
    state, params = catenoid_state()
    return integrate_profile(state, params, 2.0)


@pytest.fixture(scope="module")
def catenoid_backward():
    state, params = catenoid_state()
    return integrate_profile(state, params, -2.0)


def test_catenoid_tracks_the_closed_form(catenoid_forward, catenoid_backward):
    for trajectory in (catenoid_forward, catenoid_backward):
        assert len(trajectory) == 2001
        for state in trajectory.states[::100]:
            assert abs(state.r - math.cosh(state.tau)) < 1e-9
            assert abs(state.r_dot - math.sinh(state.tau)) < 1e-9
            assert abs(state.x - state.tau) < 1e-12
            assert state.y == 0.0
            assert state.c == 0.0


def test_catenoid_residuals_both_directions(catenoid_forward, catenoid_backward):
    for trajectory in (catenoid_forward, catenoid_backward):
        report = biharmonic_residual(trajectory)
        assert report.arc_defect < 1e-8
        assert report.compatibility < 1e-8
        assert report.biharmonic < 1e-6


def test_cylinder_keeps_unit_radius_and_shows_its_curvature_gap():
    state, params = cylinder_state()
    trajectory = integrate_profile(state, params, 2.0)
    for sample in trajectory.states[::200]:
        assert abs(sample.r - 1.0) < 1e-12
        assert abs(sample.c + 1.0) == 0.0
    report = biharmonic_residual(trajectory)
    assert report.arc_defect < 1e-8
    assert report.compatibility < 1e-8
    # the frozen c = -1 violates c'' = c by exactly 1
    assert abs(report.biharmonic - 1.0) < 1e-6


def test_series_and_integrator_agree():
    """Order-10 exact series evaluated at tau = 1/10 against the float
    integrator, all four channels."""
    data = {"r0": Fraction(1), "r1": Fraction(1, 5), "c0": Fraction(1, 3),
            "c1": Fraction(1, 7), "alpha": Fraction(1, 2), "beta": Fraction(1, 4),
            "k": Fraction(0), "x1": Fraction(3, 5), "y1": Fraction(2, 5)}
    profile = solve_profile_ivp(ProfileIVP(
        alpha=data["alpha"], beta=data["beta"], r0=data["r0"], r1=data["r1"],
        c0=data["c0"], c1=data["c1"]))
    tau = Fraction(1, 10)

    def series_value(series):
        total = Fraction(0)
        for n, coeff in enumerate(series.coefficients):  # exponential convention
            total += coeff.evaluate(data) * tau ** n / math.factorial(n)
        return float(total)

    state = ProfileState(tau=0.0, x=0.0, x_dot=float(data["x1"]), y=0.0,
                         y_dot=float(data["y1"]), r=1.0, r_dot=float(data["r1"]),
                         c=float(data["c0"]), c_dot=float(data["c1"]))
    trajectory = integrate_profile(
        state, IntegrationParams(alpha=float(data["alpha"]), beta=float(data["beta"])),
        float(tau))
    last = trajectory.states[-1]
    assert abs(last.tau - 0.1) < 1e-15
    assert abs(series_value(profile.x) - last.x) < 1e-12
    assert abs(series_value(profile.y) - last.y) < 1e-12
    assert abs(series_value(profile.r) - last.r) < 1e-12
    assert abs(series_value(profile.c) - last.c) < 1e-12


def test_zero_window_returns_the_initial_state():
    state, params = catenoid_state()
    trajectory = integrate_profile(state, params, 0.0)
    assert len(trajectory) == 1
    assert trajectory.states[0] == state
    assert not trajectory.truncated


def test_radius_floor_truncates_with_a_flag():
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=-3.0, c_dot=0.0)
    trajectory = integrate_profile(state, IntegrationParams(freeze_curvature=True), 2.0)
    assert trajectory.truncated
    assert trajectory.flag == "radius-floor"
    assert len(trajectory) < 2001
    assert trajectory.states[-1].r > 0.0


def test_integrator_input_validation():
    state, params = catenoid_state()
    # the step must be positive and finite, and so must the window in steps;
    # the sweep checks that up front, also when no point reaches the integrator
    for t_end, step in ((1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
                        (math.inf, 1e-3), (-math.inf, 1e-3), (math.nan, 1e-3),
                        (1e300, 1e-300), (1.0, 5e-324)):
        with pytest.raises(NumericError):
            integrate_profile(state, params, t_end, step=step)
        for points in (SWEEP_EDGE_POINTS, [{"r0": 0.0}], []):
            with pytest.raises(NumericError):
                sweep_nonminimal(points, window=t_end, step=step)
    bad = ProfileState(tau=0.0, x=math.nan, x_dot=1.0, y=0.0, y_dot=0.0,
                       r=1.0, r_dot=0.0, c=0.0, c_dot=0.0)
    with pytest.raises(NumericError):
        integrate_profile(bad, params, 1.0)
    tiny = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                        r=1e-12, r_dot=0.0, c=0.0, c_dot=0.0)
    with pytest.raises(NumericError):
        integrate_profile(tiny, params, 1.0)


def test_runaway_curvature_raises():
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=1000.0, c_dot=0.0)
    with pytest.raises(NumericError):
        integrate_profile(state, IntegrationParams(freeze_curvature=True), 2.0)


def test_blow_up_raises_without_float_warnings():
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=1000.0, c_dot=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            integrate_profile(state, IntegrationParams(freeze_curvature=True), 2.0)


def test_residuals_need_enough_samples():
    state, params = catenoid_state()
    with pytest.raises(NumericError):
        biharmonic_residual(integrate_profile(state, params, 0.002))
    with pytest.raises(NumericError):
        biharmonic_residual(integrate_profile(state, params, 0.006))


def test_stencils_are_exact_on_low_degree_data():
    h = 0.1
    grid = [i * h for i in range(12)]
    quad = [3 * s * s - 2 * s + 1 for s in grid]
    second = stencil_second_derivative(quad, h)
    assert len(second) == len(grid) - 4
    assert max(abs(v - 6.0) for v in second) < 1e-10
    cubic = [s ** 3 for s in grid]
    first = stencil_first_derivative(cubic, h)
    for value, s in zip(first, grid[2:-2]):
        assert abs(value - 3 * s * s) < 1e-9
    with pytest.raises(NumericError):
        stencil_second_derivative([1.0, 2.0, 3.0], h)
    with pytest.raises(NumericError):
        stencil_first_derivative([1.0] * 4, h)


def test_integrator_error_scales_like_fourth_order():
    """Halving the step should cut the c-channel error by about 16: the c
    subsystem is c'' = c with solution e^tau."""

    def error_at(step):
        state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                             r=1.0, r_dot=0.0, c=1.0, c_dot=1.0)
        trajectory = integrate_profile(state, IntegrationParams(), 1.0, step)
        last = trajectory.states[-1]
        return abs(last.c - math.exp(last.tau))

    ratio = error_at(0.02) / error_at(0.01)
    assert 12.0 < ratio < 20.0


def test_two_sided_exponential_curvature():
    """Free curvature obeys c'' = c, so c = c+ e^tau + c- e^-tau; the
    trajectory tracks it and its biharmonic residual stays at integrator
    noise, and the second-derivative stencil is as sharp on such samples."""
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=0.3, c_dot=-0.1)
    trajectory = integrate_profile(state, IntegrationParams(), 2.0)
    c_plus, c_minus = (0.3 - 0.1) / 2, (0.3 + 0.1) / 2
    for sample in trajectory.states[::100]:
        exact = c_plus * math.exp(sample.tau) + c_minus * math.exp(-sample.tau)
        assert abs(sample.c - exact) < 1e-12
    assert biharmonic_residual(trajectory).biharmonic < 1e-8
    h = 1e-2
    samples = [0.2 * math.exp(i * h) + 0.5 * math.exp(-i * h) for i in range(201)]
    second = stencil_second_derivative(samples, h)
    assert max(abs(d - v) for d, v in zip(second, samples[2:-2])) < 1e-8


def test_residual_profile_shape(catenoid_forward):
    taus, joint = _joint_residual(*catenoid_forward.samples[_RESIDUAL_ROWS],
                                  catenoid_forward.step)
    assert len(taus) == len(joint) > 0
    assert all(v >= 0.0 for v in joint)
    assert taus[0] >= catenoid_forward.states[0].tau
    assert taus[-1] <= catenoid_forward.states[-1].tau
    assert float(joint.max()) < 1e-6


def test_surface_laplacian_on_the_model_surfaces():
    catenoid_gap = surface_laplacian_gap(catenoid_surface())
    assert catenoid_gap < 2e-3
    finer = surface_laplacian_gap(catenoid_surface(), grid=(81, 128))
    assert 3.5 < catenoid_gap / finer < 4.5
    cylinder_gap = surface_laplacian_gap(cylinder_surface())
    assert 0.0 < cylinder_gap < 2e-3


def test_surface_laplacian_grid_validation():
    with pytest.raises(NumericError):
        surface_laplacian_gap(catenoid_surface(), grid=(2, 64))
    with pytest.raises(NumericError):
        surface_laplacian_gap(catenoid_surface(), grid=(41, 8))
    with pytest.raises(NumericError):
        surface_laplacian_gap(catenoid_surface(), s_span=(1.0, -1.0))
    pinched = SurfaceProfile(x=lambda s: s, y=lambda s: 0.0, r=lambda s: s)
    with pytest.raises(NumericError):
        surface_laplacian_gap(pinched)
    # one NaN sample would make the gap NaN; a row loop's max() would drop it
    def nan_at_zero(s):
        return math.nan if abs(s) < 1e-9 else 1.0

    for name in ("x", "y", "r", "a", "b", "c"):
        with pytest.raises(NumericError, match="finite"):
            surface_laplacian_gap(dataclasses.replace(cylinder_surface(), **{name: nan_at_zero}))


# One batch that reaches every sweep status, with ok points between the others.
SWEEP_EDGE_POINTS = [
    {"r0": 1.0, "r1": 0.0, "c0": 0.0, "c1": 0.0, "alpha": 0.0, "beta": 0.0},
    {"r0": 1.0, "r1": 0.0, "c0": 0.4, "c1": 0.0, "alpha": 0.0, "beta": 0.0},
    {"r0": 0.0},
    {"r0": 1.0, "r1": 0.5, "c0": 1.0, "beta": 0.0},
    {"r0": 1.0, "r1": 2.0},
    {"r0": 1.0, "c0": 1000.0},
    {"r0": 1.0, "r1": 0.0, "c0": -40.0, "c1": -40.0, "beta": 0.1},
    {"r0": 1.0, "r1": 0.2, "c0": 0.3, "c1": 0.05, "alpha": 0.4, "beta": 0.5},
    {"r0": 1.0, "c0": -1e5, "c1": -1e5, "beta": 0.1},
]


def test_sweep_statuses():
    summary = sweep_nonminimal(SWEEP_EDGE_POINTS, window=1.0)
    statuses = [row.status for row in summary.rows]
    assert statuses == ["ok", "ok", "invalid-radius", "unsolvable-compatibility",
                        "unsolvable-arc-length", "non-finite", "radius-floor", "ok",
                        "too-short"]
    clean, violated = summary.rows[0], summary.rows[1]
    assert clean.violation_tau is None
    assert clean.peak_residual < 1e-6
    assert violated.violation_tau is not None and violated.violation_tau < 0.2
    assert violated.peak_residual > 1e-2
    floored, short = summary.rows[6], summary.rows[8]
    assert floored.violation_tau == pytest.approx(0.042)
    assert floored.peak_residual > 1.0
    assert short.violation_tau is None and short.peak_residual is None
    table = summary.table()
    assert len(table) == len(SWEEP_EDGE_POINTS) + 1
    assert table[0].startswith(",".join(SWEEP_FIELDS))
    empty = sweep_nonminimal([])
    assert empty.rows == () and len(empty.table()) == 1


def test_sweep_table_prints_the_value_a_left_out_field_takes():
    """A point that leaves a field out is integrated at that field's default,
    and its table row prints the same default: it reads as the point that
    names every field, r0 = 1 included."""
    defaults = {"r0": 1.0, "r1": 0.0, "c0": 0.0, "c1": 0.0, "alpha": 0.0, "beta": 0.0}
    points = [{"c0": 0.4, "alpha": 0.5}, dict(defaults, c0=0.4, alpha=0.5), {}, defaults]
    summary = sweep_nonminimal(points, window=0.1, step=0.01)
    _, partial, named, empty, every = summary.table()
    assert partial == named and empty == every
    assert partial.split(",")[0] == empty.split(",")[0] == "1"
    assert summary.rows[0].peak_residual == summary.rows[1].peak_residual


def _stacked(states) -> np.ndarray:
    """Initial states as the (STATE_COLUMNS x P) columns the sweep integrates."""
    return np.array([state.values() for state in states]).T


def _sweep_row_alone(data, window: float) -> SweepRow:
    """The sweep row of one point, integrated on its own as the presets are."""
    prepared = _enforced_initial_state(data)
    if isinstance(prepared, str):
        return SweepRow(dict(data), prepared)
    try:
        trajectory = integrate_profile(*prepared, window)
    except NumericError:
        return SweepRow(dict(data), "non-finite")
    try:
        taus, joint = _joint_residual(*trajectory.samples[_RESIDUAL_ROWS], trajectory.step)
    except NumericError:
        return SweepRow(dict(data), "too-short")
    exceed = np.nonzero(joint > DEFAULT_THRESHOLD)[0]
    violation = float(taus[exceed[0]]) if len(exceed) else None
    return SweepRow(dict(data), trajectory.flag or "ok", violation, float(joint.max()))


@pytest.mark.parametrize("window", [1.0, -1.0])
def test_sweep_rows_equal_single_point_runs(window):
    """Integrating the points together changes no float of any sample or row."""
    summary = sweep_nonminimal(SWEEP_EDGE_POINTS, window=window)
    assert list(summary.rows) == [_sweep_row_alone(data, window) for data in SWEEP_EDGE_POINTS]

    prepared = [item for item in map(_enforced_initial_state, SWEEP_EDGE_POINTS)
                if not isinstance(item, str)]
    params = IntegrationParams(alpha=np.array([single.alpha for _, single in prepared]),
                               beta=np.array([single.beta for _, single in prepared]))
    samples, kept, status = _integrate(_stacked(state for state, _ in prepared), params,
                                       window, DEFAULT_STEP)
    for p, (state, single) in enumerate(prepared):
        try:
            trajectory = integrate_profile(state, single, window)
        except NumericError:
            assert status[p] == "non-finite"
            continue
        assert status[p] == (trajectory.flag or "ok")
        assert kept[p] == len(trajectory)
        for index, name in enumerate(STATE_COLUMNS):
            assert np.array_equal(samples[index, :kept[p], p], trajectory.column(name))


# The float oracle: the RK4 rule on tuples of Python floats, one operation per
# component.  The presets and the sweep share one array RK4 rule, so comparing
# them with each other checks that rule against itself; both are held to this
# copy bit for bit.

def _oracle_field(params):
    alpha, beta, frozen = params.alpha, params.beta, params.freeze_curvature

    def field_at(tau, u):
        x, xd, y, yd, r, rd, c, cd = u
        r2 = r * r
        return (xd, alpha * tau * r2,
                yd, beta * r2,
                rd, r + c * r2,
                cd if not frozen else 0.0, c if not frozen else 0.0)

    return field_at


def _oracle_rk4_step(field_at, tau, u, h):
    k1 = field_at(tau, u)
    k2 = field_at(tau + h / 2, tuple(ui + h / 2 * ki for ui, ki in zip(u, k1)))
    k3 = field_at(tau + h / 2, tuple(ui + h / 2 * ki for ui, ki in zip(u, k2)))
    k4 = field_at(tau + h, tuple(ui + h * ki for ui, ki in zip(u, k3)))
    return tuple(ui + h / 6 * (a + 2 * b + 2 * c + d)
                 for ui, a, b, c, d in zip(u, k1, k2, k3, k4))


def _oracle_samples(initial, params, t_end, step=DEFAULT_STEP):
    """(samples x STATE_COLUMNS array, status) of integrate_profile's loop on floats."""
    count = int(round(abs(t_end) / step))
    h = step if t_end > 0 else -step
    field_at = _oracle_field(params)
    tau, u = initial.tau, initial.values()[1:]
    rows = [initial.values()]
    for i in range(count):
        u = _oracle_rk4_step(field_at, tau, u, h)
        tau = initial.tau + (i + 1) * h
        row = (tau, *u)
        if not all(map(math.isfinite, row)):
            return np.array(rows), "non-finite"
        if row[STATE_COLUMNS.index("r")] <= FLOOR_RADIUS:
            return np.array(rows), "radius-floor"
        rows.append(row)
    return np.array(rows), "ok"


@pytest.mark.parametrize("preset", [catenoid_state, cylinder_state])
@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_integrate_profile_matches_the_float_oracle(preset, t_end):
    state, params = preset()
    expected, status = _oracle_samples(state, params, t_end)
    trajectory = integrate_profile(state, params, t_end)
    assert (trajectory.flag or "ok") == status == "ok"
    assert trajectory.samples.T.shape == expected.shape
    assert trajectory.samples.T.tobytes() == expected.tobytes()


def _frozen_start(c: float) -> tuple[ProfileState, IntegrationParams]:
    """Unit radius at rest with the curvature frozen at c: c = -3 pinches the
    radius to the floor, c = 1000 overflows before tau = 0.1."""
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=c, c_dot=0.0)
    return state, IntegrationParams(freeze_curvature=True)


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_integrate_profile_stops_where_the_float_oracle_stops(t_end):
    state, params = _frozen_start(-3.0)
    expected, status = _oracle_samples(state, params, t_end)
    trajectory = integrate_profile(state, params, t_end)
    assert trajectory.flag == status == "radius-floor"
    assert trajectory.samples.T.shape == expected.shape
    assert trajectory.samples.T.tobytes() == expected.tobytes()

    state, params = _frozen_start(1000.0)
    expected, status = _oracle_samples(state, params, t_end)
    assert status == "non-finite"
    tau = state.tau + len(expected) * math.copysign(DEFAULT_STEP, t_end)
    with pytest.raises(NumericError, match=re.escape(f"non-finite state at tau = {tau:.6f}")):
        integrate_profile(state, params, t_end)


def test_a_blow_up_ends_the_loop_early(monkeypatch):
    """inf and NaN stay non-finite, so the loop stops at its next exit check
    instead of stepping through the rest of the window."""
    state, params = _frozen_start(1000.0)
    first_non_finite = len(_oracle_samples(state, params, 1000.0)[0])
    calls = 0
    step_once = numeric._rk4_step

    def counting_step(*args):
        nonlocal calls
        calls += 1
        return step_once(*args)

    monkeypatch.setattr(numeric, "_rk4_step", counting_step)
    with pytest.raises(NumericError):
        integrate_profile(state, params, 1000.0)
    assert first_non_finite <= calls <= first_non_finite + 64


@pytest.mark.parametrize("window", [1.0, -1.0])
def test_integrate_together_matches_the_float_oracle(window):
    prepared = [item for item in map(_enforced_initial_state, SWEEP_EDGE_POINTS)
                if not isinstance(item, str)]
    params = IntegrationParams(alpha=np.array([single.alpha for _, single in prepared]),
                               beta=np.array([single.beta for _, single in prepared]))
    samples, kept, status = _integrate(_stacked(state for state, _ in prepared), params,
                                       window, DEFAULT_STEP)
    assert sorted(set(status)) == ["non-finite", "ok", "radius-floor"]
    for p, (state, single) in enumerate(prepared):
        expected, oracle_status = _oracle_samples(state, single, window)
        assert status[p] == oracle_status
        assert kept[p] == len(expected)
        assert samples[:, :kept[p], p].T.tobytes() == expected.tobytes()


# The Laplacian's float oracle: the grid walked one s row at a time, each
# element getting the float operations surface_laplacian_gap gives it.

def _oracle_laplacian_gap(profile, s_span, grid):
    n_s, n_theta = grid
    s_lo, s_hi = s_span
    h_theta = 2 * math.pi / n_theta
    h_s = (s_hi - s_lo) / (n_s - 1)
    s_values = [s_lo + i * h_s for i in range(n_s)]
    theta = np.array([j * h_theta for j in range(n_theta)])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xs = np.array([profile.x(s) for s in s_values])
    ys = np.array([profile.y(s) for s in s_values])
    rs = np.array([profile.r(s) for s in s_values])
    worst = 0.0
    for i in range(1, n_s - 1):
        r_here = rs[i]
        r_prime = (rs[i + 1] - rs[i - 1]) / (2 * h_s)
        planes = ((xs, np.ones_like(theta)), (ys, np.ones_like(theta)),
                  (rs, cos_t), (rs, sin_t))
        lap = []
        for axis_values, angular in planes:
            f_ss = (axis_values[i + 1] - 2 * axis_values[i] + axis_values[i - 1]) / (h_s * h_s)
            f_s = (axis_values[i + 1] - axis_values[i - 1]) / (2 * h_s)
            row = axis_values[i] * angular
            f_tt = (np.roll(row, -1) - 2 * row + np.roll(row, 1)) / (h_theta * h_theta)
            lap.append(f_ss * angular + (r_prime / r_here) * (f_s * angular)
                       + f_tt / (r_here * r_here))
        target = (np.full_like(theta, profile.a(s_values[i])),
                  np.full_like(theta, profile.b(s_values[i])),
                  profile.c(s_values[i]) * cos_t, profile.c(s_values[i]) * sin_t)
        gap = np.sqrt(sum((l - t) ** 2 for l, t in zip(lap, target)))
        worst = max(worst, float(gap.max()))
    return worst


# nonzero a, b and c and a radius that varies along s
_WAVY_SURFACE = SurfaceProfile(x=math.sin, y=lambda s: 0.3 * s * s,
                               r=lambda s: 1.5 + 0.4 * math.cos(2 * s),
                               a=lambda s: 0.2 * s, b=lambda s: -0.7, c=math.exp)


@pytest.mark.parametrize("surface", [catenoid_surface(), cylinder_surface(), _WAVY_SURFACE],
                         ids=["catenoid", "cylinder", "wavy"])
@pytest.mark.parametrize("grid", [(41, 64), (81, 128), (3, 17), (7, 33)])
@pytest.mark.parametrize("s_span", [(-1.0, 1.0), (0.5, 2.5)])
def test_surface_laplacian_matches_the_float_oracle(surface, grid, s_span):
    assert (surface_laplacian_gap(surface, s_span, grid)
            == _oracle_laplacian_gap(surface, s_span, grid))


def test_trajectory_holds_one_read_only_array(catenoid_forward):
    assert catenoid_forward.samples.shape == (len(STATE_COLUMNS), len(catenoid_forward))
    with pytest.raises(ValueError):
        catenoid_forward.samples[0, 0] = 1.0
    with pytest.raises(ValueError):
        catenoid_forward.column("r")[0] = 1.0
    # an early stop keeps a copy of its kept samples, not a view of the window
    floored = integrate_profile(*_frozen_start(-3.0), 20.0)
    assert floored.flag == "radius-floor"
    assert floored.samples.base is None
    assert floored.samples.shape == (len(STATE_COLUMNS), len(floored))
    assert floored.samples.flags.c_contiguous and not floored.samples.flags.writeable
    # the records are built on demand from the same floats
    assert [list(state.values()) for state in floored.states] == floored.samples.T.tolist()


def test_trajectory_table_layout(catenoid_forward):
    plain = trajectory_table(catenoid_forward)
    assert plain[0] == ",".join(STATE_COLUMNS)
    assert len(plain) == len(catenoid_forward) + 1
    column = catenoid_forward.column("r")
    assert len(column) == len(catenoid_forward)
    assert abs(column[0] - 1.0) < 1e-15