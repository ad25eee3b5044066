"""Floating-point cross-checks for the rotational profile system.

The symbolic layer proves identities about the profile equations; this
module integrates the same equations numerically and measures how far a
trajectory drifts from the arc-length, compatibility, and fourth-order
conditions.  Everything runs in the polynomial parametrization where the
right-hand sides are x'' = alpha*tau*r^2, y'' = beta*r^2, r'' = r + c*r^2,
with the curvature law c'' = c optionally frozen to a constant.

One array RK4 rule, ``_rk4_step``, serves both callers.  A single
trajectory (the catenoid and cylinder presets) runs it on a stacked state
of shape (8,); the data sweep integrates all of its points together on one
of shape (8, P).  Every operation is elementwise, in the same order, so
each point gets the float operations it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

FLOOR_RADIUS = 1e-9
DEFAULT_STEP = 1e-3
DEFAULT_WINDOW = 2.0
DEFAULT_THRESHOLD = 1e-6

STATE_COLUMNS = ("tau", "x", "x_dot", "y", "y_dot", "r", "r_dot", "c", "c_dot")


class NumericError(ValueError):
    """Raised for bad numeric inputs: short trajectories, bad grids, non-finite data."""


@dataclass(frozen=True)
class ProfileState:
    """One sample of the profile curve and its curvature function."""

    tau: float
    x: float
    x_dot: float
    y: float
    y_dot: float
    r: float
    r_dot: float
    c: float
    c_dot: float

    def values(self) -> tuple[float, ...]:
        return (self.tau, self.x, self.x_dot, self.y, self.y_dot,
                self.r, self.r_dot, self.c, self.c_dot)

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.values())


@dataclass(frozen=True)
class IntegrationParams:
    """Rotation-speed data: slope of the linear speed and the constant speed.

    With freeze_curvature the c channel keeps its initial value instead of
    evolving by c'' = c; that models profiles whose curvature function is
    prescribed, like the unit cylinder with c = -1.
    """

    alpha: float = 0.0
    beta: float = 0.0
    freeze_curvature: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Equally spaced profile samples plus how the run ended."""

    params: IntegrationParams
    step: float
    states: tuple[ProfileState, ...]
    truncated: bool = False
    flag: str | None = None

    def __len__(self) -> int:
        return len(self.states)

    def column(self, name: str) -> np.ndarray:
        idx = STATE_COLUMNS.index(name)
        return np.array([s.values()[idx] for s in self.states])


@dataclass(frozen=True)
class ResidualReport:
    """Maximum defect of each structural identity along a trajectory."""

    arc_defect: float
    compatibility: float
    biharmonic: float
    surface_laplacian_gap: float | None = None


def _derivative_field(params: IntegrationParams):
    """The right-hand side on a stacked state u = (x, x', y, y', r, r', c, c').

    u has shape (8,) for one trajectory or (8, P) for P points at once, with
    params.alpha and params.beta floats or arrays of length P.
    """
    alpha = params.alpha
    beta = params.beta
    frozen = params.freeze_curvature

    def field_at(tau, u: np.ndarray) -> np.ndarray:
        du = np.empty_like(u)
        r, c = u[4], u[6]
        r2 = r * r
        du[0::2] = u[1::2]  # x', y', r' and c' are stored
        du[1] = alpha * tau * r2
        du[3] = beta * r2
        du[5] = r + c * r2
        du[7] = c
        if frozen:
            du[6:] = 0.0
        return du

    return field_at


def _rk4_step(field_at, tau, u: np.ndarray, h: float) -> np.ndarray:
    k1 = field_at(tau, u)
    k2 = field_at(tau + h / 2, u + h / 2 * k1)
    k3 = field_at(tau + h / 2, u + h / 2 * k2)
    k4 = field_at(tau + h, u + h * k3)
    return u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _check_start(initial: ProfileState, step: float) -> None:
    if step <= 0:
        raise NumericError("step must be positive")
    if not initial.is_finite():
        raise NumericError("initial state is not finite")
    if initial.r <= FLOOR_RADIUS:
        raise NumericError("initial radius is at or below the floor")


def integrate_profile(initial: ProfileState, params: IntegrationParams,
                      t_end: float, step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step fourth-order integration of the profile system.

    Integrates from the initial state to tau = initial.tau + t_end, sampling
    every step.  A radius at or below the floor truncates the trajectory
    with a flag; a non-finite state raises, and the float overflow on the
    way there raises no warning.
    """
    _check_start(initial, step)
    count = int(round(abs(t_end) / step))
    if count == 0:
        return Trajectory(params, step, (initial,))
    h = step if t_end > 0 else -step
    field_at = _derivative_field(params)
    tau = initial.tau
    u = np.array(initial.values()[1:])
    states = [initial]
    with np.errstate(all="ignore"):
        for i in range(count):
            u = _rk4_step(field_at, tau, u, h)
            tau = initial.tau + (i + 1) * h
            state = ProfileState(tau, *u.tolist())
            if not state.is_finite():
                raise NumericError(f"non-finite state at tau = {tau:.6f}")
            if state.r <= FLOOR_RADIUS:
                return Trajectory(params, step, tuple(states), truncated=True,
                                  flag="radius-floor")
            states.append(state)
    return Trajectory(params, step, tuple(states))


STENCIL_SPAN = 0.02


def stencil_second_derivative(values: Sequence[float], step: float) -> np.ndarray:
    """Centered five-point second derivative; two samples lost at each end."""
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise NumericError("need at least five samples for the stencil")
    core = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:])
    return core / (12 * step * step)


def stencil_first_derivative(values: Sequence[float], step: float) -> np.ndarray:
    """Centered five-point first derivative; two samples lost at each end."""
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise NumericError("need at least five samples for the stencil")
    core = v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]
    return core / (12 * step)


def _second_layer_stride(n_first: int, step: float) -> int:
    """Spacing for the second stencil layer.

    Differencing twice amplifies round-off like 1/H^4, so the second layer
    runs on a strided subsample whose spacing balances that against the H^4
    truncation error; STENCIL_SPAN sits near the crossover.
    """
    stride = max(1, round(STENCIL_SPAN / step))
    return max(1, min(stride, (n_first - 1) // 4))


_RESIDUAL_INPUTS = ("tau", "x_dot", "y_dot", "r", "r_dot")


def _layered_residuals(tau: np.ndarray, xd: np.ndarray, yd: np.ndarray,
                       r: np.ndarray, rd: np.ndarray, step: float):
    """Arc, compatibility and fourth-order layers from the _RESIDUAL_INPUTS columns."""
    if len(tau) < 5:
        raise NumericError("trajectory too short: the stencil needs 5 samples")
    if len(tau) < 9:
        raise NumericError("trajectory too short: the layered stencils need 9 samples")
    # sample spacing along the index axis; negative for backward runs so the
    # odd-order stencils keep their sign as derivatives in tau
    h = step if tau[1] > tau[0] else -step
    arc = np.abs(xd * xd + yd * yd + rd * rd - r * r)
    r2 = r * r
    # second derivatives come from one differentiation of the stored first
    # derivatives; differencing the positions twice would square the noise
    a = stencil_first_derivative(xd, h) / r2[2:-2]
    b = stencil_first_derivative(yd, h) / r2[2:-2]
    c = (stencil_first_derivative(rd, h) - r[2:-2]) / r2[2:-2]
    compat = np.abs(a * xd[2:-2] + b * yd[2:-2] + c * rd[2:-2])
    m = _second_layer_stride(len(a), step)
    big_h = m * h
    a_dd = np.abs(stencil_second_derivative(a[::m], big_h))
    b_dd = np.abs(stencil_second_derivative(b[::m], big_h))
    c_gap = np.abs(stencil_second_derivative(c[::m], big_h) - c[::m][2:-2])
    fourth = np.maximum.reduce([a_dd, b_dd, c_gap])
    # trajectory indices of the second-layer outputs
    deep = np.array([2 + (j + 2) * m for j in range(len(fourth))])
    return arc, compat, fourth, deep


def residual_profile(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise joint residual max(|arc|, |compatibility|, |fourth-order|).

    Returns the tau values where both stencil layers exist and the joint
    residual there.
    """
    return _joint_residual(*_trajectory_inputs(trajectory), trajectory.step)


def _trajectory_inputs(trajectory: Trajectory) -> list[np.ndarray]:
    return [trajectory.column(name) for name in _RESIDUAL_INPUTS]


def _joint_residual(tau, xd, yd, r, rd, step: float) -> tuple[np.ndarray, np.ndarray]:
    arc, compat, fourth, deep = _layered_residuals(tau, xd, yd, r, rd, step)
    joint = np.maximum.reduce([arc[deep], compat[deep - 2], fourth])
    return tau[deep], joint


def biharmonic_residual(trajectory: Trajectory) -> ResidualReport:
    """Maximum structural residuals of a trajectory.

    Recovers the rotation speeds and the curvature function from the
    geometry alone (a = x''/r^2, b = y''/r^2, c = (r'' - r)/r^2 by centered
    stencils), then reports the worst arc-length defect, compatibility
    defect, and fourth-order defect max(|a''|, |b''|, |c'' - c|).
    """
    arc, compat, fourth, deep = _layered_residuals(*_trajectory_inputs(trajectory),
                                                   trajectory.step)
    return ResidualReport(
        arc_defect=float(arc.max()),
        compatibility=float(compat.max()),
        biharmonic=float(fourth.max()),
    )


# -- surface sampling ---------------------------------------------------


@dataclass(frozen=True)
class SurfaceProfile:
    """Arc-length profile of a rotational surface, as callables of s.

    x and y are the fixed-plane coordinates, r the radius, and a, b, c the
    rotation-speed and curvature functions entering the mean curvature
    vector (a, b, c*cos(theta), c*sin(theta)) / 2 doubled.
    """

    x: Callable[[float], float]
    y: Callable[[float], float]
    r: Callable[[float], float]
    a: Callable[[float], float] = lambda s: 0.0
    b: Callable[[float], float] = lambda s: 0.0
    c: Callable[[float], float] = lambda s: 0.0


def surface_laplacian_gap(profile: SurfaceProfile, s_span: tuple[float, float] = (-1.0, 1.0),
                          grid: tuple[int, int] = (41, 64)) -> float:
    """Max gap between the discrete surface Laplacian and twice the mean curvature.

    Samples X(s, theta) = (x, y, r*cos(theta), r*sin(theta)) on the grid,
    applies the coordinate Laplace-Beltrami operator of the metric
    ds^2 + r^2 dtheta^2 with centered second-order stencils (periodic in
    theta), and compares against (a, b, c*cos(theta), c*sin(theta)).
    The gap shrinks as the square of the spacing.
    """
    n_s, n_theta = grid
    s_lo, s_hi = s_span
    if n_s < 3 or not s_hi > s_lo:
        raise NumericError("degenerate grid: need at least three s samples")
    h_theta = 2 * math.pi / n_theta
    if not h_theta < math.pi / 8:
        raise NumericError("degenerate grid: theta spacing must be below pi/8")
    h_s = (s_hi - s_lo) / (n_s - 1)
    s_values = [s_lo + i * h_s for i in range(n_s)]
    radii = [profile.r(s) for s in s_values]
    if min(radii) <= FLOOR_RADIUS:
        raise NumericError("profile radius must stay positive on the span")
    theta = np.array([j * h_theta for j in range(n_theta)])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xs = np.array([profile.x(s) for s in s_values])
    ys = np.array([profile.y(s) for s in s_values])
    rs = np.array(radii)
    worst = 0.0
    for i in range(1, n_s - 1):
        r_here = rs[i]
        r_prime = (rs[i + 1] - rs[i - 1]) / (2 * h_s)
        planes = (
            (xs, np.ones_like(theta)),
            (ys, np.ones_like(theta)),
            (rs, cos_t),
            (rs, sin_t),
        )
        lap = []
        for axis_values, angular in planes:
            f_ss = (axis_values[i + 1] - 2 * axis_values[i] + axis_values[i - 1]) / (h_s * h_s)
            f_s = (axis_values[i + 1] - axis_values[i - 1]) / (2 * h_s)
            row = axis_values[i] * angular
            f_tt = (np.roll(row, -1) - 2 * row + np.roll(row, 1)) / (h_theta * h_theta)
            lap.append(f_ss * angular + (r_prime / r_here) * (f_s * angular)
                       + f_tt / (r_here * r_here))
        target = (
            np.full_like(theta, profile.a(s_values[i])),
            np.full_like(theta, profile.b(s_values[i])),
            profile.c(s_values[i]) * cos_t,
            profile.c(s_values[i]) * sin_t,
        )
        gap = np.sqrt(sum((l - t) ** 2 for l, t in zip(lap, target)))
        worst = max(worst, float(gap.max()))
    return worst


# -- presets ------------------------------------------------------------


def catenoid_state() -> tuple[ProfileState, IntegrationParams]:
    """Minimal profile x = tau, r = cosh(tau) with zero rotation speeds."""
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=0.0, c_dot=0.0)
    return state, IntegrationParams()


def cylinder_state() -> tuple[ProfileState, IntegrationParams]:
    """Unit-radius profile x = tau, r = 1 with prescribed constant c = -1."""
    state = ProfileState(tau=0.0, x=0.0, x_dot=1.0, y=0.0, y_dot=0.0,
                         r=1.0, r_dot=0.0, c=-1.0, c_dot=0.0)
    return state, IntegrationParams(freeze_curvature=True)


def catenoid_surface() -> SurfaceProfile:
    """Arc-length catenoid: x = asinh(s), r = sqrt(1 + s^2), minimal."""
    return SurfaceProfile(x=math.asinh, y=lambda s: 0.0,
                          r=lambda s: math.sqrt(1.0 + s * s))


def cylinder_surface() -> SurfaceProfile:
    """Arc-length unit cylinder: x = s, r = 1, curvature function c = -1."""
    return SurfaceProfile(x=lambda s: s, y=lambda s: 0.0, r=lambda s: 1.0,
                          c=lambda s: -1.0)


# -- parameter sweep ----------------------------------------------------

SWEEP_FIELDS = ("r0", "r1", "c0", "c1", "alpha", "beta")


@dataclass(frozen=True)
class SweepRow:
    """Outcome for one grid point of the non-minimal data sweep."""

    data: Mapping[str, float]
    status: str
    violation_tau: float | None = None
    peak_residual: float | None = None


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SweepRow, ...]

    def table(self) -> list[str]:
        header = ",".join(SWEEP_FIELDS + ("status", "violation_tau", "peak_residual"))
        lines = [header]
        for row in self.rows:
            cells = [f"{row.data.get(name, 0.0):.6g}" for name in SWEEP_FIELDS]
            cells.append(row.status)
            cells.append("" if row.violation_tau is None else f"{row.violation_tau:.6g}")
            cells.append("" if row.peak_residual is None else f"{row.peak_residual:.3e}")
            lines.append(",".join(cells))
        return lines


def _enforced_initial_state(data: Mapping[str, float]) -> tuple[ProfileState, IntegrationParams] | str:
    r0 = float(data.get("r0", 1.0))
    r1 = float(data.get("r1", 0.0))
    c0 = float(data.get("c0", 0.0))
    c1 = float(data.get("c1", 0.0))
    alpha = float(data.get("alpha", 0.0))
    beta = float(data.get("beta", 0.0))
    if r0 <= FLOOR_RADIUS:
        return "invalid-radius"
    if beta != 0.0:
        y1 = -c0 * r1 / beta
    elif abs(c0 * r1) > 1e-15:
        return "unsolvable-compatibility"
    else:
        y1 = 0.0
    x1_sq = r0 * r0 - r1 * r1 - y1 * y1
    if x1_sq < 0.0:
        return "unsolvable-arc-length"
    state = ProfileState(tau=0.0, x=0.0, x_dot=math.sqrt(x1_sq), y=0.0, y_dot=y1,
                         r=r0, r_dot=r1, c=c0, c_dot=c1)
    return state, IntegrationParams(alpha=alpha, beta=beta)


def _integrate_together(initials: Sequence[ProfileState], params: IntegrationParams,
                        t_end: float, step: float) -> tuple[np.ndarray, list[int], list[str]]:
    """integrate_profile for P initial states at once, on columns of length P.

    params holds one alpha and one beta per point, as arrays.  _rk4_step
    runs on the stacked (8, P) state, elementwise, so each point gets the
    float operations integrate_profile gives it.  Returns the samples as a
    (STATE_COLUMNS x steps + 1 x P) array, and per point the number of
    samples kept and a status: "ok"; "radius-floor", where the samples end
    before the first state at or below the floor; or "non-finite".  A point
    that stops early keeps integrating in the batch, and its later samples
    are never read.
    """
    count = int(round(abs(t_end) / step))
    h = step if t_end > 0 else -step
    field_at = _derivative_field(params)
    samples = np.empty((len(STATE_COLUMNS), count + 1, len(initials)))
    samples[:, 0, :] = np.array([s.values() for s in initials]).T
    tau0 = tau = samples[0, 0]
    u = samples[1:, 0]
    kept = [count + 1] * len(initials)
    status = ["ok"] * len(initials)
    running = np.ones(len(initials), dtype=bool)
    r_index = STATE_COLUMNS.index("r")
    with np.errstate(all="ignore"):
        for i in range(count):
            if not running.any():
                break
            u = _rk4_step(field_at, tau, u, h)
            tau = tau0 + (i + 1) * h
            row = samples[:, i + 1]
            row[0] = tau
            row[1:] = u
            finite = np.isfinite(row).all(axis=0)
            stopped = running & ~(finite & (row[r_index] > FLOOR_RADIUS))
            for p in np.flatnonzero(stopped):
                kept[p] = i + 1
                status[p] = "radius-floor" if finite[p] else "non-finite"
            running &= ~stopped
    return samples, kept, status


def sweep_nonminimal(points: Iterable[Mapping[str, float]],
                     window: float = DEFAULT_WINDOW,
                     step: float = DEFAULT_STEP,
                     threshold: float = DEFAULT_THRESHOLD) -> SweepSummary:
    """Integrate each data point and record when the joint residual blows past the threshold.

    At tau = 0 the free velocity components are chosen so arc-length and
    compatibility hold exactly when possible; points where they cannot are
    recorded, not skipped.  A violation_tau of None means the trajectory
    stayed within the threshold over the whole window.

    The points that admit initial data integrate together as one batch of
    column arrays; each row is the one integrate_profile and
    residual_profile give that point alone.
    """
    data_rows = [dict(data) for data in points]
    rows: list[SweepRow | None] = [None] * len(data_rows)
    batch, initials, alphas, betas = [], [], [], []
    for index, data in enumerate(data_rows):
        prepared = _enforced_initial_state(data)
        if isinstance(prepared, str):
            rows[index] = SweepRow(data, prepared)
            continue
        state, params = prepared
        try:
            _check_start(state, step)
        except NumericError:
            rows[index] = SweepRow(data, "non-finite")
            continue
        batch.append(index)
        initials.append(state)
        alphas.append(params.alpha)
        betas.append(params.beta)
    if batch:
        params = IntegrationParams(alpha=np.array(alphas), beta=np.array(betas))
        samples, kept, status = _integrate_together(initials, params, window, step)
        inputs = [samples[STATE_COLUMNS.index(name)] for name in _RESIDUAL_INPUTS]
        for p, index in enumerate(batch):
            data = data_rows[index]
            if status[p] == "non-finite":
                rows[index] = SweepRow(data, status[p])
                continue
            try:
                taus, joint = _joint_residual(*(column[:kept[p], p] for column in inputs), step)
            except NumericError:
                rows[index] = SweepRow(data, "too-short")
                continue
            exceed = np.nonzero(joint > threshold)[0]
            violation = float(taus[exceed[0]]) if len(exceed) else None
            rows[index] = SweepRow(data, status[p], violation, float(joint.max()))
    return SweepSummary(tuple(rows))


def trajectory_table(trajectory: Trajectory) -> list[str]:
    """Delimited text rows for a trajectory: a header, then one row per state."""
    lines = [",".join(STATE_COLUMNS)]
    for state in trajectory.states:
        lines.append(",".join(f"{v:.12g}" for v in state.values()))
    return lines


__all__ = [
    "DEFAULT_STEP",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "FLOOR_RADIUS",
    "STENCIL_SPAN",
    "IntegrationParams",
    "NumericError",
    "ProfileState",
    "ResidualReport",
    "STATE_COLUMNS",
    "SWEEP_FIELDS",
    "SurfaceProfile",
    "SweepRow",
    "SweepSummary",
    "Trajectory",
    "biharmonic_residual",
    "catenoid_state",
    "catenoid_surface",
    "cylinder_state",
    "cylinder_surface",
    "integrate_profile",
    "residual_profile",
    "stencil_second_derivative",
    "surface_laplacian_gap",
    "sweep_nonminimal",
    "trajectory_table",
]
