"""Floating-point cross-checks for the rotational profile system.

The symbolic layer proves identities about the profile equations; this
module integrates the same equations numerically and measures how far a
trajectory drifts from the arc-length, compatibility, and fourth-order
conditions.  Everything runs in the polynomial parametrization where the
right-hand sides are x'' = alpha*tau*r^2, y'' = beta*r^2, r'' = r + c*r^2,
with the curvature law c'' = c optionally frozen to a constant.

One loop, ``_integrate``, serves both callers.  A single trajectory (the
catenoid and cylinder presets) steps a stacked state of shape (8,); the
data sweep steps all of its points together as one of shape (8, P).  Every
operation of the RK4 rule is elementwise, in the same order, so each point
gets the float operations it would get alone.  One stop rule then runs on
the finished samples: a point ends at its first sample that is not finite
or whose radius is at or below FLOOR_RADIUS.  The loop's sample array is
the trajectory: the residuals and the trajectory table read that one array,
and no per-sample record is built on the way to the payload.
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
# Most samples, (window / step + 1) x points, that the command line lets one
# run allocate: 2**22 samples of 9 float64 columns are about 300 MB.
MAX_SAMPLES = 2**22

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Equally spaced profile samples plus how the run ended.

    samples is the read-only (STATE_COLUMNS x n) array of the integrator's
    kept samples.  eq=False: == on arrays gives an array, not a truth value.
    """

    params: IntegrationParams
    step: float
    samples: np.ndarray
    flag: str | None = None

    @property
    def truncated(self) -> bool:
        return self.flag is not None

    @property
    def states(self) -> tuple[ProfileState, ...]:
        """The samples as ProfileState records, built on each access."""
        return tuple(ProfileState(*row) for row in self.samples.T.tolist())

    def __len__(self) -> int:
        return self.samples.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.samples[STATE_COLUMNS.index(name)]


@dataclass(frozen=True)
class ResidualReport:
    """Maximum defect of each structural identity along a trajectory."""

    arc_defect: float
    compatibility: float
    biharmonic: float


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


def _check_start(initial: ProfileState) -> None:
    if not initial.is_finite():
        raise NumericError("initial state is not finite")
    if initial.r <= FLOOR_RADIUS:
        raise NumericError("initial radius is at or below the floor")


def _check_grid(t_end: float, step: float) -> None:
    """The one rule for a run's grid: a positive, finite step, and a finite
    number of steps, abs(t_end) / step."""
    if not (0 < step < math.inf and math.isfinite(abs(t_end) / step)):
        raise NumericError("step and t_end / step must be positive and finite")


_EXIT_CHECK_STEPS = 64  # steps between the loop's tests for an all-non-finite state


def _integrate(initial: np.ndarray, params: IntegrationParams, t_end: float,
               step: float) -> tuple[np.ndarray, list[int], list[str]]:
    """Fixed-step RK4 from initial, a (9,) state or P states as (9, P) columns.

    Returns the samples as a (STATE_COLUMNS x steps + 1 [x P]) array and, per
    point, the number of samples kept and a status.  The stop rule runs once,
    on the finished samples: a point stops at its first sample after the
    start that is not finite ("non-finite") or has r <= FLOOR_RADIUS
    ("radius-floor"), and keeps the samples before it; a point that never
    stops is "ok".  inf and NaN stay non-finite under RK4, so the loop ends
    early once every point is non-finite; the rows it never reaches stay NaN.
    The float overflow on the way there raises no warning.  The caller has
    checked the grid (``_check_grid``).
    """
    count = int(round(abs(t_end) / step))
    h = step if t_end > 0 else -step
    field_at = _derivative_field(params)
    samples = np.full((len(STATE_COLUMNS), count + 1) + initial.shape[1:], np.nan)
    samples[:, 0] = initial
    tau0 = tau = initial[0]
    u = initial[1:]
    with np.errstate(all="ignore"):
        for i in range(count):
            u = _rk4_step(field_at, tau, u, h)
            tau = tau0 + (i + 1) * h
            samples[0, i + 1] = tau
            samples[1:, i + 1] = u
            if (i + 1) % _EXIT_CHECK_STEPS == 0 and not np.isfinite(u).all(axis=0).any():
                break
        columns = samples.reshape(len(STATE_COLUMNS), count + 1, -1)
        finite = np.isfinite(columns).all(axis=0)
        stop = ~finite | (columns[STATE_COLUMNS.index("r")] <= FLOOR_RADIUS)
    stop[0] = False
    first = stop.argmax(axis=0).tolist()  # 0 where a point never stops
    kept = [k or count + 1 for k in first]
    status = ["ok" if not k else "radius-floor" if finite[k, p] else "non-finite"
              for p, k in enumerate(first)]
    return samples, kept, status


def integrate_profile(initial: ProfileState, params: IntegrationParams,
                      t_end: float, step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step fourth-order integration of the profile system.

    Integrates from the initial state to tau = initial.tau + t_end, sampling
    every step.  A radius at or below the floor truncates the trajectory
    with a flag; a non-finite state raises, and so do a step that is not
    positive and finite and a window that is not finite in steps.
    """
    _check_grid(t_end, step)
    _check_start(initial)
    samples, (kept,), (status,) = _integrate(np.array(initial.values()), params,
                                             t_end, step)
    if status == "non-finite":
        raise NumericError(f"non-finite state at tau = {samples[0, kept]:.6f}")
    # a copy when the run stopped early, so the unused window is freed
    samples = np.ascontiguousarray(samples[:, :kept])
    samples.flags.writeable = False
    return Trajectory(params, step, samples, None if status == "ok" else status)


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


# the sample rows the residuals read; a list, not a tuple, so that it indexes rows
_RESIDUAL_ROWS = [STATE_COLUMNS.index(name) for name in ("tau", "x_dot", "y_dot", "r", "r_dot")]


def _layered_residuals(tau: np.ndarray, xd: np.ndarray, yd: np.ndarray,
                       r: np.ndarray, rd: np.ndarray, step: float):
    """Arc, compatibility and fourth-order layers from the _RESIDUAL_ROWS samples."""
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


def _joint_residual(tau, xd, yd, r, rd, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise joint residual max(|arc|, |compatibility|, |fourth-order|).

    Returns the tau values where both stencil layers exist and the joint
    residual there.
    """
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
    arc, compat, fourth, deep = _layered_residuals(*trajectory.samples[_RESIDUAL_ROWS],
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
    xs, ys, rs = (np.array([f(s) for s in s_values]) for f in (profile.x, profile.y, profile.r))
    # a, b and c are compared on the interior rows only
    a, b, c = (np.array([f(s) for s in s_values[1:-1]]) for f in (profile.a, profile.b, profile.c))
    if not all(np.isfinite(v).all() for v in (xs, ys, rs, a, b, c)):
        raise NumericError("profile samples must be finite on the span")
    if rs.min() <= FLOOR_RADIUS:
        raise NumericError("profile radius must stay positive on the span")
    theta = np.array([j * h_theta for j in range(n_theta)])
    ones = np.ones_like(theta)
    # the four coordinates of X, each a profile function times an angular
    # factor; axes are (coordinate, interior s row, theta)
    angular = np.array([ones, ones, np.cos(theta), np.sin(theta)])[:, None, :]
    values = np.array([xs, ys, rs, rs])
    f_ss = (values[:, 2:] - 2 * values[:, 1:-1] + values[:, :-2]) / (h_s * h_s)
    f_s = (values[:, 2:] - values[:, :-2]) / (2 * h_s)
    rows = values[:, 1:-1, None] * angular
    f_tt = (np.roll(rows, -1, axis=2) - 2 * rows + np.roll(rows, 1, axis=2)) / (h_theta * h_theta)
    r_here = rs[1:-1]
    r_prime = (rs[2:] - rs[:-2]) / (2 * h_s)
    lap = (f_ss[..., None] * angular + (r_prime / r_here)[:, None] * (f_s[..., None] * angular)
           + f_tt / (r_here * r_here)[:, None])
    target = np.array([a, b, c, c])[..., None] * angular
    gap = np.sqrt(sum((lap - target) ** 2))
    return float(gap.max())


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

# each field of a sweep point, with the value a point that leaves it out
# takes; the integration and the table both read it from here
SWEEP_FIELDS = {"r0": 1.0, "r1": 0.0, "c0": 0.0, "c1": 0.0, "alpha": 0.0, "beta": 0.0}


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
        header = ",".join((*SWEEP_FIELDS, "status", "violation_tau", "peak_residual"))
        lines = [header]
        for row in self.rows:
            cells = [f"{row.data.get(name, default):.6g}"
                     for name, default in SWEEP_FIELDS.items()]
            cells.append(row.status)
            cells.append("" if row.violation_tau is None else f"{row.violation_tau:.6g}")
            cells.append("" if row.peak_residual is None else f"{row.peak_residual:.3e}")
            lines.append(",".join(cells))
        return lines


def _enforced_initial_state(data: Mapping[str, float]) -> tuple[ProfileState, IntegrationParams] | str:
    r0, r1, c0, c1, alpha, beta = (float(data.get(name, default))
                                   for name, default in SWEEP_FIELDS.items())
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


def sweep_nonminimal(points: Iterable[Mapping[str, float]],
                     window: float = DEFAULT_WINDOW,
                     step: float = DEFAULT_STEP,
                     threshold: float = DEFAULT_THRESHOLD) -> SweepSummary:
    """Integrate each data point and record when the joint residual blows past the threshold.

    At tau = 0 the free velocity components are chosen so arc-length and
    compatibility hold exactly when possible; points where they cannot are
    recorded, not skipped.  A violation_tau of None means the trajectory
    stayed within the threshold over the whole window.

    The points that admit initial data integrate together in one _integrate
    call on (9, P) columns; each row is the one integrate_profile and the
    joint residual give that point alone.  A step that is not positive and
    finite, or a window that is not finite in steps, raises NumericError,
    whether or not any point can be integrated.
    """
    _check_grid(window, step)
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
            _check_start(state)
        except NumericError:
            rows[index] = SweepRow(data, "non-finite")
            continue
        batch.append(index)
        initials.append(state)
        alphas.append(params.alpha)
        betas.append(params.beta)
    if batch:
        params = IntegrationParams(alpha=np.array(alphas), beta=np.array(betas))
        initial = np.array([state.values() for state in initials]).T
        samples, kept, status = _integrate(initial, params, window, step)
        for p, index in enumerate(batch):
            data = data_rows[index]
            if status[p] == "non-finite":
                rows[index] = SweepRow(data, status[p])
                continue
            try:
                taus, joint = _joint_residual(*samples[_RESIDUAL_ROWS, :kept[p], p], step)
            except NumericError:
                rows[index] = SweepRow(data, "too-short")
                continue
            exceed = np.nonzero(joint > threshold)[0]
            violation = float(taus[exceed[0]]) if len(exceed) else None
            rows[index] = SweepRow(data, status[p], violation, float(joint.max()))
    return SweepSummary(tuple(rows))


def trajectory_table(trajectory: Trajectory) -> list[str]:
    """Delimited text rows for a trajectory: a header, then one row per sample."""
    return [",".join(STATE_COLUMNS)] + [",".join(f"{v:.12g}" for v in row)
                                        for row in trajectory.samples.T.tolist()]


__all__ = [
    "DEFAULT_STEP",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "FLOOR_RADIUS",
    "MAX_SAMPLES",
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
    "stencil_second_derivative",
    "surface_laplacian_gap",
    "sweep_nonminimal",
    "trajectory_table",
]
