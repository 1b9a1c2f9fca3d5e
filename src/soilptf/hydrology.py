"""Soil water retention curves and derived quantities.

Retention model: theta(h) = theta_r + (theta_s - theta_r) * \
(1 + (alpha*h)^n)^(-m) with m = 1 - 1/n, h the tension head in cm,
alpha in 1/cm; vg_curve is its one copy, which every curve evaluation
calls. Water contents are volumetric fractions.

Curve fitting (fit_vg_rows) takes a long retention table as columns, each
row's sample code, tension and water content, fits the samples of one point
count as (samples, points) matrices and returns columns; fit_vg_curves and
fit_vg call it on per-sample arrays. A tension must be a finite number
>= 0 cm and a water content lie in [0, 1]. Texture summary
statistics follow the geometric-mean particle diameter formulation with
representative diameters clay 0.001 mm, silt 0.026 mm, sand 1.025 mm.
Water contents, texture statistics and their checks run over columns;
derived_water_contents, texture_statistics and VgParameters call them on
one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .data import BASE_FEATURES, SCALE_FEATURES, VG_FEATURES, texture_sum_faults

# Tension unit conversion: 1 kPa of suction is 10.197 cm of water head.
KPA_TO_CM = 10.197

# Pressure ladder (kPa) of the point prediction targets.
TENSION_LADDER_KPA = (10, 30, 50, 100, 300, 500, 1000, 1500)

# Representative particle diameters (mm).
CLAY_DIAMETER_MM = 0.001
SILT_DIAMETER_MM = 0.026
SAND_DIAMETER_MM = 1.025


class HydrologyError(ValueError):
    pass


class VgFitError(HydrologyError):
    pass


@dataclass(frozen=True)
class VgParameters:
    """van Genuchten retention parameters.

    theta_r, theta_s: residual and saturated water content [-];
    alpha: inverse air-entry scale [1/cm]; n: shape parameter [-].
    """

    theta_r: float
    theta_s: float
    alpha: float
    n: float
    fit_rmse: float = 0.0

    def __post_init__(self):
        faults = parameter_faults(*(np.array([v]) for v in (self.theta_r, self.theta_s, self.alpha, self.n)))
        if faults:
            raise HydrologyError(faults[0][1])

    @property
    def m(self) -> float:
        return 1.0 - 1.0 / self.n


def parameter_faults(theta_r, theta_s, alpha, n) -> list[tuple[int, str]]:
    """(row index, problem) of each rule that a row of the parameter columns
    breaks, rule by rule in VgParameters' order."""
    rules = ((~((0.0 <= theta_r) & (theta_r < theta_s) & (theta_s <= 1.0)),
              "need 0 <= theta_r < theta_s <= 1, got {0}, {1}"),
             (alpha <= 0, "alpha must be positive, got {2}"),
             (n <= 1, "n must exceed 1, got {3}"))
    return [(i, text.format(*(c[i].item() for c in (theta_r, theta_s, alpha, n))))
            for bad, text in rules for i in np.flatnonzero(bad).tolist()]


def each(f, column) -> np.ndarray:
    """f of each value of column as a Python float, inf where f overflows:
    math.exp, math.log and ** can differ from numpy's in the last bit."""
    out = []
    for x in np.asarray(column).tolist():
        try:
            out.append(f(x))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float)


@np.errstate(over="ignore")
def vg_curve(theta_r, theta_s, alpha, n, h):
    """theta(h), broadcast over its arguments and unchecked: parameters
    (S, 1) and tensions h (P,) give the (S, P) curves. Where (alpha*h)^n
    overflows, the outer power takes its inf to theta_r, the dry limit."""
    shape = np.broadcast_shapes(*map(np.shape, (theta_r, theta_s, alpha, n, h)))
    # both powers over full arrays of at least one element: under a 0-d or
    # broadcast exponent of 2.0 (or -1.0, where m rounds to 1) numpy squares
    # (or divides), a bit off its power loop, so a curve would change with
    # the rows computed beside it, and a scalar tension with it
    ones = np.ones(shape or (1,))
    m = 1.0 - 1.0 / n
    ah_n = np.power(alpha * h * ones, n * ones)
    theta = theta_r + (theta_s - theta_r) * np.power(1.0 + ah_n, -m * ones)
    return theta.reshape(shape)


def vg_theta(params: VgParameters, h):
    """Water content at tension head h (cm); h may be a scalar or array."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise HydrologyError("tension head must be >= 0")
    theta = vg_curve(params.theta_r, params.theta_s, params.alpha, params.n, h_arr)
    return float(theta) if h_arr.ndim == 0 else theta


def inflection_point(params: VgParameters) -> tuple[float, float]:
    """Tension head and water content at the inflection of theta versus
    h, where (alpha*h)^n = m."""
    return params.m ** (1.0 / params.n) / params.alpha, derived_water_contents(params)["theta_i"]


def water_content_columns(theta_r, theta_s, alpha, n) -> dict[str, np.ndarray]:
    """derived_water_contents over parameter columns, unchecked
    (parameter_faults); the ladder from one vg_curve call."""
    h = np.array((0.0,) + tuple(kpa * KPA_TO_CM for kpa in TENSION_LADDER_KPA))
    theta = vg_curve(*(c[:, None] for c in (theta_r, theta_s, alpha, n)), h)
    theta_i = theta_r + (theta_s - theta_r) * each(lambda m: (1.0 + m) ** -m, 1.0 - 1.0 / n)
    return {"theta_s": theta[:, 0], "theta_i": theta_i,
            **{f"theta_{kpa}": theta[:, k] for k, kpa in enumerate(TENSION_LADDER_KPA, 1)}}


def derived_water_contents(params: VgParameters) -> dict[str, float]:
    """Point targets from a retention curve: saturation, inflection and
    the water contents at TENSION_LADDER_KPA."""
    columns = (np.array([v]) for v in (params.theta_r, params.theta_s, params.alpha, params.n))
    return {name: column.item() for name, column in water_content_columns(*columns).items()}


# ----------------------------------------------------------------------
# curve fitting
# ----------------------------------------------------------------------

_MAX_ITER = 500
_N_STARTS = 5
# Lanes in flight in one _fit_lanes call: a lane that stops frees its slot
# for the next waiting lane in row order. A round's temporaries grow with
# the lanes in flight, about 3 KB per lane at 13 points, so a call peaks
# near 1 MB however many curves it fits. A wider pool takes fewer rounds
# but peaks higher.
_POOL_LANES = 320
_DIAG = np.arange(4)


def _logit(q):
    """log(q / (1 - q)) of each value of the column q, clipped to
    [1e-9, 1 - 1e-9], through math.log."""
    q = np.clip(q, 1e-9, 1.0 - 1e-9)
    return each(math.log, q / (1.0 - q))


def _expit(x):
    """Logistic 1 / (1 + exp(-x)); 0.0 where exp(-x) overflows.

    A scalar goes through math.exp, which keeps it bit for bit equal to
    scipy.special.expit; an array goes through np.exp elementwise, which
    can differ from math.exp in the last bit.
    """
    if np.ndim(x) == 0:
        try:
            return 1.0 / (1.0 + math.exp(-x))
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _unpack(u):
    """Transformed vectors (..., 4) -> (theta_r, theta_s, alpha, n), each of
    shape u.shape[:-1].

    u = (logit(theta_r/theta_s), logit(theta_s), log alpha, log(n-1)),
    which enforces 0 < theta_r < theta_s < 1, alpha > 0, n > 1. alpha or n
    is inf where its exp overflows.
    """
    ratio = _expit(u[..., 0])
    theta_s = _expit(u[..., 1])
    with np.errstate(over="ignore"):
        alpha = np.exp(u[..., 2])
        n = 1.0 + np.exp(u[..., 3])
    return ratio * theta_s, theta_s, alpha, n


def _curve_residuals(u, h, theta_obs):
    """theta_obs - theta(h) for one lane (u of shape (4,), h of shape (P,))
    or for B lanes (u (B, 4), h and theta_obs (B, P)). A lane whose alpha
    or n lies beyond float range has NaN residuals."""
    # a trailing axis against the points; asarray, as one lane's theta_r and
    # theta_s are Python floats
    theta_r, theta_s, alpha, n = (np.asarray(p)[..., None] for p in _unpack(u))
    # a lane whose alpha or n is inf may give NaN (inf * 0 at h = 0); np.where
    # sets all its residuals to NaN
    with np.errstate(invalid="ignore"):
        pred = vg_curve(theta_r, theta_s, alpha, n, h)
    return np.where(np.isfinite(alpha) & np.isfinite(n), theta_obs - pred, np.nan)


@np.errstate(over="ignore", invalid="ignore")
def _curve_jacobian(u, log_h):
    """Closed-form Jacobian of _curve_residuals with respect to u.

    log_h holds ln h, -inf at h = 0, with the shape of h. Returns the
    (..., 4, P) array whose row j is d(residual)/d u[..., j]. With
    w = (alpha*h)^n, S = (1+w)^-m, q = w/(1+w) and amp = theta_s*(1-ratio),
    the rows are -theta_s*ratio*(1-ratio)*(1-S),
    -theta_s*(1-theta_s)*(ratio+(1-ratio)*S), amp*(n-1)*S*q and
    amp*(n-1)*S*(ln(1+w)/n^2 + m*q*ln(alpha*h)). w is never formed:
    everything comes from z = ln w, so no row overflows where w does. A
    lane whose n nears float range overflows n*n instead, without a warning.
    """
    ratio = np.asarray(_expit(u[..., 0]))[..., None]
    theta_s = np.asarray(_expit(u[..., 1]))[..., None]
    n = 1.0 + np.exp(u[..., 3:])
    m = 1.0 - 1.0 / n
    log_ah = u[..., 2:3] + log_h
    z = n * log_ah
    log1p_w = np.logaddexp(0.0, z)
    q = 1.0 / (1.0 + np.exp(-z))
    sat = np.exp(-m * log1p_w)
    # q = 0 where h = 0, so the q*ln(alpha*h) term is 0 there, not 0*-inf
    q_log_ah = np.multiply(q, log_ah, out=np.zeros_like(q), where=q > 0.0)
    amp = theta_s * (1.0 - ratio)
    scaled = amp * (n - 1.0) * sat  # common factor of the alpha and n rows
    return np.stack([
        -theta_s * ratio * (1.0 - ratio) * (1.0 - sat),
        -theta_s * (1.0 - theta_s) * (ratio + (1.0 - ratio) * sat),
        scaled * q,
        scaled * (log1p_w / (n * n) + m * q_log_ah),
    ], axis=-2)


def _normal_equations(u, r, log_h):
    """J'r (B, 4) and J'J (B, 4, 4) of B lanes at u with residuals r, J
    their closed-form Jacobians (_curve_jacobian)."""
    J = _curve_jacobian(u, log_h)
    JtJ = np.stack([(J[:, i, None, :] * J).sum(axis=-1) for i in range(4)], axis=1)
    return (J * r[:, None, :]).sum(axis=-1), JtJ


def _solve_lanes(A, b):
    """Solutions of the stacked systems A x = b, (B, 4, 4) and (B, 4); a
    lane whose matrix is singular gets NaN."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _fit_lanes(u0, h, theta_obs):
    """Levenberg-Marquardt minimization of each lane's squared residual sum,
    lanes side by side.

    u0 holds B start vectors (B, 4) in the transformed parameters of
    _unpack; h and theta_obs hold the points (S, P) of S rows, S a divisor
    of B: lane i fits row i // (B // S), so B lanes on B rows each fit their
    own, and _N_STARTS lanes per sample fit its one row. Returns (u, sse,
    converged) as arrays over the lanes. Each lane runs its own loop: its
    damping factor, scaled by the diagonal of its J'J, is multiplied by 10
    when a trial step does not reduce the cost (or its system is singular,
    or alpha or n leaves float range) and divided by 3, floored at 1e-12,
    after each accepted step. After 40 failed trials in a row, or an
    accepted step that improves the cost by at most 1e-16*(1+cost) or moves
    no parameter by 1e-10, the lane has converged; after _MAX_ITER accepted
    steps without that, it has not.

    At most _POOL_LANES lanes are in flight, each in a slot of the pool's
    working state. A round first admits waiting lanes, in order, into the
    free slots: it gathers their points and computes their residuals. Then
    it takes one trial step in every lane in flight: one stacked solve and
    one residual evaluation, plus the closed-form Jacobian (_curve_jacobian)
    of the lanes that moved. A lane that stops writes its result and frees
    its slot for the next round. Every operation acts on each lane alone,
    so a lane's result does not depend on which other lanes share a round.
    """
    lanes, points = len(u0), h.shape[1]
    per_row = lanes // len(h)
    width = min(lanes, _POOL_LANES)
    u_out = np.empty((lanes, 4))
    sse_out = np.empty(lanes)
    converged_out = np.empty(lanes, dtype=bool)
    # each slot's lane, its points and its state
    lane = np.empty(width, dtype=int)
    u = np.empty((width, 4))
    h_slot = np.empty((width, points))
    obs = np.empty((width, points))
    log_h = np.empty((width, points))
    r = np.empty((width, points))
    cost = np.empty(width)
    lam = np.empty(width)
    steps = np.empty(width, dtype=int)  # accepted steps
    tries = np.empty(width, dtype=int)  # failed trials since the last Jacobian
    g = np.empty((width, 4))
    JtJ = np.empty((width, 4, 4))
    free = np.arange(width)
    live = moved = free[:0]
    admitted = 0
    while admitted < lanes or live.size:
        new = free[:lanes - admitted]
        if new.size:
            free = free[new.size:]
            lane[new] = np.arange(admitted, admitted + new.size)
            admitted += new.size
            rows = lane[new] // per_row
            u[new] = u0[lane[new]]
            h_new = h_slot[new] = h[rows]
            obs[new] = theta_obs[rows]
            log_h[new] = np.log(h_new, out=np.full_like(h_new, -np.inf), where=h_new > 0.0)
            r0 = r[new] = _curve_residuals(u[new], h_new, obs[new])
            cost[new] = (r0 * r0).sum(axis=-1)
            lam[new] = 1e-3
            steps[new] = 0
            live = np.concatenate([live, new])
            moved = np.concatenate([moved, new])
        if moved.size:
            # residual = obs - model, so the Gauss-Newton step solves (J'J + lam D) d = -J'r
            g[moved], JtJ[moved] = _normal_equations(u[moved], r[moved], log_h[moved])
            tries[moved] = 0
        A = JtJ[live]
        diag = A[:, _DIAG, _DIAG]
        A[:, _DIAG, _DIAG] += lam[live, None] * np.where(diag <= 0, 1.0, diag)
        d = _solve_lanes(A, -g[live])
        trial = u[live] + d
        r_new = _curve_residuals(trial, h_slot[live], obs[live])
        cost_new = (r_new * r_new).sum(axis=-1)
        ok = np.isfinite(cost_new) & (cost_new <= cost[live])

        acc = live[ok]
        improvement = cost[acc] - cost_new[ok]
        u[acc] = trial[ok]
        r[acc] = r_new[ok]
        cost[acc] = cost_new[ok]
        lam[acc] = np.maximum(lam[acc] / 3.0, 1e-12)
        steps[acc] += 1
        stop = (improvement <= 1e-16 * (1.0 + cost_new[ok])) | (np.abs(d[ok]).max(axis=-1) < 1e-10)
        rej = live[~ok]
        lam[rej] *= 10.0
        tries[rej] += 1
        exhausted = tries[rej] == 40  # damping exhausted: stationary point
        converged = np.empty(live.size, dtype=bool)
        converged[ok] = stop
        converged[~ok] = exhausted
        running = ~converged
        running[ok] &= steps[acc] < _MAX_ITER
        done = live[~running]
        u_out[lane[done]] = u[done]
        sse_out[lane[done]] = cost[done]
        converged_out[lane[done]] = converged[~running]
        free = np.concatenate([free, done])
        moved = live[ok & running]
        live = live[running]
    return u_out, sse_out, converged_out


def _fit_from_start(u0, h, theta_obs):
    """One lane of _fit_lanes: the Levenberg-Marquardt fit from the start
    u0 (4,) to the points h, theta_obs (P,). Returns (u, sse, converged)
    with converged a plain bool."""
    u, sse, converged = _fit_lanes(u0[None], h[None], theta_obs[None])
    return u[0], float(sse[0]), bool(converged[0])


def _check_points(h, theta_obs) -> list[HydrologyError | None]:
    """What rules out each of S samples with the points h, theta_obs (S, P),
    or None: the first bad point (a tension that is not finite or is
    negative, or a water content outside [0, 1] or NaN; at one point the
    tension is checked first), then fewer than 5 points, then positive
    tensions that span less than a factor of 10."""
    errors: list[HydrologyError | None] = [None] * len(h)
    bad = ~((0.0 <= h) & (h < math.inf) & (0.0 <= theta_obs) & (theta_obs <= 1.0))
    refused = bad.any(axis=1)
    for i in np.flatnonzero(refused).tolist():
        j = bad[i].argmax()
        tension, theta = h[i, j].item(), theta_obs[i, j].item()
        if not math.isfinite(tension):
            errors[i] = HydrologyError(f"tension must be a finite number, got {tension}")
        elif tension < 0:
            errors[i] = HydrologyError(f"tension must be >= 0 cm, got {tension}")
        else:
            errors[i] = HydrologyError(f"theta must lie in [0, 1], got {theta}")
    if h.shape[1] < 5:
        few = VgFitError(f"need at least 5 retention points, got {h.shape[1]}")
        return [few if err is None else err for err in errors]
    positive = h > 0.0
    spread = positive.any(axis=1)
    # a span beyond float range is inf, which passes as it should
    with np.errstate(over="ignore"):
        span = np.divide(np.where(positive, h, -np.inf).max(axis=1),
                         np.where(positive, h, np.inf).min(axis=1),
                         out=np.zeros(len(h)), where=spread & ~refused)
    for i in np.flatnonzero(~refused & (~spread | (span < 10.0))).tolist():
        errors[i] = VgFitError("retention points must span at least a decade of tension")
    return errors


# (log alpha, log(n - 1)) of the four fixed starts, alpha in {0.005, 0.05}
# x n in {1.2, 2.0}, and log(n - 1) of the data-driven start, n = 1.5
_FIXED_SHAPES = [(math.log(a), math.log(n0 - 1.0)) for a in (0.005, 0.05) for n0 in (1.2, 2.0)]
_LOG_HALF = math.log(0.5)


def _starts(h, theta_obs) -> np.ndarray:
    """The _N_STARTS deterministic start vectors of each of S samples with
    the points h, theta_obs (S, P), as (S * _N_STARTS, 4) lanes, sample by
    sample: the four fixed shapes, then a data-driven one (alpha = 1 /
    median positive tension, n = 1.5), all with theta_s and
    theta_r/theta_s taken from the observed range. The median is the middle
    positive tension, or the mean of the middle two, as np.median gives it;
    the logarithms are math.log's."""
    positive = h > 0.0
    count = positive.sum(axis=1)
    ordered = np.where(positive, h, np.inf)
    ordered.sort(axis=1)
    rows = np.arange(len(h))
    lower, upper = ordered[rows, (count - 1) // 2], ordered[rows, count // 2]
    h_mid = np.where(count % 2 == 1, lower, (lower + upper) / 2)
    theta_s0 = np.clip(theta_obs.max(axis=1), 0.05, 0.99)
    u0 = np.empty((len(h), _N_STARTS, 4))
    u0[:, :, 0] = _logit(np.clip(theta_obs.min(axis=1) / theta_s0, 0.02, 0.9))[:, None]
    u0[:, :, 1] = _logit(theta_s0)[:, None]
    u0[:, :-1, 2:] = _FIXED_SHAPES
    u0[:, -1, 2] = each(math.log, 1.0 / h_mid)
    u0[:, -1, 3] = _LOG_HALF
    return u0.reshape(-1, 4)


def fit_vg_rows(sample, h, theta, samples=None):
    """Least-squares van Genuchten fits of the samples of a long table, from
    its columns: each row's sample code (0 to S - 1, S the samples given or
    the largest code plus one), tension [cm] and water content [-]. One
    stable argsort groups the rows by code, in row order, and the samples of
    one point count are checked (_check_points) and fitted (_starts,
    _fit_lanes, _pick_lanes) as one (S, P) matrix pair, in the order of
    their first valid sample. A sample's result does not depend on the
    others. Returns the (S, 4) parameters in VG_FEATURES order and the fit
    RMSE (S,), no fit where a sample fails, and each sample's
    HydrologyError (VgFitError where the fit fails) or None.
    """
    counts = np.bincount(sample, minlength=samples or 0)
    order = np.argsort(sample, kind="stable")
    first = np.cumsum(counts) - counts  # each sample's first place in order
    params, rmse = np.full((len(counts), 4), np.nan), np.full(len(counts), np.nan)
    errors: dict[int, HydrologyError | None] = {}  # by sample code
    groups = []
    for size in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(counts == size)
        h_group, theta_group = (c[order[first[members, None] + np.arange(size)]] for c in (h, theta))
        errors.update(zip(members.tolist(), _check_points(h_group, theta_group)))
        keep = [errors[i] is None for i in members.tolist()]
        if any(keep):
            groups.append((members[keep], h_group[keep], theta_group[keep]))
    for members, h_group, theta_group in sorted(groups, key=lambda group: group[0][0]):
        u, sse, converged = _fit_lanes(_starts(h_group, theta_group), h_group, theta_group)
        params[members], rmse[members], picked = _pick_lanes(u, sse, converged, h_group.shape[1])
        errors.update(zip(members.tolist(), picked))
    return params, rmse, [errors[i] for i in range(len(counts))]


def _pick_lanes(u, sse, converged, size):
    """Each sample's lane among its _N_STARTS consecutive lanes of a
    _fit_lanes call over its size points: the first converged lane,
    replaced only by a later one of strictly lower sse (a NaN sse neither
    replaces nor is replaced). Returns the lanes' (S, 4) parameters, RMSE
    (S,) and errors: a VgFitError where no lane converged, else the first
    of parameter_faults or None."""
    sse = sse.reshape(-1, _N_STARTS)
    converged = converged.reshape(-1, _N_STARTS)
    best = np.full(len(sse), -1)
    best_sse = np.full(len(sse), np.nan)
    for k in range(_N_STARTS):
        take = converged[:, k] & ((best < 0) | (sse[:, k] < best_sse))
        best[take] = k
        best_sse[take] = sse[take, k]
    # one lane per row; a row without a converged lane takes lane 0 and is skipped
    lanes = np.arange(len(sse)) * _N_STARTS + np.maximum(best, 0)
    params = np.column_stack(_unpack(u[lanes]))
    errors: list[HydrologyError | None] = [
        None if k >= 0 else VgFitError(f"no start converged within {_MAX_ITER} iterations")
        for k in best.tolist()]
    found = np.flatnonzero(best >= 0)
    for i, problem in reversed(parameter_faults(*params[found].T)):  # a row's first fault wins
        errors[found[i]] = HydrologyError(problem)
    return params, np.sqrt(best_sse / size), errors


def fit_vg_curves(samples) -> list[VgParameters | HydrologyError]:
    """fit_vg_rows of a sequence of (h, theta) pairs, each one sample's
    tensions [cm] and water contents [-]: per sample, its VgParameters with
    the fit RMSE, or the HydrologyError that rules it out."""
    h, theta = (np.array([v for pair in samples for v in pair[k]], dtype=float) for k in (0, 1))
    sample = np.repeat(np.arange(len(samples)), [len(pair[0]) for pair in samples])
    params, rmse, errors = fit_vg_rows(sample, h, theta, len(samples))
    return [VgParameters(*p, fit_rmse=r) if err is None else err
            for err, p, r in zip(errors, params.tolist(), rmse.tolist())]


def fit_vg(points) -> VgParameters:
    """Least-squares van Genuchten fit to one sample's retention points,
    (tension [cm], theta [-]) pairs, by fit_vg_curves. Raises its
    HydrologyError (VgFitError where the fit fails)."""
    (result,) = fit_vg_curves([np.array(points, dtype=float).reshape(-1, 2).T])
    if isinstance(result, HydrologyError):
        raise result
    return result


# ----------------------------------------------------------------------
# texture statistics
# ----------------------------------------------------------------------

def texture_faults(sand, silt, clay) -> list[tuple[int, str]]:
    """(row index, problem) of each rule that a row of the texture columns
    breaks, rule by rule: no negative fraction, then texture_sum_faults."""
    negative = (np.column_stack([sand, silt, clay]) / 100.0 < 0).any(axis=1)
    return [(i, f"negative texture fraction: {sand[i].item()}, {silt[i].item()}, {clay[i].item()}")
            for i in np.flatnonzero(negative).tolist()] + texture_sum_faults(sand, silt, clay)


def texture_columns(sand, silt, clay) -> tuple[np.ndarray, np.ndarray]:
    """texture_statistics over columns, unchecked (texture_faults). vecdot
    gives each row's dot as a 1-D dot does; F @ v can differ in the last bit."""
    fractions = np.column_stack([sand, silt, clay]) / 100.0
    log_d = np.log(np.array([SAND_DIAMETER_MM, SILT_DIAMETER_MM, CLAY_DIAMETER_MM]))
    a = np.vecdot(fractions, log_d)
    b = np.sqrt(np.maximum(np.vecdot(fractions, log_d**2) - a * a, 0.0))
    return each(math.exp, a), each(math.exp, b)


def texture_statistics(sand: float, silt: float, clay: float) -> tuple[float, float]:
    """Geometric mean particle diameter d_g (mm) and geometric standard
    deviation sigma_g from sand/silt/clay mass percentages."""
    columns = [np.array([v]) for v in (sand, silt, clay)]
    faults = texture_faults(*columns)
    if faults:
        raise HydrologyError(faults[0][1])
    return tuple(column.item() for column in texture_columns(*columns))


# ----------------------------------------------------------------------
# model configurations and target assembly
# ----------------------------------------------------------------------

POINT_TARGETS = ("theta_s", "theta_i") + tuple(f"theta_{k}" for k in TENSION_LADDER_KPA)
PARAMETRIC_TARGETS = ("theta_r", "theta_s", "log_alpha", "log_n")
SHC_TARGETS = ("log_ksat",)


@dataclass(frozen=True)
class ModelConfig:
    """Feature and target layout of one prediction model."""

    id: str
    features: tuple[str, ...]
    targets: tuple[str, ...]

    def __post_init__(self):
        if not self.features or not self.targets:
            raise HydrologyError(f"config {self.id!r} needs features and targets")
        if len(set(self.features)) != len(self.features):
            raise HydrologyError(f"config {self.id!r} has duplicate features")


MODEL_CONFIGS: dict[str, ModelConfig] = {
    "SWRC1": ModelConfig("SWRC1", BASE_FEATURES, POINT_TARGETS),
    "SWRC2": ModelConfig("SWRC2", BASE_FEATURES + SCALE_FEATURES, POINT_TARGETS),
    "SWRC3": ModelConfig("SWRC3", BASE_FEATURES, PARAMETRIC_TARGETS),
    "SWRC4": ModelConfig("SWRC4", BASE_FEATURES + SCALE_FEATURES, PARAMETRIC_TARGETS),
    "SHC1": ModelConfig("SHC1", BASE_FEATURES, SHC_TARGETS),
    "SHC2": ModelConfig("SHC2", BASE_FEATURES + SCALE_FEATURES, SHC_TARGETS),
    "SHC3": ModelConfig("SHC3", BASE_FEATURES + VG_FEATURES, SHC_TARGETS),
    "SHC4": ModelConfig("SHC4", BASE_FEATURES + VG_FEATURES + SCALE_FEATURES, SHC_TARGETS),
}

# Targets whose values live in natural-log space; their RMSE doubles as RMSLE.
LOG_TARGETS = ("log_alpha", "log_n", "log_ksat")
