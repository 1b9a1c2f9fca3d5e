"""Soil water retention curves and derived quantities.

Retention model: theta(h) = theta_r + (theta_s - theta_r) * \
(1 + (alpha*h)^n)^(-m) with m = 1 - 1/n, h the tension head in cm,
alpha in 1/cm. Water contents are volumetric fractions. Texture summary
statistics follow the geometric-mean particle diameter formulation with
representative diameters clay 0.001 mm, silt 0.026 mm, sand 1.025 mm.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

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
        if not 0.0 <= self.theta_r < self.theta_s <= 1.0:
            raise HydrologyError(
                f"need 0 <= theta_r < theta_s <= 1, got {self.theta_r}, {self.theta_s}"
            )
        if self.alpha <= 0:
            raise HydrologyError(f"alpha must be positive, got {self.alpha}")
        if self.n <= 1:
            raise HydrologyError(f"n must exceed 1, got {self.n}")

    @property
    def m(self) -> float:
        return 1.0 - 1.0 / self.n


@dataclass(frozen=True)
class RetentionPoint:
    """One measured retention point: tension head [cm], water content [-]."""

    tension: float
    theta: float

    def __post_init__(self):
        if self.tension < 0:
            raise HydrologyError(f"tension must be >= 0 cm, got {self.tension}")
        if not 0.0 <= self.theta <= 1.0:
            raise HydrologyError(f"theta must lie in [0, 1], got {self.theta}")


def vg_theta(params: VgParameters, h):
    """Water content at tension head h (cm); h may be a scalar or array."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise HydrologyError("tension head must be >= 0")
    u = np.power(params.alpha * h_arr, params.n)
    theta = params.theta_r + (params.theta_s - params.theta_r) * np.power(1.0 + u, -params.m)
    if np.isscalar(h) or h_arr.ndim == 0:
        return float(theta)
    return theta


def inflection_point(params: VgParameters) -> tuple[float, float]:
    """Tension head and water content at the inflection of theta versus
    h, where (alpha*h)^n = m."""
    m = params.m
    h_i = m ** (1.0 / params.n) / params.alpha
    theta_i = params.theta_r + (params.theta_s - params.theta_r) * (1.0 + m) ** (-m)
    return h_i, theta_i


def derived_water_contents(params: VgParameters) -> dict[str, float]:
    """Point targets from a retention curve: saturation, inflection and
    the water contents at TENSION_LADDER_KPA."""
    out = {"theta_s": vg_theta(params, 0.0)}
    out["theta_i"] = inflection_point(params)[1]
    for kpa in TENSION_LADDER_KPA:
        out[f"theta_{int(kpa)}"] = vg_theta(params, kpa * KPA_TO_CM)
    return out


# ----------------------------------------------------------------------
# curve fitting
# ----------------------------------------------------------------------

_MAX_ITER = 500


def _logit(q):
    q = min(max(q, 1e-9), 1.0 - 1e-9)
    return math.log(q / (1.0 - q))


def _expit(x) -> float:
    """Logistic 1 / (1 + exp(-x)); 0.0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _unpack(u):
    """Transformed vector -> (theta_r, theta_s, alpha, n).

    u = (logit(theta_r/theta_s), logit(theta_s), log alpha, log(n-1)),
    which enforces 0 < theta_r < theta_s < 1, alpha > 0, n > 1.
    """
    ratio = _expit(u[0])
    theta_s = _expit(u[1])
    return ratio * theta_s, theta_s, math.exp(u[2]), 1.0 + math.exp(u[3])


def _curve_residuals(u, h, theta_obs):
    theta_r, theta_s, alpha, n = _unpack(u)
    m = 1.0 - 1.0 / n
    # extreme trial parameters overflow (alpha*h)^n; inf collapses to
    # theta_r under the outer power, which is the correct dry limit
    with np.errstate(over="ignore"):
        pred = theta_r + (theta_s - theta_r) * np.power(1.0 + np.power(alpha * h, n), -m)
    return theta_obs - pred


def _curve_jacobian(u, log_h):
    """Closed-form Jacobian of _curve_residuals with respect to u.

    log_h holds ln h, -inf at h = 0. Returns the (4, len(h)) array whose
    row j is d(residual)/d u[j]. With w = (alpha*h)^n, S = (1+w)^-m,
    q = w/(1+w) and amp = theta_s*(1-ratio), the rows are
    -theta_s*ratio*(1-ratio)*(1-S), -theta_s*(1-theta_s)*(ratio+(1-ratio)*S),
    amp*(n-1)*S*q and amp*(n-1)*S*(ln(1+w)/n^2 + m*q*ln(alpha*h)). w is
    never formed: everything comes from z = ln w, so no row overflows where
    w does.
    """
    ratio = _expit(u[0])
    theta_s = _expit(u[1])
    n = 1.0 + math.exp(u[3])
    m = 1.0 - 1.0 / n
    log_ah = u[2] + log_h
    z = n * log_ah
    log1p_w = np.logaddexp(0.0, z)
    with np.errstate(over="ignore"):
        q = 1.0 / (1.0 + np.exp(-z))
    sat = np.exp(-m * log1p_w)
    # q = 0 where h = 0, so the q*ln(alpha*h) term is 0 there, not 0*-inf
    q_log_ah = np.multiply(q, log_ah, out=np.zeros_like(q), where=q > 0.0)
    amp = theta_s * (1.0 - ratio)
    scaled = amp * (n - 1.0) * sat  # common factor of the alpha and n rows
    return np.array([
        -theta_s * ratio * (1.0 - ratio) * (1.0 - sat),
        -theta_s * (1.0 - theta_s) * (ratio + (1.0 - ratio) * sat),
        scaled * q,
        scaled * (log1p_w / (n * n) + m * q_log_ah),
    ])


def _fit_from_start(u0, h, theta_obs):
    """Levenberg-Marquardt minimization of the squared residual sum.

    Works in the transformed parameters u of _unpack and takes the
    Jacobian in closed form (_curve_jacobian), so each trial step costs
    one residual evaluation. Returns (u, sse, converged). The damping
    factor, scaled by the diagonal of J'J, grows until a step
    reduces the cost and shrinks after each accepted step.
    """
    u = u0.copy()
    log_h = np.log(h, out=np.full_like(h, -np.inf), where=h > 0.0)
    r = _curve_residuals(u, h, theta_obs)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(_MAX_ITER):
        Jt = _curve_jacobian(u, log_h)
        # residual = obs - model, so the Gauss-Newton step solves (J'J + lam D) d = -J'r
        g = Jt @ r
        JtJ = Jt @ Jt.T
        scale = JtJ.diagonal().copy()
        scale[scale <= 0] = 1.0
        accepted = False
        for _try in range(40):
            A = JtJ.copy()
            A.flat[::5] += lam * scale  # the 4x4 diagonal
            try:
                d = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            try:
                r_new = _curve_residuals(u + d, h, theta_obs)
            except OverflowError:  # alpha or n beyond float range: reject the trial
                lam *= 10.0
                continue
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                improvement = cost - cost_new
                u = u + d
                r = r_new
                cost = cost_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if improvement <= 1e-16 * (1.0 + cost) or float(np.abs(d).max()) < 1e-10:
                    return u, cost, True
                break
            lam *= 10.0
        if not accepted:
            return u, cost, True  # damping exhausted: stationary point
    return u, cost, False


def fit_vg(points) -> VgParameters:
    """Least-squares van Genuchten fit to measured retention points.

    Requires at least 5 points whose positive tensions span a factor of
    10 or more. Runs a Levenberg-Marquardt minimization (_fit_from_start:
    transformed parameters, closed-form Jacobian) from 5 deterministic
    starts (alpha in {0.005, 0.05} x n in {1.2, 2.0}, plus a fully
    data-driven start) and returns the best converged optimum with its fit
    RMSE.
    """
    pts = [p if isinstance(p, RetentionPoint) else RetentionPoint(*p) for p in points]
    if len(pts) < 5:
        raise VgFitError(f"need at least 5 retention points, got {len(pts)}")
    h = np.array([p.tension for p in pts], dtype=float)
    theta_obs = np.array([p.theta for p in pts], dtype=float)
    positive = h[h > 0]
    if positive.size == 0 or positive.max() / positive.min() < 10.0:
        raise VgFitError("retention points must span at least a decade of tension")

    theta_max = float(theta_obs.max())
    theta_min = float(theta_obs.min())
    theta_s0 = min(max(theta_max, 0.05), 0.99)
    ratio0 = min(max(theta_min / theta_s0 if theta_s0 > 0 else 0.1, 0.02), 0.9)
    starts = [
        np.array([_logit(ratio0), _logit(theta_s0), math.log(a), math.log(n0 - 1.0)])
        for a in (0.005, 0.05)
        for n0 in (1.2, 2.0)
    ]
    h_mid = float(np.median(positive))
    starts.append(np.array([_logit(ratio0), _logit(theta_s0), math.log(1.0 / h_mid), math.log(0.5)]))

    best = None
    for u0 in starts:
        u, sse, ok = _fit_from_start(u0, h, theta_obs)
        if not ok:
            continue
        if best is None or sse < best[1]:
            best = (u, sse)
    if best is None:
        raise VgFitError(f"no start converged within {_MAX_ITER} iterations")
    theta_r, theta_s, alpha, n = _unpack(best[0])
    rmse = math.sqrt(best[1] / len(pts))
    return VgParameters(theta_r=theta_r, theta_s=theta_s, alpha=alpha, n=n, fit_rmse=rmse)


# ----------------------------------------------------------------------
# texture statistics
# ----------------------------------------------------------------------

def texture_statistics(sand: float, silt: float, clay: float) -> tuple[float, float]:
    """Geometric mean particle diameter d_g (mm) and geometric standard
    deviation sigma_g from sand/silt/clay mass percentages."""
    fractions = np.array([sand, silt, clay], dtype=float) / 100.0
    if np.any(fractions < 0):
        raise HydrologyError(f"negative texture fraction: {sand}, {silt}, {clay}")
    total = float(fractions.sum())
    if abs(total - 1.0) > 0.005:
        raise HydrologyError(f"sand+silt+clay = {total * 100:g}%, expected 100 +/- 0.5")
    log_d = np.log(np.array([SAND_DIAMETER_MM, SILT_DIAMETER_MM, CLAY_DIAMETER_MM]))
    a = float(fractions @ log_d)
    spread = float(fractions @ log_d**2) - a * a
    b = math.sqrt(max(spread, 0.0))
    return math.exp(a), math.exp(b)


# ----------------------------------------------------------------------
# model configurations and target assembly
# ----------------------------------------------------------------------

BASE_FEATURES = ("sand", "silt", "clay", "bulk_density", "d_g", "sigma_g")
SCALE_FEATURES = ("internal_diameter_cm", "length_cm")
VG_FEATURES = ("theta_r", "theta_s", "alpha", "n")

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
