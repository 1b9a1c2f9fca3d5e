"""Retention curve math, curve fitting, texture statistics, model configurations."""

import itertools
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from soilptf import hydrology
from soilptf.hydrology import (
    BASE_FEATURES,
    KPA_TO_CM,
    LOG_TARGETS,
    MODEL_CONFIGS,
    PARAMETRIC_TARGETS,
    POINT_TARGETS,
    SCALE_FEATURES,
    SHC_TARGETS,
    TENSION_LADDER_KPA,
    HydrologyError,
    ModelConfig,
    VgFitError,
    VgParameters,
    derived_water_contents,
    fit_vg,
    inflection_point,
    texture_statistics,
    _curve_jacobian,
    _curve_residuals,
    _expit,
    vg_curve,
    vg_theta,
)

LOAM = VgParameters(theta_r=0.1, theta_s=0.5, alpha=0.02, n=2.0)


def _logit(q):
    """One value's logit as the per-sample starts took it."""
    q = min(max(q, 1e-9), 1.0 - 1e-9)
    return math.log(q / (1.0 - q))


def test_curve_hand_value():
    # alpha*h = 1 at h = 50, so theta = theta_r + (theta_s-theta_r)/sqrt(2)
    assert LOAM.m == 0.5
    assert vg_theta(LOAM, 50.0) == pytest.approx(0.1 + 0.4 / math.sqrt(2.0), rel=1e-12)
    assert vg_theta(LOAM, 0.0) == 0.5


def test_curve_limits_and_monotonicity():
    h = np.geomspace(1e-3, 1e7, 200)
    theta = vg_theta(LOAM, h)
    assert np.all(np.diff(theta) < 0)
    assert theta[0] == pytest.approx(LOAM.theta_s, abs=1e-6)
    assert theta[-1] == pytest.approx(LOAM.theta_r, abs=1e-4)


def test_curve_array_matches_scalar():
    h = np.array([0.0, 10.0, 100.0, 1000.0])
    arr = vg_theta(LOAM, h)
    assert arr.tolist() == [vg_theta(LOAM, float(v)) for v in h]
    assert isinstance(vg_theta(LOAM, 10.0), float)


_CURVE_PARAMS = st.tuples(
    st.floats(0.0, 0.3),  # theta_r
    st.floats(0.01, 0.69),  # theta_s - theta_r
    st.floats(-4.0, 0.0),  # log10 alpha
    st.floats(1.0001, 8.0),  # n
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CURVE_PARAMS, min_size=1, max_size=5),
       st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12))
# n = 2 at a scalar tension: numpy squared a 0-d base, but not an array's
@example(params=[(0.0, 0.5, -6.103515625e-05, 2.0)], tensions=[989879.1796875])
def test_curve_matrix_matches_each_point(params, tensions):
    curves = [VgParameters(theta_r=r, theta_s=r + span, alpha=10**a, n=n)
              for r, span, a, n in params]
    columns = np.array([[p.theta_r, p.theta_s, p.alpha, p.n] for p in curves])
    theta = vg_curve(*columns.T[:, :, None], np.array(tensions))
    assert theta.tolist() == [[vg_theta(p, h) for h in tensions] for p in curves]


def test_negative_tension_rejected():
    with pytest.raises(HydrologyError, match=">= 0"):
        vg_theta(LOAM, -1.0)


def test_parameter_validation():
    with pytest.raises(HydrologyError, match="theta_r"):
        VgParameters(theta_r=-0.1, theta_s=0.5, alpha=0.02, n=2.0)
    with pytest.raises(HydrologyError, match="theta_r"):
        VgParameters(theta_r=0.5, theta_s=0.5, alpha=0.02, n=2.0)
    with pytest.raises(HydrologyError, match="theta_r"):
        VgParameters(theta_r=0.1, theta_s=1.5, alpha=0.02, n=2.0)
    with pytest.raises(HydrologyError, match="alpha"):
        VgParameters(theta_r=0.1, theta_s=0.5, alpha=0.0, n=2.0)
    with pytest.raises(HydrologyError, match="n must exceed 1"):
        VgParameters(theta_r=0.1, theta_s=0.5, alpha=0.02, n=1.0)


def test_retention_point_validation():
    # the three cases at the fifth point of a clean 13-point curve; the
    # point (0, 0) is valid, and the sample is fitted
    h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    samples = []
    for tension, theta in ((0.0, 0.0), (-1.0, 0.3), (10.0, 1.2)):
        h_k, theta_k = h.copy(), vg_theta(LOAM, h)
        h_k[4], theta_k[4] = tension, theta
        samples.append((h_k, theta_k))
    ok, negative, wet = hydrology.fit_vg_curves(samples)
    assert isinstance(ok, VgParameters)
    assert _bits(negative) == ("HydrologyError", "tension must be >= 0 cm, got -1.0")
    assert _bits(wet) == ("HydrologyError", "theta must lie in [0, 1], got 1.2")


def test_inflection_closed_form():
    h_i, theta_i = inflection_point(LOAM)
    # (alpha*h)^n = m: h = sqrt(0.5)/0.02; theta = 0.1 + 0.4*1.5^-0.5
    assert h_i == pytest.approx(35.35533905932738, rel=1e-14)
    assert theta_i == pytest.approx(0.4265986323710904, rel=1e-14)


def test_inflection_lies_on_curve():
    rng = np.random.default_rng(6)
    for _ in range(25):
        p = VgParameters(
            theta_r=float(rng.uniform(0.0, 0.15)),
            theta_s=float(rng.uniform(0.3, 0.6)),
            alpha=float(10 ** rng.uniform(-2.5, -1.0)),
            n=float(rng.uniform(1.1, 3.0)),
        )
        h_i, theta_i = inflection_point(p)
        assert vg_theta(p, h_i) == pytest.approx(theta_i, rel=1e-12)


def test_derived_water_contents_keys_and_values():
    out = derived_water_contents(LOAM)
    assert list(out) == list(POINT_TARGETS)
    assert out["theta_s"] == LOAM.theta_s
    assert out["theta_i"] == inflection_point(LOAM)[1]
    for kpa in TENSION_LADDER_KPA:  # bit for bit one vg_theta call per tension
        assert out[f"theta_{kpa}"] == vg_theta(LOAM, kpa * KPA_TO_CM)
    ladder = [out[f"theta_{k}"] for k in TENSION_LADDER_KPA]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))


def test_units():
    assert KPA_TO_CM == 10.197
    assert TENSION_LADDER_KPA == (10, 30, 50, 100, 300, 500, 1000, 1500)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def test_fit_recovers_noise_free_curve():
    h = np.geomspace(1.0, 15000.0, 12)
    pts = [(0.0, LOAM.theta_s)] + [(float(t), vg_theta(LOAM, float(t))) for t in h]
    got = fit_vg(pts)
    assert got.theta_r == pytest.approx(LOAM.theta_r, rel=1e-3)
    assert got.theta_s == pytest.approx(LOAM.theta_s, rel=1e-3)
    assert got.alpha == pytest.approx(LOAM.alpha, rel=1e-3)
    assert got.n == pytest.approx(LOAM.n, rel=1e-3)
    assert got.fit_rmse < 1e-5


def test_fit_accepts_retention_points_and_is_deterministic():
    h = np.geomspace(3.0, 8000.0, 9)
    pts = [(float(t), vg_theta(LOAM, float(t))) for t in h]
    a = fit_vg(pts)
    b = fit_vg(pts)
    assert (a.theta_r, a.theta_s, a.alpha, a.n) == (b.theta_r, b.theta_s, b.alpha, b.n)


def test_fit_reports_noise_floor():
    rng = np.random.default_rng(12)
    h = np.geomspace(1.0, 15000.0, 30)
    theta = vg_theta(LOAM, h) + rng.normal(0, 0.005, h.size)
    pts = [(float(t), float(np.clip(v, 0, 1))) for t, v in zip(h, theta)]
    got = fit_vg(pts)
    assert 0.002 < got.fit_rmse < 0.01


@settings(max_examples=500, deadline=None)
@given(st.floats(-800.0, 800.0) | st.floats())
@example(-709.78)  # exp(709.78) is finite: a subnormal result
@example(-710.0)  # exp(710.0) overflows
@example(710.0)
@example(-746.0)
@example(2.015625)  # one ulp off scipy
def test_expit_is_one_elementwise_logistic(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(_expit(x))
    with np.errstate(over="ignore"):
        overflows = math.isinf(np.exp(-x))
    # scipy serves only as the reference here; the package does not import it
    ref = float(special.expit(x))
    if math.isnan(x):
        assert math.isnan(got)
    elif overflows:
        assert got.hex() == "0x0.0p+0"
    else:
        # both lie in [0, 1], where the bit patterns count the ulps between them
        ulps = abs(struct.unpack("<q", struct.pack("<d", got))[0]
                   - struct.unpack("<q", struct.pack("<d", ref))[0])
        assert ulps <= 4, (got.hex(), ref.hex())
    # a 0-d input and the same value at any place of an array give one result,
    # so a lane's fit does not depend on how many lanes share its batch
    for zero_d in (np.float64(x), np.array(x)):
        assert float(_expit(zero_d)).hex() == got.hex()
    for at in range(17):
        lanes = np.linspace(-30.0, 30.0, 17)
        lanes[at] = x
        assert float(_expit(lanes)[at]).hex() == got.hex()


# Tensions of the Jacobian checks: saturation (h = 0) and 15000 cm are
# always present, the rest are drawn.
_JAC_TENSIONS = st.lists(st.floats(0.0, 15000.0), min_size=0, max_size=8).map(
    lambda hs: np.array([0.0, 15000.0] + hs)
)


def _log_tensions(h):
    return np.log(h, out=np.full_like(h, -np.inf), where=h > 0.0)


def _central_differences(u, h, theta_obs, step=1e-6):
    J = np.empty((4, h.size))
    for j in range(4):
        up = u.copy()
        up[j] += step
        um = u.copy()
        um[j] -= step
        J[j] = (_curve_residuals(up, h, theta_obs) - _curve_residuals(um, h, theta_obs)) / (2 * step)
    return J


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(-12.0, 2.0),
    st.floats(-5.0, 3.0),
    _JAC_TENSIONS,
)
def test_curve_jacobian_matches_central_differences(u0, u1, u2, u3, h):
    # u spans theta_r/theta_s and theta_s from ~2e-9 to 1 - 2e-9,
    # alpha from 6e-6 to 7.4 per cm and n from 1.007 to 21
    u = np.array([u0, u1, u2, u3])
    J = _curve_jacobian(u, _log_tensions(h))
    assert J.shape == (4, h.size)
    np.testing.assert_allclose(J, _central_differences(u, h, np.zeros_like(h)), rtol=0.0, atol=1e-7)


@settings(max_examples=200, deadline=None)
@given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(0.0, 10.0), st.floats(4.5, 6.5))
def test_curve_jacobian_is_finite_where_the_power_overflows(u0, u1, u2, u3):
    # alpha >= 1/cm and n >= 91 put (alpha*h)^n beyond float range at
    # 15000 cm; a warning would fail the test, as pytest turns it into an error
    h = np.array([0.0, 1.0, 15000.0])
    J = _curve_jacobian(np.array([u0, u1, u2, u3]), _log_tensions(h))
    assert np.isfinite(J).all()
    ratio, theta_s = _expit(u0), _expit(u1)
    # saturated end (w = 0, S = 1) and dry end (S = 0) in closed form
    assert J[:, 0].tolist() == [0.0, -theta_s * (1.0 - theta_s), 0.0, 0.0]
    dry = [-theta_s * ratio * (1.0 - ratio), -theta_s * (1.0 - theta_s) * ratio, 0.0, 0.0]
    np.testing.assert_allclose(J[:, 2], dry, rtol=1e-12, atol=1e-300)


def _reference_fit_from_start(u0, h, theta_obs):
    """_fit_from_start as it ran before the closed form: the Jacobian from
    central differences, 8 residual evaluations per step. Trials that
    overflow the parameter transform are rejected, as in the module."""
    u = u0.copy()
    r = _curve_residuals(u, h, theta_obs)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(hydrology._MAX_ITER):
        J = _central_differences(u, h, theta_obs).T
        g = J.T @ r
        JtJ = J.T @ J
        scale = np.diag(JtJ).copy()
        scale[scale <= 0] = 1.0
        accepted = False
        for _try in range(40):
            try:
                d = np.linalg.solve(JtJ + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = _curve_residuals(u + d, h, theta_obs)  # NaN where alpha or n overflows
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
            return u, cost, True
    return u, cost, False


def _transformed(p):
    return np.array([_logit(p.theta_r / p.theta_s), _logit(p.theta_s), math.log(p.alpha), math.log(p.n - 1.0)])


def _reference_fit_vg(h, theta_obs):
    """fit_vg's choice among the starts, each fitted by
    _reference_fit_from_start: the converged start of lowest sse, the
    earlier one on a tie."""
    best = None
    for u0 in hydrology._starts(h[None], theta_obs[None]):
        u, sse, ok = _reference_fit_from_start(u0, h, theta_obs)
        if ok and (best is None or sse < best[1]):
            best = (u, sse)
    theta_r, theta_s, alpha, n = hydrology._unpack(best[0])
    return VgParameters(theta_r=float(theta_r), theta_s=float(theta_s), alpha=float(alpha),
                        n=float(n), fit_rmse=math.sqrt(best[1] / h.size))


def test_fit_matches_central_difference_route():
    # 50 noisy 13-point curves, fitted once by fit_vg (batched lanes,
    # closed-form Jacobian) and once start by start by _reference_fit_from_start
    h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    rng = np.random.default_rng(8)
    curves = []
    for _ in range(50):
        theta_r = float(rng.uniform(0.0, 0.2))
        p = VgParameters(
            theta_r=theta_r,
            theta_s=float(rng.uniform(theta_r + 0.2, 0.6)),
            alpha=float(10 ** rng.uniform(-2.5, -1.0)),
            n=float(rng.uniform(1.1, 3.0)),
        )
        theta = np.clip(vg_theta(p, h) + rng.normal(0.0, 0.005, h.size), 0.0, 1.0)
        curves.append(theta)
    for theta in curves:
        new = fit_vg(list(zip(h.tolist(), theta.tolist())))
        ref = _reference_fit_vg(h, theta)
        assert new.fit_rmse**2 <= ref.fit_rmse**2 * (1.0 + 1e-9)
        # the stopping test pins u only as far as the sse feels it: along
        # the flat logit(theta_r/theta_s) of a near-zero theta_r, to a few 1e-6
        np.testing.assert_allclose(_transformed(new), _transformed(ref), rtol=0.0, atol=1e-5)
        np.testing.assert_allclose(vg_theta(new, h), vg_theta(ref, h), rtol=0.0, atol=1e-8)


# On this sandy curve an early trial step puts log(n - 1) near 4300, where
# exp overflows.
_SAND = VgParameters(theta_r=0.05, theta_s=0.4, alpha=0.2, n=3.5)


def _bits(result):
    """A fit result bit for bit: the parameters' hex forms, or the error."""
    if isinstance(result, HydrologyError):
        return type(result).__name__, str(result)
    return tuple(float(getattr(result, f)).hex()
                 for f in ("theta_r", "theta_s", "alpha", "n", "fit_rmse"))


def _arrays(pairs):
    """One sample's (tension, theta) pairs as fit_vg_curves takes them."""
    return (np.array([h for h, _ in pairs], dtype=float),
            np.array([t for _, t in pairs], dtype=float))


def test_fit_rejects_trial_steps_beyond_float_range():
    # the overflowing trial is rejected, not raised as OverflowError
    h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    got = fit_vg([(float(t), vg_theta(_SAND, float(t))) for t in h])
    assert got.theta_r == pytest.approx(_SAND.theta_r, rel=1e-6)
    assert got.alpha == pytest.approx(_SAND.alpha, rel=1e-6)
    assert got.n == pytest.approx(_SAND.n, rel=1e-6)
    assert got.fit_rmse < 1e-10


def test_fit_rejects_overflowing_trials_lane_by_lane(monkeypatch):
    # the sandy curve above, in one batch with ordinary 13- and 9-point
    # curves: its overflowing trials are rejected in its own lanes only
    nan_lanes = []

    def residuals(u, h, theta_obs):
        r = _curve_residuals(u, h, theta_obs)
        nan_lanes.append(int(np.isnan(r).all(axis=-1).sum()))
        return r

    rng = np.random.default_rng(21)
    h13 = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    curves = [[(float(t), vg_theta(_SAND, float(t))) for t in h13]]
    for h in (h13, h13, np.geomspace(1.0, 15000.0, 9)):
        theta = np.clip(vg_theta(LOAM, h) + rng.normal(0.0, 0.004, h.size), 0.0, 1.0)
        curves.append(list(zip(h.tolist(), theta.tolist())))
    solo = [fit_vg(pts) for pts in curves]
    monkeypatch.setattr(hydrology, "_curve_residuals", residuals)
    got = hydrology.fit_vg_curves([_arrays(pts) for pts in curves])
    assert sum(nan_lanes) > 0
    assert [_bits(r) for r in got] == [_bits(r) for r in solo]
    assert got[0].theta_r == pytest.approx(_SAND.theta_r, rel=1e-6)
    assert got[0].alpha == pytest.approx(_SAND.alpha, rel=1e-6)
    assert got[0].n == pytest.approx(_SAND.n, rel=1e-6)


_CURVE = st.tuples(
    st.floats(0.0, 0.2),  # theta_r
    st.floats(0.1, 0.5),  # theta_s - theta_r
    st.floats(-3.0, -0.5),  # log10 alpha
    st.floats(1.05, 4.0),  # n
    st.integers(5, 20),  # points
    st.sampled_from([0.0, 0.002, 0.01]),  # noise sd
    st.integers(0, 2**16),  # noise seed
)


def _curve_arrays(theta_r, span, log_alpha, n, points, sd, seed):
    """A drawn _CURVE's tensions (saturation, then geometric up to 15000
    cm) and its noisy water contents, clipped to [0, 1]."""
    p = VgParameters(theta_r=theta_r, theta_s=theta_r + span, alpha=10**log_alpha, n=n)
    h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, points - 1)])
    noise = np.random.default_rng(seed).normal(0.0, sd, points) if sd else 0.0
    return h, np.clip(vg_theta(p, h) + noise, 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(_CURVE, min_size=1, max_size=6))
# the first start of the second curve drifts to theta_r -> 0 and n near
# the float range, where the Jacobian overflows
@example([(0.0, 0.5, -1.0, 2.0, 5, 0.0, 0), (0.0, 0.25, -0.5, 2.015625, 16, 0.0, 0)])
def test_batched_fit_matches_each_fit_alone(curves):
    samples = [_curve_arrays(*curve) for curve in curves]
    alone = []
    for h, theta in samples:
        try:
            alone.append(fit_vg(list(zip(h.tolist(), theta.tolist()))))
        except HydrologyError as exc:
            alone.append(exc)
    got = hydrology.fit_vg_curves(samples)
    assert [_bits(r) for r in got] == [_bits(r) for r in alone]


def test_one_lane_fit_is_a_lane_of_the_batch():
    h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    theta = vg_theta(LOAM, h)
    starts = hydrology._starts(h[None], theta[None])
    u, sse, converged = hydrology._fit_lanes(starts, np.tile(h, (5, 1)), np.tile(theta, (5, 1)))
    for k, u0 in enumerate(starts):
        one = hydrology._fit_from_start(u0, h, theta)
        assert type(one[2]) is bool and one[2] == converged[k]
        assert one[0].tolist() == u[k].tolist() and one[1] == sse[k]


def test_singular_system_fails_only_its_own_lane():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4, 4)) + 4.0 * np.eye(4)
    A[2] = 0.0
    b = rng.normal(size=(4, 4))
    x = hydrology._solve_lanes(A, b)
    assert np.isnan(x[2]).all()
    for i in (0, 1, 3):
        assert x[i].tolist() == hydrology._solve_lanes(A[i:i + 1], b[i:i + 1])[0].tolist()
        np.testing.assert_allclose(A[i] @ x[i], b[i], rtol=0.0, atol=1e-12)


def test_fit_input_requirements():
    with pytest.raises(VgFitError, match="at least 5"):
        fit_vg([(10.0, 0.4)] * 4)
    narrow = [(float(t), vg_theta(LOAM, float(t))) for t in (10, 12, 15, 20, 25)]
    with pytest.raises(VgFitError, match="decade"):
        fit_vg(narrow)
    with pytest.raises(HydrologyError, match="tension"):
        fit_vg([(-1.0, 0.4)] * 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_non_finite_tensions(bad):
    h = [0.0, 1.0, 10.0, 100.0, 1000.0, 15000.0]
    pts = [(t, vg_theta(LOAM, t)) for t in h]
    pts[3] = (bad, pts[3][1])
    with pytest.raises(HydrologyError, match=f"^tension must be a finite number, got {bad}$"):
        fit_vg(pts)
    # an infinite median of the positive tensions, which no start could use
    pts = [(t, vg_theta(LOAM, t)) for t in h] + [(math.inf, LOAM.theta_r)] * 5
    with pytest.raises(HydrologyError, match="^tension must be a finite number, got inf$"):
        fit_vg(pts)


def _reference_point(tension, theta):
    """The per-point check: a finite tension >= 0 cm, then theta in [0, 1]."""
    if not math.isfinite(tension):
        raise HydrologyError(f"tension must be a finite number, got {tension}")
    if tension < 0:
        raise HydrologyError(f"tension must be >= 0 cm, got {tension}")
    if not 0.0 <= theta <= 1.0:
        raise HydrologyError(f"theta must lie in [0, 1], got {theta}")


def _reference_fit_input(points):
    """One sample's checks, one after another as fit_vg_curves made them
    before the array route: each point in turn (_reference_point), then the
    count, then the decade."""
    for point in points:
        _reference_point(*point)
    if len(points) < 5:
        raise VgFitError(f"need at least 5 retention points, got {len(points)}")
    h = np.array([t for t, _ in points], dtype=float)
    theta_obs = np.array([w for _, w in points], dtype=float)
    positive = h[h > 0]
    if positive.size == 0 or positive.max() / positive.min() < 10.0:
        raise VgFitError("retention points must span at least a decade of tension")
    return h, theta_obs


def _reference_starts(h, theta_obs):
    """The per-sample starts of one sample's points (P,) before the array
    route, with np.median."""
    theta_max = float(theta_obs.max())
    theta_min = float(theta_obs.min())
    theta_s0 = min(max(theta_max, 0.05), 0.99)
    ratio0 = min(max(theta_min / theta_s0 if theta_s0 > 0 else 0.1, 0.02), 0.9)
    h_mid = float(np.median(h[h > 0]))
    shapes = [(math.log(a), math.log(n0 - 1.0)) for a in (0.005, 0.05) for n0 in (1.2, 2.0)]
    shapes.append((math.log(1.0 / h_mid), math.log(0.5)))
    return np.array([[_logit(ratio0), _logit(theta_s0), la, ln] for la, ln in shapes])


def _reference_pick(sse, converged):
    """The start a sample took before the array route: the first converged
    one, replaced only by a later one of strictly lower sse."""
    best = None
    for lane in range(len(sse)):
        if converged[lane] and (best is None or sse[lane] < sse[best]):
            best = lane
    return best


def _reference_fit_vg_curves(samples):
    """fit_vg_curves before the array route, sample by sample: each sample's
    points checked by _reference_fit_input, its starts from
    _reference_starts, its lanes fitted alone."""
    results = []
    for points in samples:
        try:
            h, theta_obs = _reference_fit_input(points)
        except HydrologyError as exc:
            results.append(exc)
            continue
        starts = _reference_starts(h, theta_obs)
        u, sse, converged = hydrology._fit_lanes(
            starts, np.tile(h, (len(starts), 1)), np.tile(theta_obs, (len(starts), 1)))
        best = _reference_pick(sse, converged)
        if best is None:
            results.append(VgFitError(f"no start converged within {hydrology._MAX_ITER} iterations"))
            continue
        theta_r, theta_s, alpha, n = hydrology._unpack(u)
        try:
            results.append(VgParameters(
                theta_r=float(theta_r[best]), theta_s=float(theta_s[best]),
                alpha=float(alpha[best]), n=float(n[best]),
                fit_rmse=math.sqrt(float(sse[best]) / h.size),
            ))
        except HydrologyError as exc:
            results.append(exc)
    return results


# Faults of a sample: (kind, position as a fraction of the points, value).
# Several may hit one sample; the first bad point in point order decides,
# and at one point the tension is checked before theta.
_FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["tension", "theta", "tension_nan"]),
        st.floats(0.0, 0.999),
        st.sampled_from([-1.0, -1e-300, -0.0, 0.0, 1.0, 1.0 + 2**-52, 1.5, math.nan, math.inf,
                         -math.inf]),
    ),
    max_size=3,
)

_SAMPLES = st.lists(
    st.tuples(
        st.sampled_from([0, 3, 4, 5, 9, 13, 15]),  # points
        st.sampled_from(["ladder", "zero_first", "decade", "narrow", "all_zero"]),  # tensions
        st.floats(0.0, 0.2),  # theta_r
        st.floats(0.1, 0.5),  # theta_s - theta_r
        st.floats(-3.0, -0.5),  # log10 alpha
        st.floats(1.05, 4.0),  # n
        st.integers(0, 2**16),  # noise seed
        _FAULTS,
    ),
    min_size=1,
    max_size=7,
)


def _sample_points(points, tensions, theta_r, span, log_alpha, n, seed, faults):
    rng = np.random.default_rng(seed)
    if tensions == "ladder":  # all positive: an odd or even count
        h = np.geomspace(1.0, 15000.0, points)
    elif tensions == "zero_first":  # saturation plus points - 1 positive
        h = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, max(points - 1, 0))])
    elif tensions == "decade":  # exactly a decade
        h = np.geomspace(10.0, 100.0, points)
    elif tensions == "narrow":  # under a decade
        h = np.geomspace(10.0, 95.0, points)
    else:
        h = np.zeros(points)
    p = VgParameters(theta_r=theta_r, theta_s=theta_r + span, alpha=10**log_alpha, n=n)
    theta = np.clip(vg_theta(p, h) + rng.normal(0.0, 0.004, points), 0.0, 1.0)
    pairs = list(zip(h.tolist(), theta.tolist()))
    for kind, where, value in faults:
        if not pairs:
            break
        j = int(where * len(pairs))
        tension, water = pairs[j]
        if kind == "tension":
            pairs[j] = (value, water)
        elif kind == "theta":
            pairs[j] = (tension, value)
        else:  # a NaN tension is refused, as no finite number
            pairs[j] = (math.nan, water)
    return pairs


@settings(max_examples=40, deadline=None)
@given(_SAMPLES)
@example([(13, "zero_first", 0.05, 0.4, -1.7, 1.6, 1, []),
          (9, "ladder", 0.05, 0.4, -1.7, 1.6, 2, [("theta", 0.5, 1.5), ("tension", 0.9, -1.0)]),
          (5, "ladder", 0.05, 0.4, -1.7, 1.6, 3, [("theta", 0.2, math.nan)]),
          (4, "ladder", 0.05, 0.4, -1.7, 1.6, 4, []),
          (13, "narrow", 0.05, 0.4, -1.7, 1.6, 5, []),
          (9, "all_zero", 0.05, 0.4, -1.7, 1.6, 6, []),
          (13, "zero_first", 0.05, 0.4, -1.7, 1.6, 7, [("tension_nan", 0.5, 0.0)]),
          (15, "ladder", 0.05, 0.4, -1.7, 1.6, 8, [("tension", 0.3, -1.0), ("theta", 0.3, 1.5)])])
@example([(9, "decade", 0.05, 0.4, -1.7, 1.6, 9, [("theta", 0.2, 0.0), ("theta", 0.6, 1.0)]),
          (13, "zero_first", 0.05, 0.4, -1.7, 1.6, 10, [("tension", 0.5, -0.0)])])
@example([(5, "all_zero", 0.0, 0.5, -1.0, 2.0, 0, [("tension", 0.0, math.inf)])])
def test_fit_vg_curves_matches_the_per_sample_route(samples):
    # valid and invalid samples of several point counts, as array pairs:
    # every result and every error text as the per-sample route gives it
    pairs = [_sample_points(*spec) for spec in samples]
    got = hydrology.fit_vg_curves([_arrays(pts) for pts in pairs])
    assert [_bits(r) for r in got] == [_bits(r) for r in _reference_fit_vg_curves(pairs)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1e-3, 2e-3, 0.5, math.inf, math.nan]), st.booleans()),
                min_size=hydrology._N_STARTS, max_size=hydrology._N_STARTS))
def test_best_lane_is_the_per_sample_choice(lanes):
    # lane k of the one sample holds alpha = k + 1, so the result names
    # the lane; NaN and inf costs, ties and unconverged lanes included
    sse = np.array([c for c, _ in lanes])
    converged = np.array([ok for _, ok in lanes])
    u = np.array([[0.0, 0.0, math.log(k + 1.0), 0.0] for k in range(len(lanes))])
    params, _, errors = hydrology._pick_lanes(u, sse, converged, 4)
    best = _reference_pick(sse, converged)
    if best is None:
        assert _bits(errors[0]) == ("VgFitError", "no start converged within 500 iterations")
    else:
        assert errors == [None] and round(params[0, 2]) == best + 1


def test_picked_lane_keeps_its_first_parameter_fault():
    # each mix of a ratio that rounds to 1 (theta_r = theta_s), an alpha
    # that underflows to 0 and an n that rounds to 1, each the only
    # converged lane of its sample: the error VgParameters raises first
    corners = itertools.product((40.0, 0.0), (0.5,), (-800.0, -3.0), (-50.0, 0.3))
    u = np.repeat(np.array(list(corners)), hydrology._N_STARTS, axis=0)
    converged = np.tile([True] + [False] * (hydrology._N_STARTS - 1), len(u) // hydrology._N_STARTS)
    params, _, errors = hydrology._pick_lanes(u, np.zeros(len(u)), converged, 9)
    want = []
    for p in params.tolist():
        try:
            VgParameters(*p)
            want.append(None)
        except HydrologyError as exc:
            want.append(_bits(exc))
    assert [None if err is None else _bits(err) for err in errors] == want
    assert want.count(None) == 1


def test_starts_of_a_group_are_each_samples_own():
    # odd and even positive counts, unsorted tensions and a NaN tension;
    # in the last row the median is a tension whose inverse np.log, on an
    # array, takes to another double than math.log
    rng = np.random.default_rng(5)
    h = rng.uniform(0.0, 15000.0, (200, 9))
    h[::2, 0] = 0.0
    h[1, 4] = math.nan
    h[-1] = [12000.0, 1.0, 10.0, 100.0, 6169.112880375168, 8000.0, 9000.0, 1000.0, 10000.0]
    theta = rng.uniform(0.0, 1.0, h.shape)
    got = hydrology._starts(h, theta)
    want = np.concatenate([_reference_starts(h[i], theta[i]) for i in range(len(h))])
    assert got.tolist() == want.tolist()



def test_groups_follow_the_first_valid_sample_of_each_point_count(monkeypatch):
    # a failing 9-point sample comes first, so the 13-point group is fitted
    # first; each group in one _fit_lanes call, its rows in row order, with
    # a pool of 2 lanes refilled as they stop
    calls = []

    def fit_lanes(u0, h, theta_obs):
        calls.append((len(u0), h.shape[1], theta_obs[:, 0].tolist()))
        return hydrology_fit_lanes(u0, h, theta_obs)

    hydrology_fit_lanes = hydrology._fit_lanes
    h9, h13 = np.geomspace(1.0, 15000.0, 9), np.geomspace(1.0, 15000.0, 13)
    samples = [(h9, np.full(9, 1.5))] + [(h13, vg_theta(LOAM, h13))]
    samples += [(h9, np.clip(vg_theta(LOAM, h9) + k / 100, 0.0, 1.0)) for k in range(5)]
    alone = [hydrology.fit_vg_curves([sample])[0] for sample in samples]
    monkeypatch.setattr(hydrology, "_fit_lanes", fit_lanes)
    monkeypatch.setattr(hydrology, "_POOL_LANES", 2)
    codes = np.repeat(np.arange(len(samples)), [len(h) for h, _ in samples])
    params, rmse, errors = hydrology.fit_vg_rows(
        codes, *(np.concatenate([pair[k] for pair in samples]) for k in (0, 1)))
    assert isinstance(errors[0], HydrologyError) and errors[1:] == [None] * 6
    got = [tuple(v.hex() for v in (*p, r)) if err is None else _bits(err)
           for err, p, r in zip(errors, params.tolist(), rmse.tolist())]
    assert got == [_bits(r) for r in alone]
    first = [theta[0] for _, theta in samples]
    assert calls == [(5, 13, first[1:2]), (25, 9, first[2:7])]


@settings(max_examples=6, deadline=None)
@given(st.lists(_CURVE, max_size=11), st.integers(0, 11), st.sampled_from([10, hydrology._MAX_ITER]))
def test_pool_width_changes_no_lane(curves, at, max_iter):
    # the same lanes through pools of 1, 2, 7 and all lanes at once: each
    # lane's (u, sse, converged) bit for bit, and no round wider than the
    # pool; a cap of 10 accepted steps stops many lanes unconverged
    samples = [_curve_arrays(*curve) for curve in curves]
    h13 = np.concatenate([[0.0], np.geomspace(1.0, 15000.0, 12)])
    samples.insert(at, (h13, vg_theta(_SAND, h13)))  # its trials overflow
    fit_lanes, curve_residuals = hydrology._fit_lanes, hydrology._curve_residuals
    widest = []

    def recorded_fit_lanes(u0, h, theta_obs):
        u, sse, converged = fit_lanes(u0, h, theta_obs)
        lanes.append((u.tolist(), sse.tolist(), converged.tolist()))
        return u, sse, converged

    def counted_residuals(u, h, theta_obs):
        widest[-1] = max(widest[-1], len(u))
        return curve_residuals(u, h, theta_obs)

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hydrology, "_fit_lanes", recorded_fit_lanes)
        patch.setattr(hydrology, "_curve_residuals", counted_residuals)
        patch.setattr(hydrology, "_MAX_ITER", max_iter)
        for width in (1, 2, 7, hydrology._N_STARTS * len(samples)):
            patch.setattr(hydrology, "_POOL_LANES", width)
            lanes = []
            widest.append(0)
            fits = hydrology.fit_vg_curves(samples)
            assert 0 < widest[-1] <= width
            runs.append((lanes, [_bits(r) for r in fits]))
    assert all(run == runs[-1] for run in runs)


def test_tensions_spanning_beyond_float_range_fit_without_a_warning():
    # the ratio of the largest to the smallest positive tension overflows
    # to inf, which spans a decade
    h = np.geomspace(1.1e-290, 3.3e268, 6)
    theta = np.array([0.45, 0.44, 0.4, 0.3, 0.2, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (got,) = hydrology.fit_vg_curves([(h, theta)])
    assert isinstance(got, VgParameters)


# ----------------------------------------------------------------------
# texture statistics
# ----------------------------------------------------------------------

def test_texture_pure_sand():
    d_g, sigma_g = texture_statistics(100.0, 0.0, 0.0)
    assert d_g == pytest.approx(1.025, rel=1e-12)
    assert sigma_g == pytest.approx(1.0, rel=1e-12)


def test_texture_mixed_values():
    d_g, sigma_g = texture_statistics(40.0, 40.0, 20.0)
    assert d_g == pytest.approx(0.058922190700652514, rel=1e-12)
    assert sigma_g == pytest.approx(13.708634094625927, rel=1e-12)
    d_g, sigma_g = texture_statistics(20.0, 30.0, 50.0)
    assert d_g == pytest.approx(0.010632533934478475, rel=1e-12)
    assert sigma_g == pytest.approx(14.655441343313228, rel=1e-12)


def test_texture_more_clay_means_finer():
    coarse, _ = texture_statistics(80.0, 15.0, 5.0)
    fine, _ = texture_statistics(10.0, 40.0, 50.0)
    assert fine < coarse


def test_texture_sum_tolerance():
    texture_statistics(40.0, 40.0, 20.4)  # 100.4 within band
    with pytest.raises(HydrologyError, match="expected 100"):
        texture_statistics(40.0, 40.0, 19.0)  # sums to 99
    with pytest.raises(HydrologyError, match="expected 100"):
        texture_statistics(40.0, 40.0, 20.6)
    with pytest.raises(HydrologyError, match="negative"):
        texture_statistics(103.0, -3.0, 0.0)


# ----------------------------------------------------------------------
# model configurations and targets
# ----------------------------------------------------------------------

def test_config_layouts():
    assert MODEL_CONFIGS["SWRC1"].features == BASE_FEATURES
    assert MODEL_CONFIGS["SWRC2"].features == BASE_FEATURES + SCALE_FEATURES
    assert MODEL_CONFIGS["SWRC1"].targets == POINT_TARGETS
    assert MODEL_CONFIGS["SWRC3"].targets == PARAMETRIC_TARGETS
    assert MODEL_CONFIGS["SHC2"].targets == SHC_TARGETS
    assert "internal_diameter_cm" in MODEL_CONFIGS["SHC4"].features
    assert len(POINT_TARGETS) == 10
    assert set(LOG_TARGETS) == {"log_alpha", "log_n", "log_ksat"}


def test_config_validation():
    with pytest.raises(HydrologyError, match="duplicate"):
        ModelConfig("X", ("a", "a"), ("t",))
    with pytest.raises(HydrologyError, match="needs features"):
        ModelConfig("X", (), ("t",))
