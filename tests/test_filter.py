"""Filter-level tests: textbook Kalman equivalence, prediction charts,
iterated-update behaviour, and failure modes."""
import dataclasses

import numpy as np
import pytest

from manikf.errors import DimensionError, UpdateSolverError
from manikf.filter import (
    FilterState,
    SystemModel,
    UpdateConfig,
    predict,
    update,
)
from manikf.manifolds import SO3, Euclidean, compound
from manikf.so3 import skew, so3_exp

from helpers import TextbookKF, assert_close, linear_model
from manifold_samples import with_norm


@pytest.mark.parametrize("nmax", [0, 1, 4])
def test_linear_gaussian_matches_textbook(nmax):
    rng = np.random.default_rng(7)
    n, m, dt = 4, 2, 0.1
    a = 0.3 * rng.standard_normal((n, n))
    c = rng.standard_normal((m, n))
    q = np.diag(rng.uniform(0.01, 0.1, n))
    r = np.diag(rng.uniform(0.05, 0.2, m))
    model = linear_model(a, c)
    cfg = UpdateConfig(max_iterations=nmax)

    p0 = np.diag(rng.uniform(0.5, 2.0, n))
    x0 = rng.standard_normal(n)
    state = FilterState(x0.copy(), p0.copy())
    oracle = TextbookKF(x0, p0)
    f_mat = np.eye(n) + dt * a
    q_eff = dt * dt * q

    for _ in range(100):
        u = rng.standard_normal(n)
        state = predict(model, state, u, dt, q)
        oracle.predict(f_mat, q_eff)
        oracle.x = oracle.x + dt * u
        z = rng.standard_normal(m)
        state, diag = update(model, state, z, r, config=cfg)
        oracle.update(z, c, r)
        assert_close(state.x, oracle.x, tol=1e-9, floor=1e-9)
        assert_close(state.P, oracle.p, tol=1e-9, floor=1e-9)
        # a linear problem is solved by the very first gain
        assert diag.iterations <= 1
        assert nmax == 0 or diag.converged


def test_predict_zero_velocity_is_identity():
    n = 3
    model = linear_model(np.zeros((n, n)), np.eye(n))
    p0 = np.diag([1.0, 2.0, 3.0])
    state = FilterState(np.array([1.0, -2.0, 0.5]), p0.copy())
    out = predict(model, state, np.zeros(n), 0.25, np.zeros((n, n)))
    assert_close(out.x, state.x, tol=1e-15, floor=1e-15)
    assert_close(out.P, p0, tol=1e-15, floor=1e-15)


def test_predict_rejects_wrong_q_shape():
    model = linear_model(np.zeros((2, 2)), np.eye(2))
    state = FilterState(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionError):
        predict(model, state, np.zeros(2), 0.1, np.eye(3))


def test_update_rejects_wrong_shapes():
    model = linear_model(np.zeros((2, 2)), np.eye(2))
    state = FilterState(np.zeros(2), np.eye(2))
    # z shorter than h's output must not broadcast against it
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(1), np.eye(1))
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(1), np.eye(2))
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(3), np.eye(2))
    # R must be square
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(2), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(2), np.ones(2))
    # and as long as z: a 1 x 1 R must not broadcast over both rows, nor a
    # 3 x 3 one fail inside numpy's broadcasting
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(2), np.eye(1))
    with pytest.raises(DimensionError):
        update(model, state, np.zeros(2), np.eye(3))


def test_diff_v_rotation_transport():
    # moving the estimate by dx transports the error chart by Exp(-dx)
    man = SO3()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = man.boxplus(np.eye(3).reshape(9), rng.standard_normal(3))
        dx = 0.5 * rng.standard_normal(3)
        gx, _ = man.diff_v(x, dx)
        assert_close(gx, so3_exp(-dx), tol=1e-12)


def _so3_vector_model(refs):
    """Attitude-only model: z stacks R^T r_i for fixed reference vectors."""
    man = SO3()

    def h(x, v, ctx):
        r = SO3.to_matrix(x)
        return np.concatenate([r.T @ a for a in refs]) + v

    def dh_dx(x, ctx):
        r = SO3.to_matrix(x)
        return np.vstack([skew(r.T @ a) for a in refs])

    return SystemModel(
        manifold=man,
        f=lambda x, u, w: u + w,
        df_dx=lambda x, u: np.zeros((3, 3)),
        df_dw=lambda x, u: np.eye(3),
        h=h,
        dh_dx=dh_dx,
    )


def _gauss_newton_cost(model, x_prior, p_prior, z, r, x):
    """Prior plus measurement cost of x, the objective the IEKF minimizes."""
    dx = model.manifold.boxminus(x, x_prior)
    res = z - model.h(x, np.zeros(len(r)), None)
    return float(dx @ np.linalg.solve(p_prior, dx) + res @ np.linalg.solve(r, res))


def test_iterated_update_converges_on_attitude():
    refs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    model = _so3_vector_model(refs)
    r = 1e-8 * np.eye(6)
    rng = np.random.default_rng(11)
    for _ in range(10):
        true_rot = so3_exp(rng.standard_normal(3))
        z = np.concatenate([true_rot.T @ a for a in refs])
        x0 = (true_rot @ so3_exp(0.3 * rng.standard_normal(3))).reshape(9)
        state = FilterState(x0, 1.0 * np.eye(3))
        out, diag = update(model, state, z, r, config=UpdateConfig(max_iterations=15))
        assert diag.converged
        est = SO3.to_matrix(out.x)
        assert np.max(np.abs(est - true_rot)) < 1e-5
        # relinearization should not increase the Gauss-Newton cost
        costs = np.array([
            _gauss_newton_cost(model, x0, state.P, z, r, update(
                model, state, z, r, config=UpdateConfig(max_iterations=nmax))[0].x)
            for nmax in range(5)
        ])
        assert np.all(np.diff(costs) <= 1e-9 + 0.05 * costs[:-1])


def _curved_model(scale):
    """A nonlinear measurement of Euclidean(3) with the state in units 1/scale."""

    def h(x, v, ctx):
        a, b, c = x / scale
        return np.array([a + 0.5 * b * b, np.sin(b) + c, a * c, np.exp(0.3 * c)]) + v

    def dh_dx(x, ctx):
        a, b, c = x / scale
        return np.array([
            [1.0, b, 0.0],
            [0.0, np.cos(b), 1.0],
            [c, 0.0, a],
            [0.0, 0.0, 0.3 * np.exp(0.3 * c)],
        ]) / scale

    return SystemModel(
        manifold=Euclidean(3),
        f=lambda x, u, w: u + w,
        df_dx=lambda x, u: np.zeros((3, 3)),
        df_dw=lambda x, u: np.eye(3),
        h=h,
        dh_dx=dh_dx,
    )


def test_stopping_rule_is_scale_free():
    # the step is measured against the posterior, so rescaling the state's
    # units (x -> s x, P -> s^2 P) must stop every update at the same index
    s, nmax = 1e3, 10
    unit, scaled = _curved_model(1.0), _curved_model(s)
    r = 0.02**2 * np.eye(4)
    rng = np.random.default_rng(23)
    for _ in range(20):
        truth = rng.uniform(-1.0, 1.0, 3)
        x0 = truth + 0.3 * rng.standard_normal(3)
        p0 = 0.3**2 * np.eye(3)
        z = unit.h(truth, np.zeros(4), None) + 0.02 * rng.standard_normal(4)
        cfg = UpdateConfig(max_iterations=nmax)
        out_u, diag_u = update(unit, FilterState(x0, p0), z, r, config=cfg)
        out_s, diag_s = update(scaled, FilterState(s * x0, s * s * p0), z, r, config=cfg)
        assert (diag_s.iterations, diag_s.converged) == (diag_u.iterations, diag_u.converged)
        assert diag_u.converged and 1 <= diag_u.iterations < nmax
        assert_close(out_s.x, s * out_u.x, tol=1e-9, floor=0.0)
        # an absolute 1e-6 bound on the step would not have stopped here in
        # the scaled units: the last step taken is far longer than that
        k = diag_s.iterations
        before = update(scaled, FilterState(s * x0, s * s * p0), z, r,
                        config=UpdateConfig(max_iterations=k - 1))[0].x
        assert np.linalg.norm(out_s.x - before) > 1e-6


def test_update_respects_iteration_cap():
    refs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    model = _so3_vector_model(refs)
    true_rot = so3_exp(np.array([0.4, -0.3, 0.9]))
    z = np.concatenate([true_rot.T @ a for a in refs])
    x0 = (true_rot @ so3_exp(np.array([0.3, 0.2, -0.25]))).reshape(9)
    for nmax in (0, 1, 2, 3):
        state = FilterState(x0.copy(), np.eye(3))
        _, diag = update(
            model, state, z, 1e-8 * np.eye(6),
            config=UpdateConfig(max_iterations=nmax),
        )
        assert diag.iterations <= nmax


def test_covariance_reset_jacobian_near_identity():
    man = SO3()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = so3_exp(rng.standard_normal(3)).reshape(9)
        dxo = 10.0 ** rng.uniform(-6, -2) * with_norm(rng, 3)
        lmat = man.diff_u(x, dxo)
        assert np.linalg.norm(lmat - np.eye(3)) <= 10.0 * np.linalg.norm(dxo)


def test_compound_update_decouples_independent_blocks():
    # two independent Euclidean blocks filtered jointly (block-diagonal
    # everything) must agree with filtering each block on its own
    rng = np.random.default_rng(19)
    n1, n2 = 2, 3
    a1 = 0.2 * rng.standard_normal((n1, n1))
    a2 = 0.2 * rng.standard_normal((n2, n2))
    c1 = rng.standard_normal((1, n1))
    c2 = rng.standard_normal((2, n2))
    m1 = linear_model(a1, c1)
    m2 = linear_model(a2, c2)

    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1], a[n1:, n1:] = a1, a2
    c = np.zeros((3, n1 + n2))
    c[:1, :n1], c[1:, n1:] = c1, c2
    joint = dataclasses.replace(linear_model(a, c),
                                manifold=compound(Euclidean(n1), Euclidean(n2)))

    q1, q2 = np.diag([0.02, 0.03]), np.diag([0.01, 0.04, 0.02])
    r1, r2 = np.array([[0.1]]), np.diag([0.2, 0.15])
    qj = np.zeros((n1 + n2, n1 + n2))
    qj[:n1, :n1], qj[n1:, n1:] = q1, q2
    rj = np.zeros((3, 3))
    rj[:1, :1], rj[1:, 1:] = r1, r2

    s1 = FilterState(rng.standard_normal(n1), np.eye(n1))
    s2 = FilterState(rng.standard_normal(n2), 2.0 * np.eye(n2))
    sj = FilterState(np.concatenate([s1.x, s2.x]),
                     np.diag(np.concatenate([np.ones(n1), 2.0 * np.ones(n2)])))
    dt = 0.05
    for _ in range(40):
        u1, u2 = rng.standard_normal(n1), rng.standard_normal(n2)
        s1 = predict(m1, s1, u1, dt, q1)
        s2 = predict(m2, s2, u2, dt, q2)
        sj = predict(joint, sj, np.concatenate([u1, u2]), dt, qj)
        z1, z2 = rng.standard_normal(1), rng.standard_normal(2)
        s1, _ = update(m1, s1, z1, r1)
        s2, _ = update(m2, s2, z2, r2)
        sj, _ = update(joint, sj, np.concatenate([z1, z2]), rj)
        assert_close(sj.x, np.concatenate([s1.x, s2.x]), tol=1e-10, floor=1e-10)
        assert_close(sj.P[:n1, :n1], s1.P, tol=1e-10, floor=1e-10)
        assert_close(sj.P[n1:, n1:], s2.P, tol=1e-10, floor=1e-10)
        assert np.max(np.abs(sj.P[:n1, n1:])) < 1e-10


def test_indefinite_prior_raises():
    # the gain starts from the Cholesky factor of P, which an indefinite P lacks
    model = linear_model(np.zeros((2, 2)), np.eye(2))
    state = FilterState(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(UpdateSolverError) as exc:
        update(model, state, np.ones(2), np.eye(2))
    assert np.isfinite(exc.value.condition)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_prior_raises(bad):
    # numpy factors a NaN P into a NaN factor without raising
    model = linear_model(np.zeros((2, 2)), np.eye(2))
    p = np.eye(2)
    p[0, 0] = bad
    with pytest.raises(UpdateSolverError) as exc:
        update(model, FilterState(np.zeros(2), p), np.ones(2), np.eye(2))
    assert np.isinf(exc.value.condition)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, np.finfo(float).max])
def test_overflowing_gain_matrix_raises(scale):
    # a finite dh_dx this large overflows A^T A; LAPACK's Cholesky alone would
    # return a non-finite factor without an error
    model = linear_model(np.zeros((2, 2)), np.full((2, 2), scale))
    with pytest.raises(UpdateSolverError, match="gain matrix"):
        update(model, FilterState(np.zeros(2), np.eye(2)), np.ones(2), np.eye(2))


def test_update_rejects_correlated_or_nonpositive_noise():
    # the gain weighs each row by 1/sigma, so R must be a positive diagonal
    model = linear_model(np.zeros((2, 2)), np.eye(2))
    state = FilterState(np.zeros(2), np.eye(2))
    for r in (np.array([[1.0, 0.1], [0.1, 1.0]]), np.diag([1.0, 0.0]), np.diag([1.0, -1.0])):
        with pytest.raises(DimensionError):
            update(model, state, np.ones(2), r)


@pytest.mark.parametrize("m", [1, 10, 23, 200])
def test_single_linearization_matches_innovation_form(m):
    """The square-root information gain equals the dense innovation form.

    Each form rounds with eps times its own condition number: cond(S) for
    S = H P H^T + R, and 1 + the largest prior/posterior variance ratio for
    the information matrix. Prior eigenvalues in [1e-4, 1e-2], the scale of
    the filters' covariances, keep the two within ~3e-11 of each other, so
    1e-10 checks the algebra rather than rounding (with a unit-scale prior
    they differ by up to ~1e-8). Row variances span 1e-6 to 1.
    """
    n = 23
    rng = np.random.default_rng(m)
    for _ in range(10):
        c = rng.standard_normal((m, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        p = q @ np.diag(10.0 ** rng.uniform(-4.0, -2.0, n)) @ q.T
        r = np.diag(10.0 ** rng.uniform(-6.0, 0.0, m))
        x, z = rng.standard_normal(n), rng.standard_normal(m)
        model = linear_model(np.zeros((n, n)), c)
        out, _ = update(model, FilterState(x, p), z, r, config=UpdateConfig(max_iterations=0))
        s = c @ p @ c.T + r
        k = np.linalg.solve(s, c @ p).T
        assert_close(out.x, x + k @ (z - c @ x), tol=1e-10, floor=0.0)
        assert_close(out.P, (np.eye(n) - k @ c) @ p, tol=1e-10, floor=0.0)
        assert np.array_equal(out.P, out.P.T)
        np.linalg.cholesky(out.P)
