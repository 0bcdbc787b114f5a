"""Filter-level tests: iterated-update behaviour, the square-root gain
against the innovation form, and failure modes."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from manikf.errors import DimensionError, UpdateSolverError
from manikf.filter import (
    CONVERGENCE_TOL,
    FilterState,
    SystemModel,
    UpdateConfig,
    predict,
    update,
)
from manikf.harness import run_trial
from manikf.lidar_inertial import STATE_MANIFOLD, TAN, TANGENT_DIM, lidar_inertial_model
from manikf.manifolds import SO3, Euclidean, compound
from manikf.so3 import skew, so3_exp
from manikf.sphere import sphere_basis
from manikf.trajectory import ScenarioConfig

from helpers import assert_close, linear_model, random_li_state, random_scan
from manifold_samples import with_norm


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


def test_h_is_checked_at_every_iterate():
    # h is evaluated again after each step below the cap, and that value must
    # pass the prior's checks: a non-finite one is a solver error, and a wrong
    # shape (one row would broadcast) a dimension error. At a cap of 0 the
    # update stops before it evaluates h at the step.
    base = linear_model(np.zeros((2, 2)), np.eye(2))
    x0 = np.array([0.5, -1.0])
    for bad, err in ((np.full(2, np.nan), UpdateSolverError), (np.full(2, np.inf), UpdateSolverError),
                     (np.zeros(1), DimensionError), (np.zeros(3), DimensionError)):
        model = dataclasses.replace(
            base, h=lambda x, v, ctx, bad=bad: x + v if np.array_equal(x, x0) else bad)
        state = FilterState(x0.copy(), np.eye(2))
        with pytest.raises(err):
            update(model, state, np.ones(2), np.eye(2))
        out, _ = update(model, state, np.ones(2), np.eye(2), config=UpdateConfig(max_iterations=0))
        assert np.isfinite(out.x).all()


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
    iterations = []
    for _ in range(10):
        true_rot = so3_exp(rng.standard_normal(3))
        z = np.concatenate([true_rot.T @ a for a in refs])
        x0 = (true_rot @ so3_exp(0.3 * rng.standard_normal(3))).reshape(9)
        state = FilterState(x0, 1.0 * np.eye(3))
        out, diag = update(model, state, z, r, config=UpdateConfig(max_iterations=15))
        assert diag.converged
        iterations.append(diag.iterations)
        est = SO3.to_matrix(out.x)
        assert np.max(np.abs(est - true_rot)) < 1e-5
        # relinearization should not increase the Gauss-Newton cost
        costs = np.array([
            _gauss_newton_cost(model, x0, state.P, z, r, update(
                model, state, z, r, config=UpdateConfig(max_iterations=nmax))[0].x)
            for nmax in range(5)
        ])
        assert np.all(np.diff(costs) <= 1e-9 + 0.05 * costs[:-1])
    # h turns with the attitude, so a stop rule that never relinearizes fails here
    assert max(iterations) >= 1


def _scan_updates(n_draws=20, rot_err=0.3, pos_err=0.1):
    """Seeded lidar-inertial updates (30 planes, 5 edges, row sigma 0.01)
    under the scenario's default prior, from an estimate off the truth by
    rot_err rad in attitude and pos_err m in position (by default far outside
    the prior): (model, state, z, R, rows) per draw."""
    model, man = lidar_inertial_model(), STATE_MANIFOLD
    sigma, p0 = 0.01, ScenarioConfig().init_cov()
    for seed in range(n_draws):
        rng = np.random.default_rng(seed)
        truth = random_li_state(rng)
        rows = random_scan(rng, 30, 5)
        z = model.h(truth, np.zeros(len(rows)), rows) + sigma * rng.standard_normal(len(rows))
        e = np.zeros(TANGENT_DIM)
        e[TAN["R"]], e[TAN["p"]] = with_norm(rng, 3, rot_err), with_norm(rng, 3, pos_err)
        yield model, FilterState(man.boxplus(truth, e), p0), z, sigma**2 * np.eye(len(rows)), rows


def _posterior_distance(man, x, ref):
    """|x boxminus ref.x| under the covariance ref.P."""
    gap = man.boxminus(x, ref.x)
    return float(np.sqrt(gap @ np.linalg.solve(ref.P, gap)))


def test_update_reaches_the_fixed_point_from_a_large_error(monkeypatch):
    # The stop test predicts the next step from h alone, leaving out how H and
    # J turn. The estimate must still lie within CONVERGENCE_TOL, under the
    # posterior, of the fixed point of the same update iterated to 1e-9.
    for model, state, z, r, rows in _scan_updates():
        out, diag = update(model, state, z, r, ctx=rows, config=UpdateConfig(max_iterations=15))
        with monkeypatch.context() as tight:
            tight.setattr("manikf.filter.CONVERGENCE_TOL", 1e-9)
            ref, diag_ref = update(model, state, z, r, ctx=rows,
                                   config=UpdateConfig(max_iterations=50))
        assert diag.converged and diag.iterations >= 1 and diag_ref.converged
        assert _posterior_distance(model.manifold, out.x, ref) <= CONVERGENCE_TOL


def test_fixed_point_is_the_map_estimate(monkeypatch):
    # An oracle independent of update's algebra: minimize the MAP cost
    # |L_P^-1 d|^2 + |w (z - h(x boxplus d))|^2 over d in the prior's chart
    # with a general least-squares solver (finite-difference Jacobian). The
    # update iterated to 1e-9 must land on x boxplus d* under its posterior.
    monkeypatch.setattr("manikf.filter.CONVERGENCE_TOL", 1e-9)
    for model, state, z, r, rows in _scan_updates():
        man, l_prior = model.manifold, np.linalg.cholesky(state.P)
        w, vzero = 1.0 / np.sqrt(np.diagonal(r)), np.zeros(len(z))

        def cost_rows(d):
            x = man.boxplus(state.x, d)
            return np.concatenate([scipy.linalg.solve_triangular(l_prior, d, lower=True),
                                   w * (z - model.h(x, vzero, rows))])

        fit = scipy.optimize.least_squares(cost_rows, np.zeros(man.dim))
        assert fit.success
        ref, diag = update(model, state, z, r, ctx=rows, config=UpdateConfig(max_iterations=50))
        assert diag.converged
        assert _posterior_distance(man, man.boxplus(state.x, fit.x), ref) <= 1e-4


def test_update_takes_one_chart_step_per_linearization():
    # Every iterate is the prior boxplus a step in the prior's chart, so each
    # linearization costs one diff_u at the prior, which also gives the J that
    # carries the prior (and at the end the posterior); nothing goes back
    # through boxminus. The last case starts at the truth, where h is about
    # linear along the first step and the update stops there.
    cases = list(_scan_updates()) + list(_scan_updates(1, 0.0, 0.0))
    iterations = []
    for model, state, z, r, rows in cases:
        man = model.manifold
        with mock.patch.object(man, "diff_u", wraps=man.diff_u) as diff_u, \
                mock.patch.object(man, "boxminus", wraps=man.boxminus) as boxminus:
            _, diag = update(model, state, z, r, ctx=rows, config=UpdateConfig(max_iterations=15))
        assert (diff_u.call_count, boxminus.call_count) == (diag.iterations + 1, 0)
        iterations.append(diag.iterations)
    assert min(iterations[:-1]) >= 1 and iterations[-1] == 0


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
    # numpy integers are caps too; a negative or fractional cap is an error,
    # not a cap of 0 or of the next integer up
    assert UpdateConfig(max_iterations=np.int64(2)).max_iterations == 2
    for bad in (-1, np.int64(-1), 2.5, np.float64(3.0), "2", True, None):
        with pytest.raises(ValueError):
            UpdateConfig(max_iterations=bad)
    with pytest.raises(ValueError):
        run_trial(ScenarioConfig(scenario="circle", duration=0.05, dt=0.01, nmax=2.5))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [(1, 0), (2, 0), (2, 1)])
def test_non_finite_prior_below_the_diagonal_raises(bad, at):
    # the factorization reads only P's lower triangle, where this entry is
    model = linear_model(np.zeros((3, 3)), np.eye(3))
    p = np.eye(3)
    p[at] = bad
    with pytest.raises(UpdateSolverError, match="prior covariance") as exc:
        update(model, FilterState(np.zeros(3), p), np.ones(3), np.eye(3))
    assert np.isinf(exc.value.condition)


@pytest.mark.parametrize("zero", [slice(0, 2), slice(2, 4)])
def test_semidefinite_prior_raises(zero):
    # a block of zero variance, as a state part the prior pins exactly, leaves
    # P without a Cholesky factor wherever the block is
    model = linear_model(np.zeros((4, 4)), np.eye(4))
    p = np.full((4, 4), 0.5) + np.eye(4)
    p[zero, :] = p[:, zero] = 0.0
    with pytest.raises(UpdateSolverError, match="prior covariance"):
        update(model, FilterState(np.zeros(4), p), np.ones(4), np.eye(4))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, np.finfo(float).max])
def test_overflowing_gain_matrix_raises(scale):
    # a finite dh_dx this large overflows A^T A; LAPACK's Cholesky alone would
    # return a non-finite factor without an error
    model = linear_model(np.zeros((2, 2)), np.full((2, 2), scale))
    with pytest.raises(UpdateSolverError, match="gain matrix"):
        update(model, FilterState(np.zeros(2), np.eye(2)), np.ones(2), np.eye(2))


def test_update_rejects_correlated_or_nonpositive_noise():
    # the gain weighs each row by 1/sigma, so R must be a positive diagonal:
    # any off-diagonal entry that is not +-0, whatever its sign or size,
    # NaN and inf included, makes it correlated
    state = FilterState(np.zeros(2), np.eye(2))
    for m in (2, 200):
        model = linear_model(np.zeros((2, 2)), np.ones((m, 2)))
        for bad in (0.1, -0.1, np.nan, np.inf, -np.inf, 5e-324):
            r = np.eye(m)
            r[m - 1, 0] = bad
            with pytest.raises(DimensionError):
                update(model, state, np.ones(m), r)
        for var in (0.0, -1.0, np.nan):
            with pytest.raises(DimensionError):
                update(model, state, np.ones(m), np.diag(np.r_[np.ones(m - 1), var]))
        r = np.eye(m)
        r[m - 1, 0] = r[0, m - 1] = -0.0
        update(model, state, np.ones(m), r)  # a signed zero is still diagonal


@pytest.mark.parametrize("m", [1, 10, 23, 200])
def test_single_linearization_matches_innovation_form(m):
    """The square-root information gain equals the dense innovation form,
    at the manifold filter's 23 and the baseline's 26 tangent dimensions.

    Each form rounds with eps times its own condition number: cond(S) for
    S = H P H^T + R, and 1 + the largest prior/posterior variance ratio for
    the information matrix. Prior eigenvalues in [1e-4, 1e-2], the scale of
    the filters' covariances, keep the two within ~3e-11 of each other, so
    1e-10 checks the algebra rather than rounding (with a unit-scale prior
    they differ by up to ~1e-8). Row variances span 1e-6 to 1.

    P+ is exactly symmetric, with no 0.5 (P + P^T): numpy takes g.dot(g.T)
    by syrk, which computes one triangle and mirrors it. A general product
    need not be symmetric; OpenBLAS 0.3's gemm rounds the two triangles of
    G G^T apart at n = 26, though not at 23.
    """
    rng = np.random.default_rng(m)
    for n in (23, 26):
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
            assert np.array_equal(out.P, out.P.T), n
            np.linalg.cholesky(out.P)


def test_dot_matches_matmul_bitwise_on_the_step_shapes():
    """ndarray.dot, which the package calls for every product of 1-D or 2-D
    operands, gives the bits of @ on the shapes and layouts a filter step
    multiplies: 3x3 chart matrices and the F-ordered 3x2 sphere basis, the
    23x23, 23x24 and 24x12 predict blocks (26 for the baseline), m x 23
    measurement blocks with matrix and 1-D right operands, and the A^T A and
    G G^T products numpy takes by syrk. A numpy or BLAS upgrade that breaks
    this fails here, by name, before tools/record_digest.py moves."""
    rng = np.random.default_rng(35)
    shapes = [((3, 3), (3, 3)), ((3, 3), (3,)), ((3,), (3,)), ((3, 2), (2,)),
              ((2, 3), (3, 3)), ((2, 3), (3, 2)), ((23, 24), (24, 23)), ((23, 24), (24, 12)),
              ((23, 12), (12, 12)), ((23, 12), (12, 23))]
    for n in (23, 26):
        shapes += [((n, n), (n, n)), ((n, n), (n,)), ((n,), (n,))]
        for m in (10, 13, 200):
            shapes += [((m, n), (n, n)), ((m, n), (n,)), ((n, m), (m,)), ((m, 3), (3, 3))]
    for shape_a, shape_b in shapes:
        for _ in range(10):
            a0, b0 = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
            for a in (np.ascontiguousarray(a0), np.asfortranarray(a0)):
                for b in (np.ascontiguousarray(b0), np.asfortranarray(b0)):
                    orders = (shape_a, shape_b, a.flags.c_contiguous, b.flags.c_contiguous)
                    assert np.array_equal(a.dot(b), a @ b), orders
    for n in (23, 26):
        g = rng.standard_normal((n, n))
        assert np.array_equal(g.dot(g.T), g @ g.T), n
        for m in (10, 13, 200):
            a = rng.standard_normal((m, n))
            assert np.array_equal(a.T.dot(a), a.T @ a), (m, n)
    for _ in range(50):
        b, rot = sphere_basis(rng.standard_normal(3)), so3_exp(rng.standard_normal(3))
        c, u = sphere_basis(rot[0]).T, rng.standard_normal(2)  # a C-ordered view of one
        for x, y in ((b, u), (c, rot), (c, rot.T), (c.dot(rot), b), (c, c.T), (rot, b)):
            assert np.array_equal(x.dot(y), x @ y), (x.shape, y.shape)
