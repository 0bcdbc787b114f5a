"""Tests for the IMU process / scan-to-map measurement model."""
import dataclasses

import numpy as np
import pytest

from manikf.baseline import N_CONSTRAINTS, baseline_model, from_manifold
from manikf.errors import ContractViolationError, DimensionError
from manikf.filter import FilterState, update
from manikf.lidar_inertial import (
    NOISE_DIM,
    REP,
    TAN,
    TANGENT_DIM,
    PlaneFeature,
    edge_features,
    lidar_inertial_model,
    scan_residuals,
    scan_rows,
    state_manifold,
)

from helpers import (
    assert_additive_noise,
    assert_close,
    fd_jacobian,
    random_features,
    random_li_state,
)
from manifold_samples import with_norm


def test_manifold_dimensions():
    man = state_manifold()
    assert man.dim == TANGENT_DIM == 23
    assert man.rep_dim == 36
    assert NOISE_DIM == 12


def test_feature_validation():
    nan, inf = float("nan"), float("inf")
    for u in ([1.0, 1.0, 0.0], [nan, 0.0, 0.0], [1.0, nan, 0.0], [inf, 0.0, 0.0],
              [-inf, 0.0, 0.0], [inf, -inf, 0.0], [inf, nan, 0.0]):
        with pytest.raises(ContractViolationError):
            PlaneFeature(np.zeros(3), np.array(u), np.zeros(3))
        with pytest.raises(ContractViolationError):
            edge_features(np.zeros(3), np.array(u), np.zeros(3))
    feats = random_features(np.random.default_rng(0), 2, 1)
    assert len(scan_rows(feats).g) == 2 + 2


def _accepts(u):
    try:
        PlaneFeature(np.zeros(3), u, np.zeros(3))
    except ContractViolationError:
        return False
    return True


def test_unit_check_boundary_is_that_of_the_norm():
    # | |u| - 1 | <= 1e-9 passes, as under abs(np.linalg.norm(u) - 1) > 1e-9
    rng = np.random.default_rng(17)
    for d in (0.5e-9, -0.5e-9):
        assert _accepts((1.0 + d) * np.array([0.0, 1.0, 0.0]))
        assert _accepts((1.0 + d) * with_norm(rng, 3))
    for d in (2e-9, -2e-9):
        assert not _accepts((1.0 + d) * np.array([0.0, 0.0, -1.0]))
        assert not _accepts((1.0 + d) * with_norm(rng, 3))
    for _ in range(5000):
        u = (1.0 + rng.uniform(-2e-9, 2e-9)) * with_norm(rng, 3)
        assert _accepts(u) == (not abs(np.linalg.norm(u) - 1.0) > 1e-9)


def test_empty_feature_list_rejected():
    with pytest.raises(DimensionError):
        scan_rows([])


def test_hover_equilibrium():
    # stationary IMU reading -g with matching biases: zero state velocity
    rng = np.random.default_rng(3)
    model = lidar_inertial_model()
    for _ in range(10):
        x = random_li_state(rng)
        x[REP["v"]] = 0.0
        rot = x[REP["R"]].reshape(3, 3)
        a_m = rot.T @ (-x[REP["g"]]) + x[REP["ba"]]
        w_m = x[REP["bw"]]
        f = model.f(x, np.concatenate([a_m, w_m]), np.zeros(NOISE_DIM))
        assert np.max(np.abs(f)) < 1e-12


def _features_on_map(rng, x, n_plane, n_edge):
    """Planes and edges (two rows each) whose scanned points lie exactly on
    them at state x."""
    rot = x[REP["R"]].reshape(3, 3)
    r_ext = x[REP["R_ext"]].reshape(3, 3)
    p, p_ext = x[REP["p"]], x[REP["p_ext"]]

    def lidar_point(target):
        return r_ext.T @ (rot.T @ (target - p) - p_ext)

    planes, edges = [], []
    for _ in range(n_plane):
        u = with_norm(rng, 3)
        q = rng.standard_normal(3)
        # choose p_f so the global point lands on the plane through q
        t = rng.standard_normal(3)
        target = q + t - (u @ t) * u
        planes.append(PlaneFeature(p_f=lidar_point(target), u_dir=u, q=q))
    for _ in range(n_edge):
        u = with_norm(rng, 3)
        q = rng.standard_normal(3)
        # the global point lands on the line q + t u
        target = q + rng.standard_normal() * u
        edges.append(edge_features(lidar_point(target), u, q))
    return planes, edges


def test_point_on_plane_gives_zero_residual():
    # place each scanned point exactly on its plane or edge line: h must vanish
    rng = np.random.default_rng(5)
    model = lidar_inertial_model()
    x = random_li_state(rng)
    planes, edges = _features_on_map(rng, x, 5, 4)
    # plane, edge, plane, ...: residual rows and feature indices out of step
    feats = [ft for pl, ed in zip(planes, edges) for ft in (pl, *ed)] + planes[len(edges):]
    rows = scan_rows(feats)
    assert len(rows.g) == 5 + 2 * 4
    res = model.h(x, np.zeros(len(rows.g)), rows)
    assert np.max(np.abs(res)) < 1e-10
    bres = baseline_model(augmented=False).h(
        from_manifold(x), np.zeros(len(rows.g)), rows)
    assert np.max(np.abs(bres)) < 1e-10


def test_update_with_edges_succeeds():
    # every edge row must carry information: a rank-deficient edge projector
    # makes the innovation matrix singular and the update fail
    rng = np.random.default_rng(17)
    model = lidar_inertial_model()
    sigma = 0.02
    for _ in range(5):
        x = random_li_state(rng)
        planes, edges = _features_on_map(rng, x, 10, 3)
        rows = scan_rows(planes + sum(edges, []))
        r = sigma**2 * np.eye(len(rows.g))
        state = FilterState(x, 0.01 * np.eye(TANGENT_DIM))
        out, _ = update(model, state, np.zeros(len(rows.g)), r, ctx=rows)
        np.linalg.cholesky(out.P)


@pytest.mark.parametrize("quat", [False, True], ids=["ikfom", "quat"])
def test_plane_and_edge_paths_agree(quat):
    # appending an edge must leave every other row of h and dh_dx unchanged:
    # the plane rows, and the augmented baseline's constraint rows
    rng = np.random.default_rng(7)
    model, extra, x = lidar_inertial_model(), 0, random_li_state(rng)
    if quat:
        model, extra, x = baseline_model(augmented=True), N_CONSTRAINTS, from_manifold(x)
    planes = random_features(rng, 6)
    rows_m, rows_p = scan_rows(planes + random_features(rng, 0, 1)), scan_rows(planes)
    n, n_m = len(rows_p.g), len(rows_m.g)
    v = 0.01 * rng.standard_normal(n_m + extra)
    keep = np.r_[0:n, n_m:n_m + extra]
    assert_close(model.h(x, v, rows_m)[keep], model.h(x, v[keep], rows_p), tol=1e-12)
    assert_close(model.dh_dx(x, rows_m)[keep], model.dh_dx(x, rows_p),
                 tol=1e-12, floor=1e-14)


def test_process_jacobians_match_fd():
    rng = np.random.default_rng(9)
    model = lidar_inertial_model()
    man = model.manifold
    for _ in range(20):
        x = random_li_state(rng)
        u = np.concatenate([rng.standard_normal(3), 0.5 * rng.standard_normal(3)])
        fx = lambda e: np.asarray(model.f(man.boxplus(x, e), u, np.zeros(NOISE_DIM)))
        fw = lambda w: np.asarray(model.f(x, u, w))
        assert_close(model.df_dx(x, u), fd_jacobian(fx, np.zeros(TANGENT_DIM)),
                     tol=1e-5, floor=1e-7)
        assert_close(model.df_dw(x, u), fd_jacobian(fw, np.zeros(NOISE_DIM)),
                     tol=1e-5, floor=1e-7)


def test_process_jacobian_sparsity():
    # only the v, R, ba, g columns of the velocity rows and the bw column of
    # the attitude row may be populated
    rng = np.random.default_rng(11)
    model = lidar_inertial_model()
    x = random_li_state(rng)
    u = rng.standard_normal(6)
    jac = model.df_dx(x, u)
    mask = np.zeros_like(jac, dtype=bool)
    mask[0:3, TAN["v"]] = True
    mask[3:6, TAN["R"]] = True
    mask[3:6, TAN["ba"]] = True
    mask[3:6, TAN["g"]] = True
    mask[6:9, TAN["bw"]] = True
    assert np.all(jac[~mask] == 0.0)


def test_measurement_jacobians_match_fd():
    rng = np.random.default_rng(13)
    model = lidar_inertial_model()
    man = model.manifold
    for n_plane, n_edge in ((8, 0), (3, 2), (0, 3)):
        for _ in range(5):
            x = random_li_state(rng)
            rows = scan_rows(random_features(rng, n_plane, n_edge))
            nv = len(rows.g)
            hx = lambda e: np.asarray(model.h(man.boxplus(x, e), np.zeros(nv), rows))
            assert_close(model.dh_dx(x, rows),
                         fd_jacobian(hx, np.zeros(TANGENT_DIM)),
                         tol=1e-5, floor=1e-7)
            assert_additive_noise(model.h, x, rows, nv)


def test_point_noise_is_unit_variance_per_row():
    # isotropic noise sigma^2 I on the scanned points is sigma^2 I on the
    # residual rows: the rows' Jacobian J in the points has J J^T = I; an
    # edge's two rows share one point, so this also checks their cross term
    rng = np.random.default_rng(19)
    model = lidar_inertial_model()
    for n_plane, n_edge in ((6, 0), (3, 3), (0, 4)):
        for _ in range(5):
            x = random_li_state(rng)
            feats = random_features(rng, n_plane, n_edge)
            # one point per plane or edge; an edge's two rows are rebuilt from its one
            groups = [feats[i:i + 1] for i in range(n_plane)] + [
                feats[i:i + 2] for i in range(n_plane, len(feats), 2)]
            n = len(feats)
            v0 = np.zeros(n)
            hp = lambda pf: np.asarray(model.h(x, v0, scan_rows([
                dataclasses.replace(ft, p_f=p)
                for group, p in zip(groups, pf.reshape(-1, 3)) for ft in group
            ])))
            points = np.concatenate([group[0].p_f for group in groups])
            # h is affine in the points, so a wide step is exact up to rounding
            jac = fd_jacobian(hp, points, eps=1e-3)
            assert jac.shape == (n_plane + 2 * n_edge, 3 * (n_plane + n_edge))
            assert_close(jac @ jac.T, np.eye(n), tol=1e-9)


def test_edge_rows_measure_the_distance_to_the_line():
    # an edge's two rows are the mapped point's offsets in the plane normal
    # to the edge: their squared sum is |w - (u^T w) u|^2, w = point - anchor
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = random_li_state(rng)
        rot, r_ext = x[REP["R"]].reshape(3, 3), x[REP["R_ext"]].reshape(3, 3)
        u, p_f, q = with_norm(rng, 3), 2.0 * rng.standard_normal(3), rng.standard_normal(3)
        res = scan_residuals(rot, r_ext, x[REP["p"]], x[REP["p_ext"]],
                             scan_rows(edge_features(p_f, u, q)))
        w = rot @ (r_ext @ p_f + x[REP["p_ext"]]) + x[REP["p"]] - q
        assert res.shape == (2,)
        assert_close(res @ res, np.sum((w - (u @ w) * u) ** 2), tol=1e-12)


def test_scan_rows_carry_their_features_geometry():
    # plane, edge, plane, edge: each residual row holds its own feature's
    # point, anchor and normal, and an edge's two rows share its point and anchor
    planes = random_features(np.random.default_rng(23), 2)
    edges = random_features(np.random.default_rng(29), 0, 2)
    feats = [planes[0], *edges[0:2], planes[1], *edges[2:4]]
    rows = scan_rows(feats)
    assert rows.p_f.shape == rows.q.shape == rows.g.shape == (6, 3)
    assert np.array_equal(rows.p_f, [ft.p_f for ft in feats])
    assert np.array_equal(rows.q, [ft.q for ft in feats])
    assert np.array_equal(rows.g, [ft.u_dir for ft in feats])
    for i in (1, 4):
        assert np.array_equal(rows.p_f[i], rows.p_f[i + 1])
        assert np.array_equal(rows.q[i], rows.q[i + 1])


def test_measurement_jacobian_sparsity():
    # v, ba, bw, g columns never enter the scan residual
    rng = np.random.default_rng(15)
    model = lidar_inertial_model()
    x = random_li_state(rng)
    jac = model.dh_dx(x, scan_rows(random_features(rng, 4, 2)))
    for block in ("v", "ba", "bw", "g"):
        assert np.all(jac[:, TAN[block]] == 0.0)
