"""Tests for the IMU process / scan-to-map measurement model."""
import numpy as np
import pytest

from manikf.baseline import N_CONSTRAINTS, baseline_model, from_manifold
from manikf.errors import ContractViolationError, DimensionError
from manikf.filter import FilterState, UpdateConfig, predict, update
from manikf.lidar_inertial import (
    NOISE_DIM,
    REP,
    STATE_MANIFOLD,
    TAN,
    TANGENT_DIM,
    PlaneFeature,
    ScanRows,
    lidar_inertial_model,
    scan_residuals,
)
from manikf.so3 import so3_exp
from manikf.sphere import sphere_basis
from manikf.trajectory import SCENARIOS, ScenarioConfig, generate_trajectory

from helpers import (
    assert_close,
    fd_jacobian,
    random_li_state,
    random_scan,
    scan_of,
    stack_scans,
)
from manifold_samples import with_norm


def test_manifold_dimensions():
    man = STATE_MANIFOLD
    assert man.dim == TANGENT_DIM == 23
    assert man.rep_dim == 36
    assert NOISE_DIM == 12


def test_feature_validation():
    nan, inf = float("nan"), float("inf")
    for u in ([1.0, 1.0, 0.0], [nan, 0.0, 0.0], [1.0, nan, 0.0], [inf, 0.0, 0.0],
              [-inf, 0.0, 0.0], [inf, -inf, 0.0], [inf, nan, 0.0]):
        with pytest.raises(ContractViolationError):
            ScanRows(np.zeros((1, 3)), np.zeros((1, 3)), np.array([u]))
        with pytest.raises(ContractViolationError):  # one bad row of a scan
            ScanRows(np.zeros((2, 3)), np.zeros((2, 3)), np.array([[0.0, 0.0, 1.0], u]))
    # p_f, q and g must all be (n, 3) with one n, or h would broadcast or misread them
    z3, g5 = np.array([0.0, 0.0, 1.0]), random_scan(np.random.default_rng(1), 5).g
    for p_f, q, g in (
        (np.zeros((1, 3)), np.zeros((5, 3)), g5),  # one point for five rows
        (np.zeros((5, 3)), np.zeros((1, 3)), g5),  # one anchor for five rows
        (np.zeros((3, 3)), np.zeros((3, 3)), z3),  # a 1-D g, whose len is 3
        (np.zeros(3), np.zeros(3), z3),
        (np.zeros((2, 3)), np.zeros((2, 3)), np.eye(2)),  # a (2, 2) g
        (np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)),
    ):
        with pytest.raises(DimensionError):
            ScanRows(p_f, q, g)
    assert len(random_scan(np.random.default_rng(0), 2, 1)) == 2 + 2


def _accepts(u):
    try:
        ScanRows(np.zeros((1, 3)), np.zeros((1, 3)), u[None])
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
    # a ScanRows draws the same line on each of its rows
    g = np.array([[0.0, 1.0 + 0.5e-9, 0.0], [0.0, 0.0, 1.0 - 0.5e-9]])
    assert len(ScanRows(np.zeros((2, 3)), np.zeros((2, 3)), g)) == 2
    with pytest.raises(ContractViolationError):
        ScanRows(np.zeros((2, 3)), np.zeros((2, 3)), g * [[1.0], [1.0 + 3e-9]])


def _stacks(rng, k_steps=3, m=4):
    """(K, m, 3) stacks of points, anchors and unit normals, as a trajectory's."""
    g = rng.standard_normal((k_steps, m, 3))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    return rng.standard_normal((k_steps, m, 3)), rng.standard_normal((k_steps, m, 3)), g


def test_scan_steps_check_every_step_once():
    # the one check of the stacked rows must reach the last step's last row
    rng = np.random.default_rng(43)
    nan, inf = float("nan"), float("inf")
    for u in ((1.0 + 3e-9) * with_norm(rng, 3), [nan, 0.0, 0.0], [0.0, inf, 0.0]):
        p_f, q, g = _stacks(rng)
        g[-1, -1] = u
        with pytest.raises(ContractViolationError):
            ScanRows.steps(p_f, q, g)
    # each row gets the verdict its own step's ScanRows gives it
    for _ in range(300):
        p_f, q, g = _stacks(rng)
        g[-1, -1] = (1.0 + rng.uniform(-2e-9, 2e-9)) * with_norm(rng, 3)
        try:
            ScanRows.steps(p_f, q, g)
        except ContractViolationError:
            assert not _accepts(g[-1, -1])
        else:
            assert _accepts(g[-1, -1])
    # stacks of one (K, m, 3) shape, or no step's rows would line up
    p_f, q, g = _stacks(rng)
    for bad in (
        (p_f, q[:, :-1], g),  # one row fewer in every step
        (p_f, q, g[:-1]),  # one step fewer
        (p_f.reshape(4, 3, 3), q, g),  # the same rows in other steps
        (p_f[..., :2], q[..., :2], g[..., :2]),  # (K, m, 2)
        (np.tile([1.0, 0.0, 0.0], 16).reshape(3, 4, 4),) * 3,  # (K, m, 4): unit rows if flat
        tuple(a.reshape(-1, 3) for a in (p_f, q, g)),  # one scan's (n, 3) rows
    ):
        with pytest.raises(DimensionError):
            ScanRows.steps(*bad)


def test_scan_steps_are_read_only_views_of_the_stacks():
    p_f, q, g = _stacks(np.random.default_rng(47), 5, 2)
    steps = ScanRows.steps(p_f, q, g)
    assert len(steps) == 5 and all(type(rows) is ScanRows for rows in steps)
    for k, rows in enumerate(steps):
        for name, stack in (("p_f", p_f), ("q", q), ("g", g)):
            view = getattr(rows, name)
            assert view.tobytes() == stack[k].tobytes() and np.shares_memory(view, stack)
            with pytest.raises(ValueError):
                view[0] += 1.0
    assert ScanRows.steps(*(np.zeros((0, 4, 3)),) * 3) == []


def test_scan_rows_iterate_as_their_plane_features():
    rows = random_scan(np.random.default_rng(37), 3, 2)
    assert len(rows) == len(rows.g) == 7
    feats = list(rows)
    assert len(feats) == 7 and all(isinstance(ft, PlaneFeature) for ft in feats)
    for i, ft in enumerate(feats):
        assert np.array_equal(ft.p_f, rows.p_f[i])
        assert np.array_equal(ft.u_dir, rows.g[i])
        assert np.array_equal(ft.q, rows.q[i])
        assert np.shares_memory(ft.p_f, rows.p_f) and np.shares_memory(ft.q, rows.q)
    again = scan_of([(ft.p_f, ft.u_dir, ft.q) for ft in feats])
    for name in ("p_f", "q", "g"):
        assert getattr(again, name).tobytes() == getattr(rows, name).tobytes()


def test_generated_scans_are_scan_rows():
    cfg = ScenarioConfig(scenario="circle", duration=0.05, points_per_update=13)
    traj = generate_trajectory(cfg)
    assert len(traj.features) == cfg.n_steps == traj.imu.shape[0]
    for scan in traj.features:
        assert isinstance(scan, ScanRows)
        assert len(scan) == 13
        assert scan.p_f.shape == scan.q.shape == scan.g.shape == (13, 3)


def test_update_with_empty_scan_keeps_the_state():
    # a scan of zero rows carries no information: x is kept bitwise, and P is
    # rebuilt from its factor only up to rounding
    rng = np.random.default_rng(41)
    rows = random_scan(rng, 0)
    assert len(rows) == 0 and rows.g.shape == (0, 3)
    a = rng.standard_normal((TANGENT_DIM, TANGENT_DIM))
    state = FilterState(random_li_state(rng), 0.01 * (a @ a.T) + 1e-4 * np.eye(TANGENT_DIM))
    out, _ = update(lidar_inertial_model(), state, np.zeros(0), np.zeros((0, 0)), ctx=rows)
    assert out.x.tobytes() == state.x.tobytes()
    assert_close(out.P, state.P, tol=1e-15, floor=1e-30)


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
    """(p_f, normal, q) rows of planes, and of edges (two rows each), whose
    scanned points lie exactly on them at state x."""
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
        planes.append((lidar_point(target), u, q))
    for _ in range(n_edge):
        u = with_norm(rng, 3)
        q = rng.standard_normal(3)
        # the global point lands on the line q + t u
        target = q + rng.standard_normal() * u
        edges.append([(lidar_point(target), n, q) for n in sphere_basis(u).T])
    return planes, edges


def test_point_on_plane_gives_zero_residual():
    # place each scanned point exactly on its plane or edge line: h must vanish
    rng = np.random.default_rng(5)
    model = lidar_inertial_model()
    x = random_li_state(rng)
    planes, edges = _features_on_map(rng, x, 5, 4)
    # plane, edge, plane, ...: residual rows and feature indices out of step
    feats = [ft for pl, ed in zip(planes, edges) for ft in (pl, *ed)] + planes[len(edges):]
    rows = scan_of(feats)
    assert len(rows.g) == 5 + 2 * 4
    res = model.h(x, np.zeros(len(rows.g)), rows)
    assert np.max(np.abs(res)) < 1e-10
    bres = baseline_model(augmented=False).h(
        from_manifold(x), np.zeros(len(rows.g)), rows)
    assert np.max(np.abs(bres)) < 1e-10


@pytest.mark.parametrize("quat", [False, True], ids=["ikfom", "quat"])
def test_plane_and_edge_paths_agree(quat):
    # planes, edge, plane, edge: each row of h and dh_dx of the stacked scan
    # is that of its own plane or edge alone, and the augmented baseline's
    # constraint rows come last
    rng = np.random.default_rng(7)
    model, extra, x = lidar_inertial_model(), 0, random_li_state(rng)
    if quat:
        model, extra, x = baseline_model(augmented=True), N_CONSTRAINTS, from_manifold(x)
    parts = [random_scan(rng, *shape) for shape in ((6, 0), (0, 1), (1, 0), (0, 1))]
    rows = stack_scans(*parts)
    n = len(rows)
    v = 0.01 * rng.standard_normal(n + extra)
    h, jac = model.h(x, v, rows), model.dh_dx(x, rows)
    assert h.shape == (n + extra,)
    starts = np.cumsum([0] + [len(sc) for sc in parts])
    for sc, a, b in zip(parts, starts, starts[1:]):
        keep = np.r_[a:b, n:n + extra]
        assert_close(h[keep], model.h(x, v[keep], sc), tol=1e-12)
        assert_close(jac[keep], model.dh_dx(x, sc), tol=1e-12, floor=1e-14)


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


def test_point_noise_is_unit_variance_per_row():
    # isotropic noise sigma^2 I on the scanned points is sigma^2 I on the
    # residual rows: the rows' Jacobian J in the points has J J^T = I; an
    # edge's two rows share one point, so this also checks their cross term
    rng = np.random.default_rng(19)
    model = lidar_inertial_model()
    for n_plane, n_edge in ((6, 0), (3, 3), (0, 4)):
        for _ in range(5):
            x = random_li_state(rng)
            rows = random_scan(rng, n_plane, n_edge)
            n = len(rows)
            # one point per plane or edge; an edge's two rows take its one point
            first = np.r_[0:n_plane, n_plane:n:2]
            owner = np.r_[0:n_plane, np.repeat(np.arange(n_plane, n_plane + n_edge), 2)]
            v0 = np.zeros(n)
            hp = lambda pf: np.asarray(
                model.h(x, v0, ScanRows(pf.reshape(-1, 3)[owner], rows.q, rows.g)))
            points = rows.p_f[first].reshape(-1)
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
                             scan_of([(p_f, n, q) for n in sphere_basis(u).T]))
        w = rot @ (r_ext @ p_f + x[REP["p_ext"]]) + x[REP["p"]] - q
        assert res.shape == (2,)
        assert_close(res @ res, np.sum((w - (u @ w) * u) ** 2), tol=1e-12)


def test_measurement_jacobian_sparsity():
    # v, ba, bw, g columns never enter the scan residual
    rng = np.random.default_rng(15)
    model = lidar_inertial_model()
    x = random_li_state(rng)
    jac = model.dh_dx(x, random_scan(rng, 4, 2))
    for block in ("v", "ba", "bw", "g"):
        assert np.all(jac[:, TAN[block]] == 0.0)


def _rotate_world(qmat, x):
    """The state x seen in a world turned by qmat: p, v, R and g move; the
    biases and the lidar extrinsics, in body frames, do not."""
    out = x.copy()
    for key in ("p", "v", "g"):
        out[REP[key]] = qmat @ x[REP[key]]
    out[REP["R"]] = (qmat @ x[REP["R"]].reshape(3, 3)).reshape(9)
    return out


def _error_map(qmat, x):
    """T with (Q x) boxplus (T e) = Q (x boxplus e): Q on p and v, the identity
    on the body-frame blocks, and B(Q g)^T Q B(g) on the gravity chart."""
    t = np.eye(TANGENT_DIM)
    t[TAN["p"], TAN["p"]] = t[TAN["v"], TAN["v"]] = qmat
    g = x[REP["g"]]
    t[TAN["g"], TAN["g"]] = sphere_basis(qmat @ g).T @ qmat @ sphere_basis(g)
    return t


def test_filter_is_equivariant_under_a_world_rotation():
    # Turning the world by Q moves the map's anchors and normals but not the
    # IMU readings or the scanned points. The filter started at Q x0 with
    # T P0 T^T must then track Q x_k and T_k P_k T_k^T: a frame mix-up that f
    # and df_dx share passes the FD Jacobian tests but not this one, and the
    # S^2 basis switch (on the largest component of g) must not leak in.
    qmat = so3_exp(np.array([1.4, 0.2, -0.3]))
    model, man = lidar_inertial_model(), STATE_MANIFOLD
    config = UpdateConfig(max_iterations=2)
    for name in SCENARIOS:
        cfg = ScenarioConfig(scenario=name, duration=2.0)
        traj = generate_trajectory(cfg)
        assert len(traj.features) == 200
        p0 = cfg.init_cov()
        e = np.random.default_rng(43).standard_normal(TANGENT_DIM) * np.sqrt(np.diag(p0))
        x0 = man.boxplus(traj.truth[0], e)
        g0 = x0[REP["g"]]
        assert np.argmax(qmat @ g0) != np.argmax(g0)  # the two runs use different bases
        t0 = _error_map(qmat, x0)
        a, b = FilterState(x0, p0), FilterState(_rotate_world(qmat, x0), t0 @ p0 @ t0.T)
        r = np.diag(np.full(cfg.points_per_update, cfg.sigma_feature**2))
        z = np.zeros(cfg.points_per_update)
        for k, rows in enumerate(traj.features):
            turned = ScanRows(rows.p_f, rows.q @ qmat.T, rows.g @ qmat.T)
            a = predict(model, a, traj.imu[k], cfg.dt, cfg.process_noise())
            b = predict(model, b, traj.imu[k], cfg.dt, cfg.process_noise())
            a, diag_a = update(model, a, z, r, ctx=rows, config=config)
            b, diag_b = update(model, b, z, r, ctx=turned, config=config)
            assert diag_a.iterations == diag_b.iterations, (name, k)
            t = _error_map(qmat, a.x)
            assert_close(_rotate_world(qmat, a.x), b.x, tol=1e-10, msg=f"{name} x at {k}")
            assert_close(t @ a.P @ t.T, b.P, tol=1e-10, msg=f"{name} P at {k}")
