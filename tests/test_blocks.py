"""Tests for the process blocks, the test models of process_blocks."""
import numpy as np

from manikf.filter import FilterState, predict
from manikf.so3 import so3_exp

from helpers import assert_close
from manifold_samples import with_norm
from process_blocks import (
    block_attitude_body,
    block_attitude_global,
    block_bearing_landmark,
    block_gravity_body,
    block_gravity_global,
)


def _step(block, x, u, dt):
    """Noise-free step oplus(x, dt * f(x, u, 0)) through the filter's predict."""
    dim = block.manifold.dim
    return predict(block, FilterState(x, np.zeros((dim, dim))), u, dt, np.zeros((0, 0))).x


def test_attitude_global_matches_body():
    # a global-frame rate u and the body-frame rate R^T u must produce the
    # same next attitude
    g_blk = block_attitude_global()
    b_blk = block_attitude_body()
    rng = np.random.default_rng(4)
    for _ in range(30):
        r = so3_exp(rng.standard_normal(3))
        x = r.reshape(9)
        u = rng.standard_normal(3)
        dt = rng.uniform(0.001, 0.1)
        assert_close(_step(g_blk, x, u, dt), _step(b_blk, x, r.T @ u, dt), tol=1e-12)


def test_gravity_blocks_preserve_norm():
    rng = np.random.default_rng(8)
    for blk in (block_gravity_global(), block_gravity_body()):
        g = 9.81 * with_norm(rng, 3)
        for _ in range(200):
            g = _step(blk, g, rng.standard_normal(3), 0.01)
        assert abs(np.linalg.norm(g) - 9.81) < 1e-9


def test_gravity_body_tracks_rotating_frame():
    # constant body rate omega: the body-frame gravity direction must follow
    # R(t)^T g0 with R integrating the same rate
    blk = block_gravity_body()
    rng = np.random.default_rng(10)
    omega = np.array([0.3, -0.5, 0.8])
    g0 = 9.81 * with_norm(rng, 3)
    g = g0.copy()
    r = np.eye(3)
    dt = 0.01
    for _ in range(500):
        g = _step(blk, g, omega, dt)
        r = r @ so3_exp(dt * omega)
    assert_close(g, r.T @ g0, tol=1e-9)


def test_bearing_rate_tangent_for_pure_translation():
    blk = block_bearing_landmark()
    rng = np.random.default_rng(12)
    for _ in range(30):
        x = with_norm(rng, 3)
        state = np.concatenate([x, [rng.uniform(0.5, 3.0)]])
        u = (np.zeros(3), rng.standard_normal(3))
        f = blk.f(state, u, np.zeros(0))
        assert abs(f[:3] @ x) < 1e-12
