"""One-state process blocks in the canonical discrete form, test models.

Each block is a process-only SystemModel: a manifold with the velocity map
f and its Jacobians, so that x_{k+1} = oplus(x_k, dt * f(x_k, u_k, w_k)),
and no measurement maps. Inputs u are block-specific (rates, camera
twists, ...); none of these demonstration blocks carries process noise, so
``predict`` takes them with a 0 x 0 Q.
"""
from typing import Callable

import numpy as np

from manikf.filter import SystemModel
from manikf.manifolds import Euclidean, SO3, Sphere2, compound
from manikf.so3 import skew
from manikf.sphere import sphere_basis


def _no_noise(l: int) -> Callable:
    return lambda x, u: np.zeros((l, 0))


def block_attitude_global() -> SystemModel:
    """Attitude driven by a rate expressed in the global frame: f = R^T u."""
    return SystemModel(
        manifold=SO3(),
        f=lambda x, u, w: x.reshape(3, 3).T @ u,
        df_dx=lambda x, u: skew(x.reshape(3, 3).T @ u),
        df_dw=_no_noise(3),
    )


def block_attitude_body() -> SystemModel:
    """Attitude driven by a body-frame rate: f = u."""
    return SystemModel(
        manifold=SO3(),
        f=lambda x, u, w: np.asarray(u, dtype=float),
        df_dx=lambda x, u: np.zeros((3, 3)),
        df_dw=_no_noise(3),
    )


def block_gravity_global() -> SystemModel:
    """Constant-magnitude vector fixed in the global frame: f = 0."""
    return SystemModel(
        manifold=Sphere2(),
        f=lambda x, u, w: np.zeros(3),
        df_dx=lambda x, u: np.zeros((3, 2)),
        df_dw=_no_noise(3),
    )


def block_gravity_body() -> SystemModel:
    """Constant-magnitude vector seen from a body rotating at rate u: f = -u."""
    return SystemModel(
        manifold=Sphere2(),
        f=lambda x, u, w: -np.asarray(u, dtype=float),
        df_dx=lambda x, u: np.zeros((3, 2)),
        df_dw=_no_noise(3),
    )


def block_bearing_landmark(
    d: Callable[[float], float] = lambda rho: rho,
    d_prime: Callable[[float], float] = lambda rho: 1.0,
    d_second: Callable[[float], float] = lambda rho: 0.0,
) -> SystemModel:
    """Bearing-and-depth landmark seen from a moving camera.

    State is (bearing on the unit sphere, depth coordinate rho) with the
    true depth d(rho) > 0; input u = (omega_C, v_C), the camera's angular
    and linear velocity in its own frame. The bearing turns with
    f_s = -omega - (1/d) skew(x) v and the depth coordinate with
    rho_dot = -x^T v / d'(rho), so the reconstructed global landmark
    R_C (x d(rho)) + p_C is constant for exact camera motion.
    """
    man = compound(Sphere2(), Euclidean(1))

    def f(state, u, w):
        x, rho = state[:3], state[3]
        omega, v = np.asarray(u[0], dtype=float), np.asarray(u[1], dtype=float)
        depth = d(rho)
        return np.concatenate(
            [-omega - (skew(x) @ v) / depth, [-(x @ v) / d_prime(rho)]]
        )

    def df_dx(state, u):
        x, rho = state[:3], state[3]
        v = np.asarray(u[1], dtype=float)
        depth, dp = d(rho), d_prime(rho)
        b, sx = sphere_basis(x), skew(x)
        out = np.zeros((4, 3))
        out[:3, :2] = -(skew(v) @ sx @ b) / depth
        out[:3, 2] = (dp / depth**2) * (sx @ v)
        out[3, :2] = (v @ (sx @ b)) / dp  # -sx @ b is d(boxplus)/du at 0
        out[3, 2] = (x @ v) * d_second(rho) / dp**2
        return out

    return SystemModel(manifold=man, f=f, df_dx=df_dx, df_dw=_no_noise(4))
