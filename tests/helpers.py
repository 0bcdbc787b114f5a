"""Shared finite-difference oracles for the test suite."""
import numpy as np


def fd_jacobian(fun, x, eps=1e-6):
    """Central finite differences of fun: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    out = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = eps
        out[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * eps)
    return out


def fd_diff_u(man, x, u, v, eps=1e-6):
    """FD of boxminus(oplus(boxplus(x, u'), v), y) in u' at u, y fixed."""
    y = man.oplus(man.boxplus(x, u), v)
    return fd_jacobian(
        lambda uu: man.boxminus(man.oplus(man.boxplus(x, uu), v), y), u, eps
    )


def fd_diff_v(man, x, u, v, eps=1e-6):
    """FD of boxminus(oplus(boxplus(x, u), v'), y) in v' at v, y fixed."""
    y = man.oplus(man.boxplus(x, u), v)
    return fd_jacobian(
        lambda vv: man.boxminus(man.oplus(man.boxplus(x, u), vv), y), v, eps
    )


def fd_step_pair(man, x, v, eps=1e-6):
    """FD oracle of diff_v(x, v): (G_x, G_v) of the step oplus(x, v)."""
    zero = np.zeros(man.dim)
    return fd_diff_u(man, x, zero, v, eps), fd_diff_v(man, x, zero, v, eps)


def assert_close(a, b, tol=1e-5, floor=1e-7, msg=""):
    """Relative tolerance with an absolute floor, elementwise on the max norm."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor / tol)
    err = np.max(np.abs(a - b))
    assert err <= tol * scale, f"{msg} max err {err:.3e} > {tol * scale:.3e}"
