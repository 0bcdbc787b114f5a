"""Sphere chart operators and their analytic derivatives."""
import itertools

import numpy as np
import pytest

from manikf.errors import CutLocusError
from manikf.so3 import skew, so3_exp
from manikf.sphere import (
    _basis_stack,
    sphere_basis,
    sphere_boxminus,
    sphere_boxplus,
    sphere_m,
    sphere_oplus,
)

from helpers import assert_close, fd_jacobian
from manifold_samples import with_norm

RADII = (1.0, 9.81)
# the cut-locus threshold of sphere_boxminus scales with x @ x, not a radius
BOXMINUS_RADII = (1e-3, 1.0, 9.81, 1e3)


def _basis_expression(x):
    """Columns j, k of c I + skew(w) + w w^T / (1 + c), as matrices."""
    n = x / np.linalg.norm(x)
    i = int(np.argmax(n))
    j, k = (i + 1) % 3, (i + 2) % 3
    w = np.zeros(3)
    w[j], w[k] = -n[k], n[j]
    rot = n[i] * np.eye(3) + skew(w) + np.outer(w, w) / (1.0 + n[i])
    return rot[:, [j, k]]


def _switch_points():
    """Points where sphere_basis switches its axis or sign: random points,
    each axis and its antipode with signed zeros and offsets down to 1e-15,
    ties between components and points an ulp off them, negative and zeroed
    dominant components."""
    rng = np.random.default_rng(11)
    points = []
    for r in (1e-3, 1.0, 9.81):
        v = rng.standard_normal((10_000, 3))
        points += list(r * v / np.linalg.norm(v, axis=1, keepdims=True))
        for i in range(3):
            for axis in (r * np.eye(3)[i], -r * np.eye(3)[i]):
                points.append(axis)
                points.append(np.where(axis == 0.0, -0.0, axis))
                for scale in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9):
                    points.append(axis + scale * r * rng.standard_normal(3))
                    off = axis.copy()
                    off[(i + 1) % 3] = -scale * r
                    points.append(off)
    for _ in range(2_000):
        v = -np.abs(rng.standard_normal(3))  # a negative dominant component
        points.append(v)
        for zero in (0.0, -0.0):  # a zeroed dominant component
            z = v.copy()
            z[rng.integers(3)] = zero
            points.append(z)
    points.append(-np.ones(3))
    for tie in ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                [-0.0, -1.0, -1.0], [-1.0, -0.0, -0.0]):
        for x in (np.array(tie), -np.array(tie)):
            points += [x, 9.81 * x]
            for k, to in itertools.product(range(3), (-np.inf, np.inf)):
                off = x.copy()
                off[k] = np.nextafter(off[k], to)
                points.append(off)
    return points


def test_basis_matches_matrix_expression():
    # bitwise, signs of zeros included, and F-ordered as the column slice is:
    # the BLAS products that take B round differently on a C-ordered copy.
    # B is orthonormal and tangent to rounding everywhere, also at offsets
    # from an axis down to rounding level: no near-axis shortcut may return
    # the bare coordinate axes
    assert np.array_equal(sphere_basis(np.array([0.0, 0.0, 1.0])), np.eye(3)[:, :2])
    for x in _switch_points():
        got, want = sphere_basis(x), _basis_expression(x)
        assert got.shape == (3, 2) and got.flags.f_contiguous, x
        assert got.tobytes() == want.tobytes(), x
        assert np.max(np.abs(got.T @ got - np.eye(2))) < 1e-12, x
        assert np.max(np.abs(got.T @ x)) <= 1e-14 * np.linalg.norm(x), x


def test_stacked_basis_matches_sphere_basis_bitwise():
    # the record's stacked twin against the per-step kernel, row by row; a
    # stack of one is the same row of a longer stack
    points = np.array(_switch_points())
    got = _basis_stack(points)
    assert got.shape == (len(points), 3, 2)
    for x, b in zip(points, got):
        assert b.tobytes() == sphere_basis(x).tobytes(), x
    for k in (0, 17, len(points) - 1):
        assert _basis_stack(points[k:k + 1])[0].tobytes() == got[k].tobytes()
        assert _basis_stack(points[k]).tobytes() == got[k].tobytes()
    assert _basis_stack(points[:20].reshape(4, 5, 3)).tobytes() == got[:20].tobytes()
    for size in (11, 101):
        for k in range(0, len(points) - size, 997):
            assert _basis_stack(points[k:k + size]).tobytes() == got[k:k + size].tobytes()


def test_basis_cache_returns_each_point_its_own_read_only_basis():
    # sphere_basis keeps the last basis it built; b differs from a in its
    # last coordinate only, so a key on fewer bytes would hand a's basis to b
    a = np.array([0.3, -1.2, 9.7])
    b = np.array([0.3, -1.2, 9.6])
    for p in (a, b, a):
        got = sphere_basis(p)
        assert np.ascontiguousarray(got).tobytes() == _basis_stack(p[None])[0].tobytes(), p
        assert np.max(np.abs(got.T @ p)) < 1e-12 * np.linalg.norm(p), p
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


def test_boxminus_quarter_turn_norm():
    u = sphere_boxminus(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert abs(np.linalg.norm(u) - np.pi / 2) < 1e-12


def test_boxminus_identity_zero():
    rng = np.random.default_rng(5)
    for r in BOXMINUS_RADII:
        x = with_norm(rng, 3, r)
        assert np.array_equal(sphere_boxminus(x, x), np.zeros(2))


def test_boxminus_recovers_small_steps_at_every_radius():
    # the cut-locus threshold scales with x @ x: unscaled, it would take a
    # point of norm 1e-3 and its boxplus by 1e-5 rad for the same point
    rng = np.random.default_rng(13)
    for r in BOXMINUS_RADII:
        for norm in (1e-7, 1e-6, 1e-5):
            for _ in range(20):
                x = with_norm(rng, 3, r)
                u = with_norm(rng, 2, norm)
                back = sphere_boxminus(sphere_boxplus(x, u), x)
                assert np.linalg.norm(back - u) <= 1e-8 * norm, (r, norm)


def test_boxminus_antipodal_raises():
    rng = np.random.default_rng(10)
    for r in BOXMINUS_RADII:
        for x in (np.array([0.0, 0.0, r]), with_norm(rng, 3, r)):
            with pytest.raises(CutLocusError):
                sphere_boxminus(-x, x)


def test_boxminus_on_a_stack():
    rng = np.random.default_rng(12)
    for r in BOXMINUS_RADII:
        xs = np.array([with_norm(rng, 3, r) for _ in range(20)])
        ys = np.array([with_norm(rng, 3, r) for _ in range(20)])
        ys[::4] = xs[::4]
        got = sphere_boxminus(ys, xs)
        assert got.shape == (20, 2)
        for y, x, g in zip(ys, xs, got):
            assert np.array_equal(sphere_boxminus(y, x), g)
        assert np.array_equal(got[::4], np.zeros((5, 2)))
        # one point against a stack, and a stack of stacks
        assert np.array_equal(sphere_boxminus(ys, xs[3]),
                              np.array([sphere_boxminus(y, xs[3]) for y in ys]))
        assert np.array_equal(sphere_boxminus(ys.reshape(4, 5, 3), xs.reshape(4, 5, 3)),
                              got.reshape(4, 5, 2))
        ys[7] = -xs[7]
        with pytest.raises(CutLocusError):  # one antipodal row
            sphere_boxminus(ys, xs)


def _boxminus_reference(y, x):
    """sphere_boxminus's stack form before its fixed cost per call was cut
    (fancy-index gathers for the cross product, a matmul per row dot), with
    the bases of sphere_basis, C-ordered as _basis_stack's: the bits to keep."""
    def rowdot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    cx = x[..., [1, 2, 0]] * y[..., [2, 0, 1]] - x[..., [2, 0, 1]] * y[..., [1, 2, 0]]
    s, c = np.sqrt(rowdot(cx, cx)), rowdot(x, y)
    same = s < 1e-9 * rowdot(x, x)
    if np.any(same & (c < 0.0)):
        raise CutLocusError("antipodal")
    w = np.divide(np.arctan2(s, c), s, out=np.zeros_like(s), where=~same)[..., None] * cx
    b = np.array([sphere_basis(p) for p in x.reshape(-1, 3)]).reshape(x.shape + (2,))
    return (w[..., None, :] @ b)[..., 0, :]


def test_boxminus_matches_its_array_reference_bitwise():
    # x at every basis switch point, y random, near, equal and near-antipodal
    # (but not cut), in stacks of 1, 11 and 101 rows, and a stack of y against
    # one x and one y against a stack of x
    def outcome(f, y, x):  # the bytes, or that the pair was cut
        try:
            return f(y, x).tobytes()
        except CutLocusError:
            return "cut"

    rng = np.random.default_rng(14)
    xs = np.array(_switch_points())
    r = np.linalg.norm(xs, axis=1, keepdims=True)
    for ys in (xs[rng.permutation(len(xs))], xs + 1e-3 * r * rng.standard_normal(xs.shape), xs,
               -xs + 1e-7 * r * rng.standard_normal(xs.shape)):
        assert outcome(sphere_boxminus, ys, xs) == outcome(_boxminus_reference, ys, xs)
        for size in (1, 11, 101):
            for k in range(0, len(xs) - size, 1009):
                y, x = ys[k:k + size], xs[k:k + size]
                for pair in ((y, x), (y, x[0]), (y[0], x)):
                    assert outcome(sphere_boxminus, *pair) == outcome(_boxminus_reference, *pair), k


def test_oplus_rotation_cases():
    x = np.array([0.0, 0.0, 1.0])
    assert np.allclose(sphere_oplus(x, np.array([0.0, 0.0, 2 * np.pi])), x)
    y = sphere_oplus(x, np.array([np.pi / 2, 0.0, 0.0]))
    assert np.allclose(y, so3_exp(np.array([np.pi / 2, 0.0, 0.0])) @ x)
    assert np.allclose(np.abs(y), [0.0, 1.0, 0.0], atol=1e-12)


def test_m_tangency_at_zero():
    rng = np.random.default_rng(6)
    for r in RADII:
        for _ in range(100):
            x = with_norm(rng, 3, r)
            assert np.max(np.abs(x @ sphere_m(x, np.zeros(2)))) < 1e-9 * r


def test_m_matches_fd():
    rng = np.random.default_rng(8)
    for r in RADII:
        for _ in range(300):
            x = with_norm(rng, 3, r)
            u = rng.standard_normal(2)
            assert_close(
                sphere_m(x, u),
                fd_jacobian(lambda uu: sphere_boxplus(x, uu), u),
                tol=1e-5,
                msg=f"M at r={r}",
            )
