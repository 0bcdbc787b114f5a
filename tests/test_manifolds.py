"""Manifold interface: operators, invariants, compound composition."""
import numpy as np
import pytest

from manikf.errors import DimensionError
from manikf.lidar_inertial import GRAVITY, STATE_MANIFOLD
from manikf.manifolds import Compound, Euclidean, Manifold, SO3, Sphere2, compound
from manikf.so3 import so3_exp
from manikf.sphere import sphere_boxplus, sphere_oplus

from helpers import assert_close, fd_diff_u, fd_step_pair
from manifold_samples import ball, random_point, random_tangent, with_norm


def make_manifolds():
    """(manifold, radius of the sphere points drawn on it) pairs."""
    return [(Euclidean(4), 1.0), (SO3(), 1.0), (Sphere2(), 1.0), (Sphere2(), 9.81)]


def test_dims():
    assert (Euclidean(5).dim, Euclidean(5).control_dim, Euclidean(5).rep_dim) == (5, 5, 5)
    assert (SO3().dim, SO3().control_dim, SO3().rep_dim) == (3, 3, 9)
    s = Sphere2()
    assert (s.dim, s.control_dim, s.rep_dim) == (2, 3, 3)


def test_invalid_construction():
    with pytest.raises(DimensionError):
        Euclidean(0)
    with pytest.raises(DimensionError):
        Compound([])


def test_so3_boxplus_quarter_turn():
    man = SO3()
    out = man.boxplus(np.eye(3).reshape(9), np.array([np.pi / 2, 0, 0]))
    assert np.allclose(out.reshape(3, 3), [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-12)


def test_boxplus_and_oplus_are_defined_once():
    # both are the points of diff_u and diff_v; no class computes them a second time
    for cls in (Euclidean, SO3, Sphere2):
        assert not {"boxplus", "oplus"} & vars(cls).keys(), cls
    assert vars(Compound)["boxplus"] is Manifold.boxplus
    assert vars(Compound)["oplus"] is Manifold.oplus
    # and every public operator is Manifold's, which checks the shapes once
    names = ("boxplus", "oplus", "boxminus", "diff_u", "diff_v")
    for cls in (Euclidean, SO3, Sphere2):
        assert not set(names) & vars(cls).keys(), cls
    for name in names:
        assert vars(Compound)[name] is vars(Manifold)[name], name


def test_operator_roundtrips_all_manifolds():
    rng = np.random.default_rng(2)
    for man, radius in make_manifolds():
        for _ in range(500):
            x = random_point(man, rng, radius=radius)
            assert np.array_equal(man.boxplus(x, np.zeros(man.dim)), x)
            u = ball(rng, man.dim, np.pi - 1e-3)
            y = man.boxplus(x, u)
            assert np.allclose(man.boxminus(y, x), u, atol=1e-9)
            z = random_point(man, rng, radius=radius)
            try:
                assert np.allclose(man.boxplus(x, man.boxminus(z, x)), z, atol=1e-9 * radius)
            except ArithmeticError:
                pass  # cut-locus pair; covered by the explicit antipodal tests


def test_closure_invariants():
    # boxplus and oplus stay on the manifold: R^T R = I with det 1, and a
    # sphere point keeps its norm
    rng = np.random.default_rng(3)
    so3, sph = SO3(), Sphere2()
    for r in (1.0, 9.81):
        for _ in range(200):
            rot = so3.boxplus(random_point(so3, rng), rng.standard_normal(3)).reshape(3, 3)
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-9
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9
            x = random_point(sph, rng, radius=r)
            for y in (sph.boxplus(x, rng.uniform(-3.0, 3.0, 2)),
                      sph.oplus(x, rng.standard_normal(3))):
                assert abs(np.linalg.norm(y) - r) < 1e-9 * r


def test_diff_u_identity_cases():
    # the update's first iterate takes J = I without calling diff_u; on R^n and
    # SO(3) diff_u(x, 0) is exactly I, on S^2 it is B(x)^T B(x)
    rng = np.random.default_rng(4)
    man = Euclidean(3)
    assert np.array_equal(man.diff_u(np.zeros(3), np.zeros(3))[1], np.eye(3))
    so3 = SO3()
    x = random_point(so3, rng)
    assert np.array_equal(so3.diff_u(x, np.zeros(3))[1], np.eye(3))
    sph = Sphere2()
    x = random_point(sph, rng, radius=2.5)
    assert np.allclose(sph.diff_u(x, np.zeros(2))[1], np.eye(2), atol=1e-12)


def test_diffs_match_fd():
    # both sides of SMALL_ANGLE = 1e-4, for the step's v and the update's u, a
    # large step, and zero, where diff_v returns without Exp or A; the random
    # draws are in the acceptance Jacobian sweep
    rng = np.random.default_rng(55)
    for man, radius in make_manifolds():
        for norm in (5e-5, 2e-4, 2.5, 0.0):
            for _ in range(10):
                x = random_point(man, rng, radius=radius)
                v = with_norm(rng, man.control_dim, norm)
                u = with_norm(rng, man.dim, norm)
                msg = f"{man} r={radius} |u|=|v|={norm:.1e}"
                assert_close(man.diff_u(x, u)[1], fd_diff_u(man, x, u), tol=1e-5,
                             msg=f"diff_u {msg}")
                for got, want, what in zip(man.diff_v(x, v)[1:], fd_step_pair(man, x, v), "xv"):
                    assert_close(got, want, tol=1e-5, msg=f"diff_v G_{what} {msg}")


def test_diff_v_rotation_transport():
    # moving the estimate by dx transports the error chart by Exp(-dx), which
    # diff_v takes as Exp(dx)^T: the same bits, as Rodrigues' a terms flip sign
    man = SO3()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = man.boxplus(np.eye(3).reshape(9), rng.standard_normal(3))
        dx = 0.5 * rng.standard_normal(3)
        _, gx, _ = man.diff_v(x, dx)
        assert_close(gx, so3_exp(-dx), tol=1e-12)
        assert np.array_equal(gx, so3_exp(-dx))


def test_dimension_errors():
    man = SO3()
    with pytest.raises(DimensionError):
        man.boxplus(np.eye(3).reshape(9), np.zeros(4))
    with pytest.raises(DimensionError):
        man.boxminus(np.zeros(8), np.eye(3).reshape(9))
    with pytest.raises(DimensionError):
        Sphere2().oplus(np.array([0.0, 0.0, 1.0]), np.zeros(2))


def test_fused_diffs_check_the_point_shape():
    # diff_u and diff_v compute the boxplus and oplus point, so they reject a
    # wrong-shaped point as boxplus and oplus do
    rng = np.random.default_rng(14)
    for man, radius in make_manifolds() + [(compound(Euclidean(2), SO3(), Sphere2()), 9.81),
                                           (STATE_MANIFOLD, GRAVITY)]:
        x = random_point(man, rng, radius=radius)
        u, v = np.zeros(man.dim), np.zeros(man.control_dim)
        for bad in (x[:-1], np.append(x, 0.0), x.reshape(1, -1)):
            with pytest.raises(DimensionError):
                man.diff_u(bad, u)
            with pytest.raises(DimensionError):
                man.diff_v(bad, v)
        # and a wrong-shaped tangent or velocity
        for bad in (u[:-1], np.append(u, 0.0), u.reshape(1, -1)):
            with pytest.raises(DimensionError):
                man.diff_u(x, bad)
        for bad in (v[:-1], np.append(v, 0.0), v.reshape(1, -1)):
            with pytest.raises(DimensionError):
                man.diff_v(x, bad)


def test_compound_dims_and_slices():
    man = compound(Euclidean(3), SO3(), Sphere2())
    assert (man.dim, man.control_dim, man.rep_dim) == (8, 9, 15)
    assert man.tan_slices == (slice(0, 3), slice(3, 6), slice(6, 8))
    assert man.ctrl_slices == (slice(0, 3), slice(3, 6), slice(6, 9))
    assert man.rep_slices == (slice(0, 3), slice(3, 12), slice(12, 15))


def _part_points(p, x, u, v):
    """x boxplus u and x oplus v on one part, by formulas that no manifold
    class computes: x + u on R^n, x Exp(u) on SO(3), Exp(B(x) u) x and
    Exp(v) x on S^2."""
    if isinstance(p, Euclidean):
        return x + u, x + v
    if isinstance(p, SO3):
        return ((x.reshape(3, 3) @ so3_exp(w)).reshape(9) for w in (u, v))
    return sphere_boxplus(x, u), sphere_oplus(x, v)


def _from_parts(man, x, y, u, v):
    """Each Compound operator as the concatenation or block diagonal of its
    parts' own operators, in the order the compound returns them; each part's
    diff_u and diff_v step to bitwise the point of its boxplus and oplus
    formula, and the compound's boxplus and oplus are their concatenations."""
    table = list(zip(man.parts, man.rep_slices, man.tan_slices, man.ctrl_slices))
    du = np.zeros((man.dim, man.dim))
    gx = np.zeros((man.dim, man.dim))
    gv = np.zeros((man.dim, man.control_dim))
    boxplus, oplus = [], []
    for p, rs, ts, cs in table:
        yu, du[ts, ts] = p.diff_u(x[rs], u[ts])
        yv, gx[ts, ts], gv[ts, cs] = p.diff_v(x[rs], v[cs])
        want_u, want_v = _part_points(p, x[rs], u[ts], v[cs])
        assert yu.tobytes() == want_u.tobytes(), (p, "diff_u point")
        assert yv.tobytes() == want_v.tobytes(), (p, "diff_v point")
        boxplus.append(want_u)
        oplus.append(want_v)
    boxplus, oplus = np.concatenate(boxplus), np.concatenate(oplus)
    return (
        boxplus,
        np.concatenate([p.boxminus(y[rs], x[rs]) for p, rs, _, _ in table]),
        oplus,
        boxplus, du, oplus, gx, gv,
    )


def test_compound_matches_its_parts_bitwise():
    # the Euclidean parts are one index block inside Compound; every operator
    # must still equal its parts' own, bit for bit
    rng = np.random.default_rng(12)
    for man, radius in (
        (compound(Euclidean(2), SO3(), Euclidean(1), Sphere2(), Euclidean(3)), 9.81),
        (compound(Euclidean(2), Euclidean(3)), 1.0),
        (compound(SO3(), Sphere2(), SO3()), 1.0),
        (compound(Sphere2()), 3.0),
        (STATE_MANIFOLD, GRAVITY),
    ):
        for norm in (0.0, 5e-5, 2e-4, 2.5):
            for _ in range(10):
                x = random_point(man, rng, radius=radius)
                y = random_point(man, rng, near=x)
                u = with_norm(rng, man.dim, norm)
                v = with_norm(rng, man.control_dim, norm)
                got = (man.boxplus(x, u), man.boxminus(y, x), man.oplus(x, v),
                       *man.diff_u(x, u), *man.diff_v(x, v))
                want = _from_parts(man, x, y, u, v)
                names = ("boxplus", "boxminus", "oplus", "diff_u point", "diff_u",
                         "diff_v point", "G_x", "G_v")
                assert len(got) == len(want) == len(names)
                for what, g, w in zip(names, got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (man, what, norm)


def test_boxminus_on_stacks_matches_per_point_calls():
    rng = np.random.default_rng(15)
    for man in (STATE_MANIFOLD, compound(Euclidean(2), SO3(), Sphere2(), SO3())):
        x = random_point(man, rng, radius=GRAVITY)
        ys = np.array([random_point(man, rng, near=x) for _ in range(12)])
        xs = np.array([random_point(man, rng, near=y) for y in ys])
        want = np.array([man.boxminus(y, x) for y in ys])
        assert np.array_equal(man.boxminus(ys, x), want)  # one point against a stack
        assert np.array_equal(man.boxminus(ys, xs), [man.boxminus(y, p) for y, p in zip(ys, xs)])
        assert man.boxminus(ys.reshape(3, 4, -1), x).shape == (3, 4, man.dim)
        with pytest.raises(DimensionError):
            man.boxminus(ys[:, :-1], x)
        with pytest.raises(DimensionError):
            man.boxminus(ys, x[:-1])


def test_nested_compound_matches_flat():
    # an outer compound calls an inner one's unchecked kernels: the nesting
    # must not change a bit, and the outer operator still checks the shapes
    nested = compound(compound(SO3(), Euclidean(2)), Sphere2(), Euclidean(1))
    flat = compound(SO3(), Euclidean(2), Sphere2(), Euclidean(1))
    assert (nested.dim, nested.rep_dim, nested.control_dim) == (
        flat.dim, flat.rep_dim, flat.control_dim)
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = random_point(flat, rng)
        u, v = random_tangent(flat, rng), rng.standard_normal(flat.control_dim)
        ys = np.array([random_point(flat, rng, near=x) for _ in range(3)])
        got = nested.diff_u(x, u) + nested.diff_v(x, v) + (nested.boxminus(ys, x),)
        want = flat.diff_u(x, u) + flat.diff_v(x, v) + (flat.boxminus(ys, x),)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    with pytest.raises(DimensionError):
        nested.diff_u(x, u[:-1])
