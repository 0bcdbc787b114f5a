"""Random point/tangent draws for manifold tests.

Tangent draws stay inside the injectivity radius and "near" points avoid
the cut locus, so chart roundtrips are well defined at full precision.
"""
import numpy as np

from manikf.manifolds import Compound, Euclidean, SO3, Sphere2
from manikf.so3 import so3_exp


def random_point(man, rng, near=None, radius=1.0):
    """A random valid point, its sphere parts of norm ``radius``; with ``near``,
    one at a safe chart distance from ``near``, whose norms it keeps."""
    if isinstance(man, Euclidean):
        return rng.standard_normal(man.dim)
    if isinstance(man, SO3):
        if near is None:
            return so3_exp(np.pi * rng.uniform(-1, 1, 3)).reshape(9)
        return man.boxplus(near, ball(rng, 3, 2.5))
    if isinstance(man, Sphere2):
        if near is None:
            return with_norm(rng, 3, radius)
        return man.boxplus(near, ball(rng, 2, 2.5))
    if isinstance(man, Compound):
        if near is None:
            return np.concatenate([random_point(p, rng, radius=radius) for p in man.parts])
        return np.concatenate(
            [
                random_point(p, rng, near=near[sl])
                for p, sl in zip(man.parts, man.rep_slices)
            ]
        )
    raise TypeError(f"no sampler for {type(man).__name__}")


def random_tangent(man, rng):
    """A chart vector inside the injectivity radius of every part."""
    if isinstance(man, Euclidean):
        return rng.standard_normal(man.dim)
    if isinstance(man, (SO3, Sphere2)):
        return ball(rng, man.dim, 2.5)
    if isinstance(man, Compound):
        return np.concatenate([random_tangent(p, rng) for p in man.parts])
    raise TypeError(f"no sampler for {type(man).__name__}")


def ball(rng, dim, radius):
    """A vector along a uniform random direction, its length uniform in [0, radius)."""
    v = rng.standard_normal(dim)
    return rng.uniform(0.0, radius) * v / np.linalg.norm(v)


def with_norm(rng, dim, norm=1.0):
    """A uniform random direction of R^dim, scaled to length ``norm``."""
    v = rng.standard_normal(dim)
    return norm * v / np.linalg.norm(v)
