"""Discretized volume and boundary integral operators.

The boundary operator, cauchy_boundary, sums the kernel
Ups(d) = sign*alpha*theta(r) + c(r) d, d = x - y, over the nodes of a
surface rule, for one density or for K densities with K alphas and signs,
such as the two chiral modes or verify-bp's test fields.  It walks the
target x node pairs in tiles of one shape, TILE_ROWS targets (a row block)
by NODE_CHUNK nodes, one real matrix product per term and tile; a call of
two or more row blocks runs on two threads, every row summed in node order
on one of them, so results depend neither on scheduling nor on the other
targets of the call.  It is only evaluated at interior points a few mesh
spacings away from the surface (no principal-value quadrature exists
here); its guard reads the same r that the kernel factors use.

The volume operator, teodorescu, integrates over a ball with the polar
rule centred on each target (geometry.BallRule): every target has nodes of
its own, so its sum is a direct one, O(targets x nodes), taken in blocks of
TILE_ROWS targets, and the rule's volume element r**2 dr cancels the
kernel's 1/r**2 growth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternions as q
from .errors import NearSingularityError
from .fields import AnalyticField
from .geometry import BallRule, SurfaceRule, polar_ball_rule
from .kernels import radial_factors

MIN_DISTANCE_FACTOR = 2.0   # boundary rule: required distance in mesh spacings
TILE_ROWS = 16              # targets per tile of the boundary sum (blocks of 4-32
                            # targets cost the same per target within 10 % at
                            # 1280 and 5120 nodes; 64 and 128 cost 1.25x and
                            # 1.5x more at 5120, the B x N temporaries leave
                            # cache)
NODE_CHUNK = 1280           # nodes per tile, so per matrix product, whose
                            # roundoff grows with its node count (OpenBLAS
                            # 0.3.31 sums small products in node order): on
                            # a 163840-node kernel sum, against an
                            # extended-precision sum, 20480-node products
                            # erred by 1.0e-14 relative, 1280-node ones by
                            # 1.4e-15; also the nodes per [g, y*g] buffer
                            # of the boundary sum
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundaryDensity:
    """One quaternion per node of a surface rule (or K such densities), such
    as a mesh's centroid rule (SurfaceMesh.rule) or geometry.sphere_rule's.
    The values are stored as complex."""

    # a rule, under the name that perfbench/tracing.py reads (density.mesh.flat_points)
    mesh: SurfaceRule
    values: np.ndarray  # (N, 4) or (K, N, 4)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (2, 3) or values.shape[-2:] != (len(self.mesh.points), 4):
            raise ValueError("values must have shape [K,] %s" % ((len(self.mesh.points), 4),))
        if not q.is_finite(values):
            raise ValueError("boundary density contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VolumeDensity:
    """A batched evaluator on a ball, integrated with the polar rule
    `quadrature`: it maps points (..., 3) to one quaternion each, (..., 4),
    or to K, (K, ..., 4).  sample refuses values of another shape or that
    are not finite."""

    quadrature: BallRule
    evaluator: Callable[[np.ndarray], np.ndarray]

    def sample(self, pts: np.ndarray) -> np.ndarray:
        values = np.asarray(self.evaluator(pts), dtype=complex)
        point_shape = np.shape(pts)[:-1] + (4,)
        if values.ndim - len(point_shape) not in (0, 1) \
                or values.shape[values.ndim - len(point_shape):] != point_shape:
            raise ValueError("values must have shape [K,] %s" % (point_shape,))
        if not q.is_finite(values):
            raise ValueError("volume density contains non-finite values")
        return values


def _terms(alpha, sign, terms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The flat alphas and signs of the densities' term shape `terms`."""
    alphas, signs = np.asarray(alpha, dtype=complex), np.asarray(sign)
    if alphas.shape != terms or signs.shape != terms or not np.all(np.abs(signs) == 1):
        raise ValueError("need one alpha and one sign (+1 or -1) per density")
    return alphas.reshape(-1), signs.reshape(-1)


def _targets(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError("targets must have shape (3,) or (M, 3)")
    return x


def _vector_times(y: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """out = y*g for real vectors y (N, 3) and quaternions g (N, 4) or (K, N, 4):
    the twelve terms of qmul(q.vector(y), g) that do not vanish, in qmul's
    order, each a real coordinate times a complex component of g, so every
    nonzero entry of the result is bit-identical to qmul's."""
    y1, y2, y3 = y[:, 0], y[:, 1], y[:, 2]
    g0, g1, g2, g3 = (g[..., k] for k in range(4))
    o0, o1, o2, o3 = (out[..., k] for k in range(4))
    np.multiply(-y1, g1, out=o0)
    o0 -= y2 * g2
    o0 -= y3 * g3
    np.multiply(y1, g0, out=o1)
    o1 += y2 * g3
    o1 -= y3 * g2
    np.multiply(-y1, g3, out=o2)
    o2 += y2 * g0
    o2 += y3 * g1
    np.multiply(y1, g2, out=o3)
    o3 -= y2 * g1
    o3 += y3 * g0


def teodorescu(alpha, sign, density: VolumeDensity, x) -> np.ndarray:
    """Volume potential int_B Ups(x - y) f(y) dy over the ball of the
    density's rule, summed directly with that rule centred on each target.

    x is one target (3,) or many (M, 3), each inside the ball (ValueError,
    before the density is sampled, for one that is not); the result has
    shape (4,) or (M, 4).  Density values (K, ..., 4) with K alphas and
    signs give K terms and a result (K, 4) or (K, M, 4).  The targets go in
    blocks of TILE_ROWS, one density.sample call for all nodes of a block,
    so that memory does not grow with the number of targets; each node adds
    its weight (geometry.BallRule.nodes) times
    Ups(d) g = sign*alpha theta g + c d*g.
    """
    x = _targets(x)
    xs = x.reshape(-1, 3)
    density.quadrature.check(xs)
    sums = []
    for block in np.split(xs, range(TILE_ROWS, len(xs), TILE_ROWS)):
        y, w = density.quadrature.nodes(block)
        samples = density.sample(y)
        terms = samples.shape[:-3]
        alphas, signs = _terms(alpha, sign, terms)
        g = samples.reshape(len(alphas), -1, 4)
        d = (block[:, None, :] - y).reshape(-1, 3)
        dg = np.empty_like(g)
        _vector_times(d, g, out=dg)
        th, c = radial_factors(alphas, np.sqrt(np.einsum("nk,nk->n", d, d)), w.reshape(-1))
        th, c = th[:, 0] + 1j * th[:, 1], c[:, 0] + 1j * c[:, 1]
        summand = (signs * alphas)[:, None, None] * th[..., None] * g + c[..., None] * dg
        # each target's nodes summed along a contiguous last axis, so that a
        # target's sum does not depend on the other targets of the call
        by_node = np.ascontiguousarray(
            summand.reshape(len(alphas), len(block), y.shape[1], 4).swapaxes(-1, -2))
        sums.append(by_node.sum(axis=-1))
    return np.concatenate(sums, axis=1).reshape(terms + x.shape[:-1] + (4,))


def cauchy_boundary(alpha, sign, density: BoundaryDensity, x) -> np.ndarray:
    """Boundary potential -sum_j w_j Ups(x - y_j) g_j with g_j = n_j f_j
    over the nodes y_j of the density's rule, with weights w_j and normals
    n_j.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  Density values (K, N, 4) with K alphas and signs give K terms
    and a result (K, 4) or (K, M, 4).

    With Ups(d) = sign*alpha*theta(r) + c(r) d, d = x - y and r = |d|
    (kernels.radial_factors), the node sum factors into two scalar
    matrices Theta[m, j] and C[m, j] per alpha, the weights included:

        sum_j w_j Ups_j g_j = sign*alpha (Theta g)_m + x_m * (C g)_m - (C (y*g))_m

    with quaternion products.  The M x N pairs go in tiles of TILE_ROWS
    targets (a row block) by NODE_CHUNK nodes (a node chunk).  Per node
    chunk, g = n*f and y*g are formed (_vector_times), so no copy of g over
    all nodes is made.  Once per tile for all terms, r comes from the
    explicit differences; the guard raises NearSingularityError when a
    target comes closer to a node than MIN_DISTANCE_FACTOR mesh spacings;
    and radial_factors gives the weighted (re, im) planes of each distinct
    alpha for one real matrix product per term with the real views of g and
    [g, y*g] over the tile's nodes.  The sums Theta g and C [g, y*g]
    accumulate side by side in one (K, M, 12) array.

    A sum of two or more row blocks runs on two threads, the caller and the
    one worker of an executor made for the call: the caller takes the first
    half of the row blocks (rounded up) and the worker the rest, each adding
    into its own rows of the result, so every row is summed in node order on
    one thread.  Each side has its own buffers (add).  A guard error on
    either side is raised here once both have stopped, the caller's first.
    """
    rule, y = density.mesh, density.mesh.points
    x = _targets(x)
    xs = x.reshape(-1, 3)
    terms = density.values.shape[:-2]
    alphas, signs = _terms(alpha, sign, terms)
    f = density.values.reshape(-1, len(y), 4)
    distinct, which = np.unique(alphas, return_inverse=True)
    d_min = MIN_DISTANCE_FACTOR * rule.spacing

    def add(row_blocks, g_yg, work):
        """Add Theta g and C [g, y*g] of the row blocks' targets into sums,
        node chunk by node chunk and row block by row block within a chunk.
        Per chunk, its nodes are copied as coordinate rows to y_chunk and
        its g = n*f and y*g formed in the complex buffer g_yg of a full
        chunk, (K, NODE_CHUNK, 8).  Each tile is formed in the float buffer
        work, whose rows are planes of a full tile: r, then the
        4 * (len(distinct) + 1) planes of radial_factors, the first three of
        which hold the differences until r is formed."""
        for cols in chunks:
            n = cols.stop - cols.start
            y_chunk = np.ascontiguousarray(y[cols].T)
            _vector_times(rule.normals[cols], f[:, cols], out=g_yg[:, :n, :4])
            _vector_times(y[cols], g_yg[:, :n, :4], out=g_yg[:, :n, 4:])
            rhs = g_yg.view(float)[:, :n]  # (K, n, 16) real
            for rows in row_blocks:
                b = rows.stop - rows.start
                r, planes = np.split(work.reshape(-1)[:len(work) * b * n], [b * n])
                r, diff = r.reshape(b, n), planes[:3 * b * n].reshape(3, b, n)
                np.subtract(xs[rows].T[:, :, None], y_chunk[:, None, :], out=diff)
                np.sqrt(np.einsum("kmj,kmj->mj", diff, diff, out=r), out=r)
                dist = float(r.min())
                # slack: extendibility_residual's first offsets lie exactly d_min deep
                if dist < d_min * (1.0 - 1e-9):
                    raise NearSingularityError(dist, d_min)
                th, c = radial_factors(distinct, r, rule.weights[cols],
                                       planes.reshape(-1, 4, b, n))
                for k, u in enumerate(which):
                    for part, fac, g_k in ((slice(0, 4), th[u], rhs[k, :, :8]),
                                           (slice(4, 12), c[u], rhs[k])):
                        re, im = (fac.reshape(-1, n) @ g_k).reshape(2, -1, g_k.shape[1])
                        sums[k, rows, part] += re.view(complex) + 1j * im.view(complex)

    def buffers():
        # allocated here, on the calling thread, for either side: buffers the
        # worker allocated would come from its own malloc arena and add their
        # size to the peak RSS (2.3 MB at level-3 extend-check)
        n = min(len(y), NODE_CHUNK)
        return (np.empty((len(f), n, 8), dtype=complex),
                np.empty((4 * len(distinct) + 5, min(len(xs), TILE_ROWS) * n)))

    row_blocks = [slice(i, min(i + TILE_ROWS, len(xs))) for i in range(0, len(xs), TILE_ROWS)]
    chunks = [slice(j, min(j + NODE_CHUNK, len(y))) for j in range(0, len(y), NODE_CHUNK)]
    sums = np.zeros((len(f), len(xs), 12), dtype=complex)  # Theta g, then C [g, y*g]
    # a single row block stays on the calling thread: its node chunks split
    # over two threads measured no faster (5 targets x 3 terms at 15360 and
    # 61440 nodes), and on a 2-vCPU VM with the other core busy level-4
    # reconstruct operations (4 targets at 5120 nodes) ran 6-12 % slower
    cut = (len(row_blocks) + 1) // 2
    with ThreadPoolExecutor(max_workers=1) as pool:  # waits for the worker on every exit
        second = pool.submit(add, row_blocks[cut:], *buffers()) if cut < len(row_blocks) else None
        add(row_blocks[:cut], *buffers())
    if second is not None:
        second.result()
    out = -((signs * alphas)[:, None, None] * sums[..., :4]
            + q.qmul(q.vector(xs), sums[..., 4:8]) - sums[..., 8:])
    return out.reshape(terms + x.shape[:-1] + (4,))


def borel_pompeiu_residual(f: AnalyticField | tuple[AnalyticField, ...], alpha, sign: int,
                           rule: SurfaceRule, radius: float, x):
    """Relative defect of the reproduction identity (K + T D) f = f at x on
    the ball of the given radius about the origin: the boundary term over
    the surface rule (geometry.sphere_rule, or a mesh's centroid rule, whose
    polyhedron misses the ball by O(h**2)), the volume term with the polar
    rule (geometry.polar_ball_rule).

    f is one AnalyticField or a tuple of K, all checked at the one
    (alpha, sign); x is one target (3,) or many (M, 3).  The result is a
    float or an (M,) array for one field, a (K,) or (K, M) array for K.
    The boundary trace and the exact derivative come from the fields'
    analytic oracles, so the residual measures quadrature error only; the
    K boundary densities are built once for all targets and summed in one
    cauchy_boundary call.  The volume pass covers only the fields whose
    (D + sign*alpha) f does not vanish identically (d_alpha is not None):
    their volume densities are summed in one teodorescu call, and with none
    left neither is made.  The others are reproduced by their boundary term
    alone, the Cauchy integral formula: the volume pass would only add a sum
    of exact zeros to it.
    """
    x = np.asarray(x, dtype=float)
    fields = f if isinstance(f, tuple) else (f,)
    trace = BoundaryDensity(rule, np.stack([g.value(rule.points) for g in fields]))
    reproduced = cauchy_boundary((alpha,) * len(fields), (sign,) * len(fields), trace, x)
    shifted = [g.d_alpha(alpha, sign) for g in fields]
    live = [k for k, d in enumerate(shifted) if d is not None]
    if live:
        volume = VolumeDensity(polar_ball_rule(radius),
                               lambda y: np.stack([shifted[k](y) for k in live]))
        reproduced[live] += teodorescu((alpha,) * len(live), (sign,) * len(live), volume, x)
    fx = np.stack([g.value(x) for g in fields])
    res = q.norm(reproduced - fx) / np.maximum(q.norm(fx), RESIDUAL_FLOOR)
    if isinstance(f, tuple):
        return res
    return float(res[0]) if x.ndim == 1 else res[0]
