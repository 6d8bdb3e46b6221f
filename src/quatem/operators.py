"""Discretized volume and boundary integral operators.

Both operators sum the kernel Ups(d) = sign*alpha*theta(r) + c(r) d,
d = x - y, over quadrature nodes in one routine (_kernel_sum), for one
density or for K densities with K alphas and signs, such as the two chiral
modes or verify-bp's test fields.  It walks the target x node pairs
in tiles of one shape, TILE_ROWS targets (a row block) by NODE_CHUNK nodes;
past one tile's worth of pairs the calling thread and the one worker of an
executor made for the call each take half the row blocks, or half the node
chunks of a single row block.  So each row is summed in node order on one
thread, except in a single-row-block sum, and results depend neither on
scheduling nor on the other targets of the call.
Each thread walks its share node chunk by node chunk: it forms the
products y*g of the chunk's real nodes y with the densities g in a buffer
of its own, which holds g and y*g side by side (qmul's twelve terms that
do not vanish for a pure vector y, in qmul's order, each a real coordinate
times a complex density component), and then the chunk's tiles, row block
by row block.  Per tile it forms the radii, the pair weights and the
factors' prefactor once for all terms, and applies the factors as real
(re, im) planes in one real matrix product per term over the tile's nodes.
The operators differ only in the right-hand side and in the weights their
pair_weights callback returns for the (target, node) pairs of a tile from
their distances r.  The volume operator's smooth cutoff removes a small
ball around each target, whose integral is summed instead with the level-1
ball rule (geometry.build_ball_quadrature) of radius 2*rho centered at the
target: a polar product rule, whose volume element cancels the kernel's
1/r**2 growth.
The boundary operator is only evaluated at interior points a few mesh
spacings away from the surface (no principal-value quadrature exists
here); its guard reads the same r that the kernel factors use.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quaternions as q
from .errors import NearSingularityError
from .fields import AnalyticField
from .geometry import SurfaceMesh, VolumeQuadrature, build_ball_quadrature
from .kernels import radial_factors, upsilon

CUTOFF_FACTOR = 3.0         # volume rule: cutoff radius in mean node spacings
MIN_DISTANCE_FACTOR = 2.0   # boundary rule: required distance in mesh spacings
TILE_ROWS = 16              # targets per tile of a kernel sum (blocks of 4-32
                            # targets cost the same per target within 10 % at
                            # 1280 and 5120 nodes; 64 and 128 cost 1.25x and
                            # 1.5x more at 5120, the B x N temporaries leave
                            # cache)
NODE_CHUNK = 1280           # nodes per tile, so per matrix product, whose
                            # roundoff grows with its node count (OpenBLAS
                            # 0.3.31 sums small products in node order): on
                            # the level-4 volume rule's far field, against an
                            # extended-precision sum, 20480-node products
                            # erred by 1.0e-14 relative, 1280-node ones by
                            # 1.4e-15; also the nodes per [g, y*g] buffer of
                            # a kernel sum and per evaluation of a
                            # VolumeDensity
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundaryDensity:
    """One quaternion per triangle of a surface, the value at its centroid
    node (or K such densities); the values are stored as complex."""

    mesh: SurfaceMesh
    values: np.ndarray  # (T, 4) or (K, T, 4)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.mesh.n_triangles, 4):
            raise ValueError("values must have shape [K,] %s" % ((self.mesh.n_triangles, 4),))
        if not q.is_finite(values):
            raise ValueError("boundary density contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class VolumeDensity:
    """A batched evaluator and its quaternion values at the nodes of a
    volume rule, computed once; the near-field treatment of the volume
    potential samples the density off-node through the evaluator.

    The evaluator maps points (..., 3) to one quaternion each, (..., 4), or
    to K, (K, ..., 4).  The node values are evaluated NODE_CHUNK nodes at a
    time into one array, so the evaluator's temporaries never cover the
    whole rule.
    """

    quadrature: VolumeQuadrature
    evaluator: Callable[[np.ndarray], np.ndarray]
    values: np.ndarray = field(init=False)  # (N, 4) or (K, N, 4)

    def __post_init__(self):
        pts = self.quadrature.points
        values = None
        for j in range(0, len(pts), NODE_CHUNK):
            block = self.evaluator(pts[j:j + NODE_CHUNK])
            if values is None:
                values = np.empty(np.shape(block)[:-2] + (len(pts), 4), dtype=complex)
            part = values[..., j:j + NODE_CHUNK, :]
            if values.ndim not in (2, 3) or np.shape(block) != part.shape:
                raise ValueError("values must have shape [K,] %s" % ((len(pts), 4),))
            part[...] = block
            if not q.is_finite(part):
                raise ValueError("volume density contains non-finite values")
        object.__setattr__(self, "values", values)

    def sample(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(pts), dtype=complex)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """s**3 (s (6 s - 15) + 10) of s = t clipped to [0, 1]."""
    s = np.clip(t, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


def _targets(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError("targets must have shape (3,) or (M, 3)")
    return x


def _vector_times(y: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """out = y*g for real vectors y (N, 3) and quaternions g (K, N, 4):
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


def _kernel_sum(alpha, sign, xs: np.ndarray, y: np.ndarray, g: np.ndarray,
                pair_weights) -> np.ndarray:
    """sum_j W[m, j] Ups(x_m - y_j) g_j at targets xs (M, 3) and nodes y (N, 3)
    for quaternions g (N, 4), one alpha and one sign; the result is (M, 4).
    K terms take g (K, N, 4), K alphas and K signs and give (K, M, 4).

    With Ups(d) = sign*alpha*theta(r) + c(r) d, d = x - y and r = |d|
    (kernels.radial_factors), the node sum factors into two scalar
    matrices Theta[m, j] and C[m, j] per alpha:

        sum_j Ups_j g_j = sign*alpha (Theta g)_m + x_m * (C g)_m - (C (y*g))_m

    with quaternion products.  The M x N pairs go in tiles of TILE_ROWS
    targets (a row block) by NODE_CHUNK nodes (a node chunk).  Once per
    tile for all terms, r comes from the explicit differences,
    pair_weights(r, cols) returns the real weights W ((B, n) or (n,)) of
    the tile's node slice cols, and radial_factors the weighted (re, im)
    planes of each distinct alpha for one real matrix product per term with
    the real views of g and [g, y*g] over the tile's nodes.  A pair of zero
    weight gets radius 1 before the factors are formed, so a target on a
    node stays finite.  The sums Theta g and C [g, y*g] accumulate side by
    side in one (K, M, 12) array.

    A sum of more than TILE_ROWS * NODE_CHUNK pairs runs on two threads,
    the caller and the one worker of an executor made for the call.  With
    two or more row blocks the caller takes the first half (rounded up) and
    the worker the rest, each adding into its own rows of the result, so
    every row is summed in node order on one thread.  With one row block
    the caller takes the first half of the node chunks and the worker adds
    the rest into zeroed sums of its own, added after both have finished.
    Each side has its own buffers (add).  An error on either side (the
    boundary guard) is raised here once both have stopped, the caller's
    first.
    """
    alphas, signs = np.asarray(alpha, dtype=complex), np.asarray(sign)
    terms = g.shape[:-2]
    if alphas.shape != terms or signs.shape != terms or not np.all(np.abs(signs) == 1):
        raise ValueError("need one alpha and one sign (+1 or -1) per density")
    alphas, signs, g = alphas.reshape(-1), signs.reshape(-1), g.reshape(-1, len(y), 4)
    distinct, which = np.unique(alphas, return_inverse=True)

    def add(row_blocks, chunks, sums, g_yg, work):
        """Add Theta g and C [g, y*g] of the row blocks' targets over the
        chunks' nodes into sums, node chunk by node chunk and row block by
        row block within a chunk.  Per chunk, its nodes are copied as
        coordinate rows to y_chunk and its g and y*g (_vector_times) formed
        in the complex buffer g_yg of a full chunk, (K, NODE_CHUNK, 8).
        Each tile is formed in the float buffer work, whose rows are planes
        of a full tile: r, then the 4 * (len(distinct) + 1) planes of
        radial_factors, the first three of which hold the differences until
        r is formed."""
        for cols in chunks:
            n = cols.stop - cols.start
            y_chunk = np.ascontiguousarray(y[cols].T)
            g_yg[:, :n, :4] = g[:, cols]
            _vector_times(y[cols], g[:, cols], out=g_yg[:, :n, 4:])
            rhs = g_yg.view(float)[:, :n]  # (K, n, 16) real
            for rows in row_blocks:
                b = rows.stop - rows.start
                r, planes = np.split(work.reshape(-1)[:len(work) * b * n], [b * n])
                r, diff = r.reshape(b, n), planes[:3 * b * n].reshape(3, b, n)
                np.subtract(xs[rows].T[:, :, None], y_chunk[:, None, :], out=diff)
                np.sqrt(np.einsum("kmj,kmj->mj", diff, diff, out=r), out=r)
                w = pair_weights(r, cols)
                np.copyto(r, 1.0, where=w == 0.0)
                th, c = radial_factors(distinct, r, w, planes.reshape(-1, 4, b, n))
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
        return (np.empty((len(g), n, 8), dtype=complex),
                np.empty((4 * len(distinct) + 5, min(len(xs), TILE_ROWS) * n)))

    row_blocks = [slice(i, min(i + TILE_ROWS, len(xs))) for i in range(0, len(xs), TILE_ROWS)]
    chunks = [slice(j, min(j + NODE_CHUNK, len(y))) for j in range(0, len(y), NODE_CHUNK)]
    sums = np.zeros((len(g), len(xs), 12), dtype=complex)  # Theta g, then C [g, y*g]
    rest = partial = None  # the worker's (row blocks, chunks, sums); sums of its own
    # a sum of at most one full tile's pairs stays on the calling thread: on a
    # 2-vCPU VM with the other core busy, level-4 reconstruct operations (4
    # targets at 5120 nodes, 4 tiles) ran 6-12 % slower on two threads
    if len(xs) * len(y) > TILE_ROWS * NODE_CHUNK:
        if len(row_blocks) > 1:
            cut = (len(row_blocks) + 1) // 2
            row_blocks, rest = row_blocks[:cut], (row_blocks[cut:], chunks, sums)
        else:
            cut, partial = (len(chunks) + 1) // 2, np.zeros_like(sums)
            chunks, rest = chunks[:cut], (row_blocks, chunks[cut:], partial)
    with ThreadPoolExecutor(max_workers=1) as pool:  # waits for the worker on every exit
        second = pool.submit(add, *rest, *buffers()) if rest else None
        add(row_blocks, chunks, sums, *buffers())
    if second is not None:
        second.result()
    if partial is not None:
        sums += partial
    out = ((signs * alphas)[:, None, None] * sums[..., :4]
           + q.qmul(q.vector(xs), sums[..., 4:8]) - sums[..., 8:])
    return out.reshape(terms + out.shape[1:])


def teodorescu(alpha, sign, density: VolumeDensity, x) -> np.ndarray:
    """Volume potential sum_j w_j * Ups(x - y_j) * f(y_j) over the rule.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  Density values (K, N, 4) with K alphas and signs give K terms
    in one _kernel_sum call and a result (K, 4) or (K, M, 4).  A smooth
    partition of unity removes the ball of radius rho = CUTOFF_FACTOR *
    mean node spacing around each target from the node sum; the
    complementary near integral uses the level-1 ball rule of radius 2*rho
    centered at the target (GL8 radii times 80 icosphere directions), whose
    volume element cancels the 1/r**2 kernel growth exactly.  The near
    rule is built once per call and its kernel values, which do not depend
    on the target, once per term; its off-node density values come from one
    density.sample call for all targets and terms.
    """
    x = _targets(x)
    xs = x.reshape(-1, 3)
    quad = density.quadrature
    rho = CUTOFF_FACTOR * float(np.mean(quad.weights ** (1.0 / 3.0)))

    def far_weights(r, cols):
        return quad.weights[cols] * _smoothstep(r / rho - 1.0)

    far = _kernel_sum(alpha, sign, xs, quad.points, density.values, far_weights)

    near = build_ball_quadrature(2.0 * rho, 1)
    offsets = near.points
    y = xs[:, None, :] + offsets
    inside = np.linalg.norm(y, axis=-1) <= quad.radius
    near_cut = 1.0 - _smoothstep(np.linalg.norm(offsets, axis=1) / rho - 1.0)
    near_w = (near.weights * near_cut * inside).astype(complex)
    samples = density.sample(y).reshape((-1,) + y.shape[:-1] + (4,))
    out = far.reshape((-1, len(xs), 4))
    for k, (a, s) in enumerate(zip(np.reshape(alpha, -1), np.reshape(sign, -1))):
        out[k] += np.einsum("mn,mnk->mk", near_w, q.qmul(upsilon(a, s, -offsets), samples[k]))
    return out.reshape(far.shape[:-2] + x.shape[:-1] + (4,))


def cauchy_boundary(alpha, sign, density: BoundaryDensity, x) -> np.ndarray:
    """Boundary potential -sum_j Ups(x - y_j) * g_j with g_j = a_j n_j f_j,
    one node y_j per triangle: its centroid, with area a_j and normal n_j.

    x is one target (3,) or many (M, 3); the result has shape (4,) or
    (M, 4).  Density values (K, T, 4) with K alphas and signs give K terms
    in one _kernel_sum call and a result (K, 4) or (K, M, 4).  The node sum
    takes the areas as weights; the same per-block radii serve the guard,
    which raises NearSingularityError when a target comes closer to a
    surface node than MIN_DISTANCE_FACTOR mesh spacings.
    """
    mesh = density.mesh
    x = _targets(x)
    d_min = MIN_DISTANCE_FACTOR * mesh.spacing

    def guarded_weights(r, cols):
        dist = float(r.min())
        # slack: extendibility_residual's first offsets lie exactly d_min deep
        if dist < d_min * (1.0 - 1e-9):
            raise NearSingularityError(dist, d_min)
        return mesh.areas[cols]

    nf = q.qmul(q.vector(mesh.normals), density.values)
    out = -_kernel_sum(alpha, sign, x.reshape(-1, 3), mesh.centroids, nf, guarded_weights)
    return out.reshape(nf.shape[:-2] + x.shape[:-1] + (4,))


def borel_pompeiu_residual(f: AnalyticField | tuple[AnalyticField, ...], alpha, sign: int,
                           mesh: SurfaceMesh, quadrature: VolumeQuadrature, x):
    """Relative defect of the reproduction identity (K + T D) f = f at x.

    f is one AnalyticField or a tuple of K, all checked at the one
    (alpha, sign); x is one target (3,) or many (M, 3).  The result is a
    float or an (M,) array for one field, a (K,) or (K, M) array for K.
    The boundary trace and the exact derivative come from the fields'
    analytic oracles, so the residual measures quadrature error only; the
    K boundary densities are built once for all targets and summed in one
    cauchy_boundary call.  The volume pass covers only the fields whose
    (D + sign*alpha) f does not vanish identically (d_alpha is not None):
    their volume densities are built once and summed in one teodorescu
    call, and with none left neither is made.  The others are reproduced
    by their boundary term alone, the Cauchy integral formula: the volume
    pass would only add a sum of exact zeros to it.
    """
    x = np.asarray(x, dtype=float)
    fields = f if isinstance(f, tuple) else (f,)
    trace = BoundaryDensity(mesh, np.stack([g.value(mesh.centroids) for g in fields]))
    reproduced = cauchy_boundary((alpha,) * len(fields), (sign,) * len(fields), trace, x)
    shifted = [g.d_alpha(alpha, sign) for g in fields]
    live = [k for k, d in enumerate(shifted) if d is not None]
    if live:
        volume = VolumeDensity(quadrature, lambda y: np.stack([shifted[k](y) for k in live]))
        reproduced[live] += teodorescu((alpha,) * len(live), (sign,) * len(live), volume, x)
    fx = np.stack([g.value(x) for g in fields])
    res = q.norm(reproduced - fx) / np.maximum(q.norm(fx), RESIDUAL_FLOOR)
    if isinstance(f, tuple):
        return res
    return float(res[0]) if x.ndim == 1 else res[0]
