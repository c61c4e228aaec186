"""Structured P1 finite elements on the unit square.

Provides the mesh, sparse operator assembly (stiffness, mass, boundary
mass), repeated Dirichlet-eliminated stiffness assembly straight into LAPACK
band storage, the vertex-pair pattern of per-triangle-block operators, point
observation operators, and a reusable banded Cholesky factorization for the
SPD operators. The fixed P1 operators of the Poisson model (gradient, vertex
scatter, centroid sum) are built by the model itself, in pdebayes.models.
All assembly is vectorized over triangles; the variable coefficient of the
stiffness form is evaluated with one-point (centroid) quadrature so that
derived gradients and Hessian actions are exact for that quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

BOUNDARY_TAGS = ("bottom", "top", "left", "right")


@dataclass(frozen=True)
class Mesh:
    """Uniform triangulation of [0,1]^2 with n cells per side.

    Each square cell is split along its lower-left to upper-right diagonal,
    always in the same direction, so the mesh is fully determined by n.
    """

    n: int
    vertices: np.ndarray          # ((n+1)^2, 2)
    triangles: np.ndarray         # (2 n^2, 3), CCW
    boundary_edges: dict          # tag -> (n_edges, 2) vertex pairs
    areas: np.ndarray = field(repr=False, default=None)        # per triangle
    grads: np.ndarray = field(repr=False, default=None)        # (T, 3, 2) shape-fn gradients

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def boundary_vertices(self, tags) -> np.ndarray:
        """Sorted unique vertex indices lying on the given boundary sides."""
        idx = [self.boundary_edges[t].ravel() for t in sorted(set(tags))]
        return np.unique(np.concatenate(idx))


def build_unit_square_mesh(n: int) -> Mesh:
    """Build the structured triangular mesh with n cells per side."""
    if n < 1:
        raise ValueError(f"mesh resolution must be >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)          # row-major in y
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    # Cell (ix, iy) is cell number iy*n + ix and holds triangles 2*cell
    # (lower) and 2*cell + 1 (upper).
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = vid(ix, iy)
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])   # lower triangle
    tris[1::2] = np.column_stack([v00, v11, v01])   # upper triangle

    rng_idx = np.arange(n)
    edges = {
        "bottom": np.column_stack([vid(rng_idx, 0), vid(rng_idx + 1, 0)]),
        "top": np.column_stack([vid(rng_idx, n), vid(rng_idx + 1, n)]),
        "left": np.column_stack([vid(0, rng_idx), vid(0, rng_idx + 1)]),
        "right": np.column_stack([vid(n, rng_idx), vid(n, rng_idx + 1)]),
    }

    pts = vertices[tris]                       # (T, 3, 2)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det <= 0):
        raise AssertionError("triangle orientation broken")
    areas = 0.5 * det

    # Gradients of the three P1 shape functions on each triangle.
    # grad phi_i = rot(edge opposite i) / (2 area), arranged so that
    # sum_i grad phi_i = 0.
    grads = np.empty((tris.shape[0], 3, 2))
    for i in range(3):
        pj = pts[:, (i + 1) % 3]
        pk = pts[:, (i + 2) % 3]
        grads[:, i, 0] = (pj[:, 1] - pk[:, 1]) / det
        grads[:, i, 1] = (pk[:, 0] - pj[:, 0]) / det

    return Mesh(n=n, vertices=vertices, triangles=tris,
                boundary_edges=edges, areas=areas, grads=grads)


def _block_pattern(cells: np.ndarray):
    """COO rows and columns of the k x k element blocks of k-vertex cells,
    in the order of blocks.ravel() for blocks of shape (num_cells, k, k)."""
    k = cells.shape[1]
    return np.repeat(cells, k, axis=1).ravel(), np.tile(cells, (1, k)).ravel()


def _assemble_blocks(mesh: Mesh, cells: np.ndarray, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum the element blocks of the cells into an (N, N) CSR matrix."""
    rows, cols = _block_pattern(cells)
    nv = mesh.num_vertices
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def _stiffness_entries(mesh: Mesh, coefficient) -> np.ndarray:
    """Per-triangle 3x3 stiffness blocks for a scalar or tensor coefficient."""
    g = mesh.grads                              # (T, 3, 2)
    if np.ndim(coefficient) == 2:
        theta = np.asarray(coefficient, dtype=float)
        if theta.shape != (2, 2):
            raise ValueError("tensor coefficient must be 2x2")
        if abs(theta[0, 1] - theta[1, 0]) > 1e-14 * max(1.0, abs(theta).max()):
            raise ValueError("tensor coefficient must be symmetric")
        ev = np.linalg.eigvalsh(theta)
        if ev[0] <= 0:
            raise ValueError("tensor coefficient must be positive definite")
        gt = g @ theta.T                        # (T, 3, 2)
        blocks = np.einsum("tid,tjd->tij", gt, g)
        scale = mesh.areas
    else:
        coeff = np.asarray(coefficient, dtype=float)
        if coeff.ndim == 0:
            coeff = np.full(mesh.num_triangles, float(coeff))
        elif coeff.shape != (mesh.num_triangles,):
            raise ValueError("scalar coefficient must be constant or per-triangle")
        blocks = np.einsum("tid,tjd->tij", g, g)
        scale = mesh.areas * coeff
    return blocks * scale[:, None, None]


def assemble_stiffness(mesh: Mesh, coefficient=1.0) -> sp.csr_matrix:
    """Galerkin P1 stiffness matrix.

    coefficient may be a scalar, a per-triangle array (one-point quadrature
    values), or a constant symmetric positive definite 2x2 tensor.
    """
    return _assemble_blocks(mesh, mesh.triangles, _stiffness_entries(mesh, coefficient))


def assemble_mass(mesh: Mesh, lumped: bool = False) -> sp.csr_matrix:
    """Consistent P1 mass matrix, or its row-sum lumped diagonal."""
    if lumped:
        diag = np.zeros(mesh.num_vertices)
        np.add.at(diag, mesh.triangles.ravel(),
                  np.repeat(mesh.areas / 3.0, 3))
        return sp.diags(diag, format="csr")
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble_blocks(mesh, mesh.triangles,
                            local[None, :, :] * mesh.areas[:, None, None])


def assemble_boundary_mass(mesh: Mesh, tags) -> sp.csr_matrix:
    """1D P1 mass matrix over the selected boundary sides, in full dimension."""
    tags = set(tags)
    if not tags:
        raise ValueError("boundary tag set must be nonempty")
    unknown = tags.difference(BOUNDARY_TAGS)
    if unknown:
        raise ValueError(f"unknown boundary tags: {sorted(unknown)}")
    edges = np.concatenate([mesh.boundary_edges[tag] for tag in sorted(tags)])
    lengths = np.linalg.norm(
        mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
    local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    return _assemble_blocks(mesh, edges, local[None, :, :] * lengths[:, None, None])


def point_observation_operator(mesh: Mesh, points) -> sp.csr_matrix:
    """Sparse operator evaluating a P1 field at the given points.

    Row i holds the barycentric weights of point i within its containing
    triangle, so (op @ coeffs) is the finite element function at the points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise ValueError("points must be (k, 2)")
    if np.any(points < -1e-12) or np.any(points > 1.0 + 1e-12):
        raise ValueError("observation points must lie inside [0,1]^2")
    n = mesh.n
    h = 1.0 / n
    ix = np.clip((points[:, 0] // h).astype(int), 0, n - 1)
    iy = np.clip((points[:, 1] // h).astype(int), 0, n - 1)
    xloc = points[:, 0] / h - ix
    yloc = points[:, 1] / h - iy
    # Lower triangle of the cell iff below the 00-11 diagonal.
    lower = yloc <= xloc
    tri_idx = 2 * (iy * n + ix) + np.where(lower, 0, 1)

    pts = mesh.vertices[mesh.triangles[tri_idx]]      # (k, 3, 2)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = points - pts[:, 0]
    w1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    w2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    weights = np.column_stack([1.0 - w1 - w2, w1, w2])

    k = points.shape[0]
    rows = np.repeat(np.arange(k), 3)
    cols = mesh.triangles[tri_idx].ravel()
    return sp.csr_matrix((weights.ravel(), (rows, cols)),
                         shape=(k, mesh.num_vertices))


def band_storage(matrix: sp.spmatrix, lower: int) -> np.ndarray:
    """LAPACK band storage of a sparse symmetric matrix, as dpbtrf reads it.

    Returns the Fortran-ordered (kd+1, N) array of one triangle: with
    lower=1, ab[i - j, j] = A[i, j] for i >= j (diagonal in row 0); with
    lower=0, ab[kd + i - j, j] = A[i, j] for i <= j (diagonal in row kd).
    The half-bandwidth kd is read from the sparsity pattern.
    """
    csc = sp.csc_matrix(matrix)
    csc.sum_duplicates()
    n = matrix.shape[0]
    rows = csc.indices
    cols = np.repeat(np.arange(n), np.diff(csc.indptr))
    offsets = rows - cols if lower else cols - rows
    kept = offsets >= 0
    offsets = offsets[kept]
    kd = int(offsets.max(initial=0))
    ab = np.zeros((kd + 1, n), order="F")
    ab[offsets if lower else kd - offsets, cols[kept]] = csc.data[kept]
    return ab


def upper_band(lower: np.ndarray) -> np.ndarray:
    """The symmetric matrix (or the factor L, as U = L^T) held in lower band
    storage, copied to a new upper band: entry A[j + d, j] at row d of lower
    storage sits at row kd - d, column j + d of upper storage."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    flat = lower.ravel(order="F")
    upper = np.zeros_like(lower, order="F")
    # upper[r, c] = lower[kd - r, c + r - kd] sits at c (kd+1) + (r - kd) kd
    # of lower's flat Fortran order: kd+1 entries kd apart per column, a
    # strided view from column kd on; the first kd columns hold fewer.
    step = flat.itemsize
    upper[:, kd:] = np.lib.stride_tricks.as_strided(
        flat[kd:], shape=(kd + 1, n - kd), strides=(kd * step, (kd + 1) * step),
        writeable=False)
    for c in range(kd):
        upper[kd - c:, c] = flat[c:c * (kd + 1) + 1:kd]
    return upper


class SpdSolver:
    """Reusable band Cholesky factorization of an SPD matrix.

    Consumes a matrix in LAPACK band storage, as returned by
    StiffnessAssembler.assemble, upper_band or band_storage, with LAPACK's
    own flag for its triangle: lower=1 for lower storage, lower=0 for upper.
    The band is factorized in place with dpbtrf and must not be used
    afterwards. solve() may be called repeatedly with a vector or an (N, k)
    block of right-hand sides. Deterministic: equal inputs give bit-equal
    outputs.

    The storage is chosen by the operator's owner, for the kernels of
    OpenBLAS: its dpbtrs solves faster from upper storage (the L^T x = y
    half of a lower solve is its slowest triangular kernel), while its
    dpbtrf factorizes faster from lower storage. A factor that serves many
    solves (the prior's A, the linearized model's Laplacian) is therefore
    upper, and a per-state Poisson factor, used for a few solves, is lower.
    A Poisson state that serves Hessian actions (two solves each) moves its
    lower factor to upper storage with store_upper, a band transpose that
    costs a fraction of an upper dpbtrf.

    The matrix is factorized in its given order, without a fill-reducing
    permutation. On the structured mesh the natural vertex order
    iy*(n+1)+ix couples a vertex only to neighbours at most n+2 positions
    away, so every operator assembled on it has half-bandwidth n+2, and band
    Cholesky costs O(N n^2) with no fill outside the band.
    """

    def __init__(self, band: np.ndarray, lower: int):
        self.lower = lower
        self._factor, info = dpbtrf(band, lower=lower, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"band Cholesky failed (LAPACK info {info}): "
                "matrix is not positive definite")
        # The factor's diagonal: row 0 of lower storage, row kd of upper.
        if not np.all(np.isfinite(self._factor[0 if lower else -1])):
            raise np.linalg.LinAlgError("band Cholesky produced a non-finite factor")

    def store_upper(self) -> None:
        """Keep a lower factor L as U = L^T in upper band storage, which
        dpbtrs solves from faster: the same factor, without refactorizing."""
        if self.lower:
            self._factor, self.lower = upper_band(self._factor), 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._factor.shape[1]:
            raise ValueError("right-hand side has wrong length")
        x, info = dpbtrs(self._factor, b, lower=self.lower)
        if info != 0:
            raise ValueError(f"band Cholesky solve failed (LAPACK info {info})")
        return x


class VertexPairs:
    """CSR pattern of the vertex pairs (i, j) that share a triangle: the
    pattern of every N x N operator summed from per-triangle 3x3 blocks.

    For a block whose row a holds one value x[t, a] in all three columns,
    row_sum @ x.ravel() is the CSR data of the operator: entry (i, j) sums
    x[t, a] over the triangles t that hold i as their vertex a and hold j.
    The pattern is symmetric: data[mirror] is the data of the transpose.
    """

    def __init__(self, mesh: Mesh):
        nv = mesh.num_vertices
        rows, cols = _block_pattern(mesh.triangles)
        pairs, pos = np.unique(rows * nv + cols, return_inverse=True)
        row, self.indices = np.divmod(pairs, nv)
        self.indptr = np.searchsorted(row, np.arange(nv + 1))
        self.mirror = np.searchsorted(pairs, self.indices * nv + row)
        self.shape = (nv, nv)
        self.row_sum = sp.csr_array(
            (np.ones(pos.size), (pos, np.arange(pos.size) // 3)),
            shape=(pairs.size, pos.size // 3))

    def operator(self, data: np.ndarray) -> sp.csr_array:
        return sp.csr_array((data, self.indices, self.indptr), shape=self.shape)


class StiffnessAssembler:
    """Dirichlet-eliminated stiffness assembly into LAPACK lower band storage.

    Precomputes, for a fixed mesh and Dirichlet vertex set, the geometric
    lower-triangle element entries with their positions in LAPACK lower band
    storage, so that assembling the operator for a new per-triangle
    coefficient costs a few vectorized passes. Rows and columns of Dirichlet
    vertices are eliminated symmetrically (unit diagonal) to keep the
    factorization SPD. The Poisson model keeps one and re-assembles with it
    per state; the linearized model assembles with one once and drops it.
    """

    def __init__(self, mesh: Mesh, dirichlet_vertices: np.ndarray):
        nv = mesh.num_vertices
        nt = mesh.num_triangles
        is_dir = np.zeros(nv, dtype=bool)
        is_dir[dirichlet_vertices] = True

        # Lower-triangle entries (i >= j) of the element blocks, with the
        # triangle each belongs to. An entry in a Dirichlet row or column is
        # overwritten by the elimination, so only the others are kept.
        rows, cols = _block_pattern(mesh.triangles)
        offsets = rows - cols
        kd = int(offsets.max())
        kept = (offsets >= 0) & ~is_dir[rows] & ~is_dir[cols]

        # A[i, j] with i >= j sits at ab[i - j, j] of the Fortran-ordered
        # (kd+1, N) band, flat position (i - j) + j*(kd + 1). The kept entries
        # are summed per distinct position by one sparse product with the
        # coefficient, in triangle order, and only those positions and the
        # Dirichlet diagonal are written into a zero band.
        self._band_shape = (kd + 1, nv)
        entry_pos = offsets[kept] + cols[kept] * (kd + 1)
        touched = np.zeros((kd + 1) * nv, dtype=bool)
        touched[entry_pos] = True
        self._pos = np.flatnonzero(touched)
        self._entry_sum = sp.csr_array(
            (_stiffness_entries(mesh, 1.0).ravel()[kept],
             (np.searchsorted(self._pos, entry_pos), np.flatnonzero(kept) // 9)),
            shape=(self._pos.size, nt))
        self._unit = np.flatnonzero(is_dir) * (kd + 1)

    def assemble(self, coeff: np.ndarray) -> np.ndarray:
        """Eliminated stiffness for a per-triangle coefficient, in LAPACK
        lower band storage (a new array on every call)."""
        band = np.zeros(self._band_shape[0] * self._band_shape[1])
        band[self._pos] = self._entry_sum @ coeff
        band[self._unit] = 1.0
        return band.reshape(self._band_shape, order="F")
