"""Structured P1 finite elements on the unit square.

Provides the mesh, sparse operator assembly (stiffness, mass, boundary
mass), point observation operators, and a reusable banded Cholesky
factorization for the SPD operators.
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

    def centroid_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a P1 nodal field at triangle centroids."""
        return coeffs[self.triangles].mean(axis=1)

    def interpolate(self, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate a P1 nodal field at arbitrary points in [0,1]^2."""
        op = point_observation_operator(self, points)
        return op @ coeffs


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


def _coo_to_csr(mesh_nv, rows, cols, data) -> sp.csr_matrix:
    mat = sp.coo_matrix((data, (rows, cols)), shape=(mesh_nv, mesh_nv))
    return mat.tocsr()


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
    blocks = _stiffness_entries(mesh, coefficient)
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return _coo_to_csr(mesh.num_vertices, rows, cols, blocks.ravel())


def assemble_mass(mesh: Mesh, lumped: bool = False) -> sp.csr_matrix:
    """Consistent P1 mass matrix, or its row-sum lumped diagonal."""
    if lumped:
        diag = np.zeros(mesh.num_vertices)
        np.add.at(diag, mesh.triangles.ravel(),
                  np.repeat(mesh.areas / 3.0, 3))
        return sp.diags(diag, format="csr")
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    blocks = local[None, :, :] * mesh.areas[:, None, None]
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return _coo_to_csr(mesh.num_vertices, rows, cols, blocks.ravel())


def assemble_boundary_mass(mesh: Mesh, tags) -> sp.csr_matrix:
    """1D P1 mass matrix over the selected boundary sides, in full dimension."""
    tags = set(tags)
    if not tags:
        raise ValueError("boundary tag set must be nonempty")
    unknown = tags.difference(BOUNDARY_TAGS)
    if unknown:
        raise ValueError(f"unknown boundary tags: {sorted(unknown)}")
    rows, cols, data = [], [], []
    local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    for tag in sorted(tags):
        edges = mesh.boundary_edges[tag]
        lengths = np.linalg.norm(
            mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
        blocks = local[None, :, :] * lengths[:, None, None]
        rows.append(np.repeat(edges, 2, axis=1).ravel())
        cols.append(np.tile(edges, (1, 2)).ravel())
        data.append(blocks.ravel())
    return _coo_to_csr(mesh.num_vertices,
                       np.concatenate(rows), np.concatenate(cols),
                       np.concatenate(data))


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


class SpdSolver:
    """Reusable band Cholesky factorization of a sparse SPD matrix.

    Factorized once at construction with LAPACK dpbtrf; solve() may be called
    repeatedly with a vector or an (N, k) block of right-hand sides.
    Deterministic: equal inputs give bit-equal outputs.

    The matrix is factorized in its given order, without a fill-reducing
    permutation. On the structured mesh the natural vertex order
    iy*(n+1)+ix couples a vertex only to neighbours at most n+2 positions
    away, so every operator assembled on it has half-bandwidth n+2, and band
    Cholesky costs O(N n^2) with no fill outside the band.
    """

    def __init__(self, matrix: sp.spmatrix):
        self.shape = matrix.shape
        csc = sp.csc_matrix(matrix)
        csc.sum_duplicates()
        n = self.shape[0]
        rows = csc.indices
        cols = np.repeat(np.arange(n), np.diff(csc.indptr))
        lower = rows >= cols
        offsets = rows[lower] - cols[lower]
        kd = int(offsets.max(initial=0))
        # LAPACK lower band storage: ab[i - j, j] = A[i, j] for i >= j.
        ab = np.zeros((kd + 1, n), order="F")
        ab[offsets, cols[lower]] = csc.data[lower]
        self._factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"band Cholesky failed (LAPACK info {info}): "
                "matrix is not positive definite")
        if not np.all(np.isfinite(self._factor[0])):
            raise np.linalg.LinAlgError("band Cholesky produced a non-finite factor")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise ValueError("right-hand side has wrong length")
        if b.ndim == 1 and not b.any():
            return np.zeros_like(b)
        x, info = dpbtrs(self._factor, b, lower=1)
        if info != 0:
            raise ValueError(f"band Cholesky solve failed (LAPACK info {info})")
        return x


class StiffnessAssembler:
    """Fast repeated stiffness assembly with Dirichlet elimination.

    Precomputes the geometric element blocks and the COO->CSC scatter map for
    a fixed mesh and Dirichlet vertex set, so that assembling the operator for
    a new per-triangle coefficient costs a few vectorized passes. Rows and
    columns of Dirichlet vertices are eliminated symmetrically (unit diagonal)
    to keep the factorization SPD.
    """

    def __init__(self, mesh: Mesh, dirichlet_vertices: np.ndarray):
        self.mesh = mesh
        nv = mesh.num_vertices
        self.dirichlet = np.asarray(dirichlet_vertices, dtype=np.int64)
        is_dir = np.zeros(nv, dtype=bool)
        is_dir[self.dirichlet] = True
        self.is_dirichlet = is_dir

        tris = mesh.triangles
        self._geo = np.einsum("tid,tjd->tij", mesh.grads, mesh.grads)
        self._geo *= mesh.areas[:, None, None]
        self._rows = np.repeat(tris, 3, axis=1).ravel()
        self._cols = np.tile(tris, (1, 3)).ravel()

        # Canonical CSC ordering of the scattered entries, plus slot ids for
        # accumulating duplicates.
        order = np.lexsort((self._rows, self._cols))
        r_sorted = self._rows[order]
        c_sorted = self._cols[order]
        new_slot = np.empty(order.size, dtype=bool)
        new_slot[0] = True
        new_slot[1:] = (r_sorted[1:] != r_sorted[:-1]) | (c_sorted[1:] != c_sorted[:-1])
        slot_sorted = np.cumsum(new_slot) - 1
        self._slot = np.empty(order.size, dtype=np.int64)
        self._slot[order] = slot_sorted
        self._nslots = slot_sorted[-1] + 1

        slot_rows = r_sorted[new_slot]
        slot_cols = c_sorted[new_slot]
        indptr = np.zeros(nv + 1, dtype=np.int32)
        np.add.at(indptr, slot_cols + 1, 1)
        indptr = np.cumsum(indptr)
        self._template = sp.csc_matrix(
            (np.zeros(self._nslots), slot_rows.astype(np.int32), indptr.astype(np.int32)),
            shape=(nv, nv))

        touched = is_dir[slot_rows] | is_dir[slot_cols]
        diag = slot_rows == slot_cols
        self._zero_slots = np.flatnonzero(touched & ~diag)
        self._unit_slots = np.flatnonzero(diag & is_dir[slot_rows])

    def entry_values(self, coeff: np.ndarray) -> np.ndarray:
        """Raw scattered entries (before elimination) for a per-triangle coefficient."""
        return (self._geo * coeff[:, None, None]).ravel()

    def matvec_full(self, coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Action of the uneliminated stiffness matrix on x."""
        vals = self.entry_values(coeff)
        return np.bincount(self._rows, weights=vals * x[self._cols],
                           minlength=self.mesh.num_vertices)

    def assemble(self, coeff: np.ndarray) -> sp.csc_matrix:
        """Eliminated stiffness matrix for a per-triangle coefficient."""
        vals = self.entry_values(coeff)
        data = np.bincount(self._slot, weights=vals, minlength=self._nslots)
        data[self._zero_slots] = 0.0
        data[self._unit_slots] = 1.0
        out = self._template.copy()
        out.data = data
        return out

    def factorize(self, coeff: np.ndarray) -> SpdSolver:
        return SpdSolver(self.assemble(coeff))

    def lifted_rhs(self, coeff: np.ndarray, dirichlet_values: np.ndarray) -> np.ndarray:
        """Right-hand side with Dirichlet lifting.

        dirichlet_values is a full-length vector that is nonzero only where
        the solution is prescribed; the returned rhs solves the eliminated
        system so that x equals the prescribed values on Dirichlet vertices.
        """
        b = -self.matvec_full(coeff, dirichlet_values)
        b[self.is_dirichlet] = dirichlet_values[self.is_dirichlet]
        return b
