"""Mesh, assembly, observation, and sparse solve checks against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf

from pdebayes.fem import (BOUNDARY_TAGS, SpdSolver, StiffnessAssembler,
                          assemble_boundary_mass, assemble_mass,
                          assemble_stiffness, build_unit_square_mesh,
                          band_storage, point_observation_operator, upper_band)
from pdebayes.models import (DIRICHLET_TAGS, LinearizedPoissonProblem,
                             PoissonProblem)
from pdebayes.prior import BiLaplacianPrior

from helpers import dense_boundary_mass, dense_mass, dense_stiffness


class TestMesh:
    def test_smallest_mesh(self):
        mesh = build_unit_square_mesh(1)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.areas.sum() == pytest.approx(1.0)

    def test_vertex_count_n32(self):
        assert build_unit_square_mesh(32).num_vertices == 1089

    def test_counts_general(self):
        for n in (2, 3, 7):
            mesh = build_unit_square_mesh(n)
            assert mesh.num_vertices == (n + 1) ** 2
            assert mesh.num_triangles == 2 * n * n
            assert np.all(mesh.areas > 0)

    def test_boundary_partition_n2(self):
        mesh = build_unit_square_mesh(2)
        boundary = mesh.boundary_vertices(BOUNDARY_TAGS)
        assert boundary.size == 8
        interior = np.setdiff1d(np.arange(9), boundary)
        assert interior.size == 1
        assert np.allclose(mesh.vertices[interior[0]], [0.5, 0.5])

    def test_boundary_edges_tile_boundary(self):
        mesh = build_unit_square_mesh(4)
        total = sum(
            np.linalg.norm(mesh.vertices[e[1]] - mesh.vertices[e[0]])
            for tag in BOUNDARY_TAGS for e in mesh.boundary_edges[tag])
        assert total == pytest.approx(4.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_unit_square_mesh(0)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_triangles_match_cell_loop(self, n):
        # Reference: the cell-by-cell construction.
        tris = np.empty((2 * n * n, 3), dtype=np.int64)
        t = 0
        for iy in range(n):
            for ix in range(n):
                v00 = iy * (n + 1) + ix
                v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
                tris[t] = (v00, v10, v11)
                tris[t + 1] = (v00, v11, v01)
                t += 2
        mesh = build_unit_square_mesh(n)
        assert mesh.triangles.dtype == np.int64
        assert np.array_equal(mesh.triangles, tris)


class TestStiffness:
    def test_constant_in_kernel(self):
        mesh = build_unit_square_mesh(3)
        k = assemble_stiffness(mesh, 1.0)
        assert np.abs(k @ np.full(mesh.num_vertices, 4.2)).max() < 1e-14

    def test_hand_assembled_n1(self):
        mesh = build_unit_square_mesh(1)
        k = assemble_stiffness(mesh, 1.0).toarray()
        expected = np.array([
            [1.0, -0.5, -0.5, 0.0],
            [-0.5, 1.0, 0.0, -0.5],
            [-0.5, 0.0, 1.0, -0.5],
            [0.0, -0.5, -0.5, 1.0]])
        np.testing.assert_allclose(k, expected, atol=1e-14)

    def test_matches_dense_oracle(self):
        mesh = build_unit_square_mesh(4)
        coeff = np.random.default_rng(0).uniform(0.5, 2.0, mesh.num_triangles)
        k = assemble_stiffness(mesh, coeff).toarray()
        np.testing.assert_allclose(k, dense_stiffness(mesh, coeff=coeff),
                                   atol=1e-13)

    def test_identity_tensor_equals_scalar(self):
        mesh = build_unit_square_mesh(3)
        k_s = assemble_stiffness(mesh, 1.0).toarray()
        k_t = assemble_stiffness(mesh, np.eye(2)).toarray()
        np.testing.assert_allclose(k_s, k_t, atol=1e-14)

    def test_tensor_matches_dense(self):
        mesh = build_unit_square_mesh(3)
        theta = np.array([[1.25, 0.75], [0.75, 1.25]])
        k = assemble_stiffness(mesh, theta).toarray()
        np.testing.assert_allclose(k, dense_stiffness(mesh, tensor=theta),
                                   atol=1e-13)

    def test_rejects_indefinite_tensor(self):
        mesh = build_unit_square_mesh(2)
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_symmetry_and_psd(self):
        mesh = build_unit_square_mesh(5)
        coeff = np.random.default_rng(1).uniform(0.1, 3.0, mesh.num_triangles)
        k = assemble_stiffness(mesh, coeff)
        asym = np.abs((k - k.T).toarray()).max()
        assert asym <= 1e-12 * np.abs(k.toarray()).max()
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.standard_normal(mesh.num_vertices)
            assert v @ (k @ v) >= -1e-12 * (v @ v)

    def test_affine_reproduction(self):
        # K applied to an interpolated affine field vanishes on interior rows.
        mesh = build_unit_square_mesh(6)
        u = 0.3 + 1.7 * mesh.vertices[:, 0] - 0.9 * mesh.vertices[:, 1]
        residual = assemble_stiffness(mesh, 1.0) @ u
        interior = np.setdiff1d(np.arange(mesh.num_vertices),
                                mesh.boundary_vertices(BOUNDARY_TAGS))
        assert np.abs(residual[interior]).max() <= 1e-12


class TestMass:
    def test_total_is_domain_area(self):
        for n in (1, 3, 5):
            mesh = build_unit_square_mesh(n)
            assert assemble_mass(mesh).sum() == pytest.approx(1.0)

    def test_lumped_n1_diagonal(self):
        ml = assemble_mass(build_unit_square_mesh(1), lumped=True)
        diag = ml.diagonal()
        assert diag.sum() == pytest.approx(1.0)
        assert (ml - sp.diags(diag)).nnz == 0

    def test_matches_dense_oracle_n2(self):
        mesh = build_unit_square_mesh(2)
        np.testing.assert_allclose(assemble_mass(mesh).toarray(),
                                   dense_mass(mesh), atol=1e-15)
        np.testing.assert_allclose(
            assemble_mass(mesh, lumped=True).toarray(),
            dense_mass(mesh, lumped=True), atol=1e-15)

    def test_positive_definite(self):
        mesh = build_unit_square_mesh(4)
        vals = np.linalg.eigvalsh(assemble_mass(mesh).toarray())
        assert vals.min() > 0


class TestBoundaryMass:
    def test_perimeter(self):
        mesh = build_unit_square_mesh(3)
        mb = assemble_boundary_mass(mesh, BOUNDARY_TAGS)
        assert mb.sum() == pytest.approx(4.0)

    def test_bottom_only(self):
        mesh = build_unit_square_mesh(3)
        mb = assemble_boundary_mass(mesh, ["bottom"])
        assert mb.sum() == pytest.approx(1.0)

    def test_matches_dense_oracle(self):
        mesh = build_unit_square_mesh(2)
        np.testing.assert_allclose(
            assemble_boundary_mass(mesh, ["bottom"]).toarray(),
            dense_boundary_mass(mesh, ["bottom"]), atol=1e-15)

    def test_rejects_empty_tags(self):
        with pytest.raises(ValueError):
            assemble_boundary_mass(build_unit_square_mesh(2), [])


class TestObservation:
    def test_vertex_gives_unit_row(self):
        mesh = build_unit_square_mesh(3)
        op = point_observation_operator(mesh, [mesh.vertices[5]])
        row = op.toarray()[0]
        assert row[5] == pytest.approx(1.0)
        assert np.abs(np.delete(row, 5)).max() < 1e-12

    def test_centroid_gives_thirds(self):
        mesh = build_unit_square_mesh(2)
        centroid = mesh.vertices[mesh.triangles[0]].mean(axis=0)
        op = point_observation_operator(mesh, [centroid])
        weights = np.sort(op.toarray()[0][mesh.triangles[0]])
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-12)

    def test_reproduces_linear_field(self):
        mesh = build_unit_square_mesh(4)
        pts = np.random.default_rng(3).uniform(0, 1, size=(30, 2))
        op = point_observation_operator(mesh, pts)
        field = mesh.vertices[:, 1]
        np.testing.assert_allclose(op @ field, pts[:, 1], atol=1e-12)

    def test_mesh_interpolate_convenience(self):
        mesh = build_unit_square_mesh(3)
        pts = np.array([[0.2, 0.7], [0.9, 0.1]])
        field = 1.0 + 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        np.testing.assert_allclose(point_observation_operator(mesh, pts) @ field,
                                   1.0 + 2.0 * pts[:, 0] - pts[:, 1],
                                   atol=1e-12)

    def test_rejects_outside_point(self):
        mesh = build_unit_square_mesh(2)
        with pytest.raises(ValueError):
            point_observation_operator(mesh, [[1.5, 0.5]])


class TestSparseSolve:
    def test_diagonal_system(self):
        diag = np.array([2.0, 4.0, 5.0])
        b = np.array([2.0, 8.0, 15.0])
        x = SpdSolver(band_storage(sp.diags(diag), 1), 1).solve(b)
        np.testing.assert_allclose(x, b / diag)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 10))
        spd = a @ a.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        x = SpdSolver(band_storage(sp.csr_matrix(spd), 1), 1).solve(b)
        x_dense = np.linalg.solve(spd, b)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-10
        assert np.linalg.norm(spd @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_zero_rhs(self):
        mesh = build_unit_square_mesh(3)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        x = SpdSolver(band_storage(k, 1), 1).solve(np.zeros(mesh.num_vertices))
        assert np.all(x == 0.0)
        assert not np.signbit(x).any()

    def test_indefinite_reported(self):
        indefinite = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        for lower in (1, 0):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                SpdSolver(band_storage(indefinite, lower), lower)

    def test_block_solve_equals_column_solves(self):
        mesh = build_unit_square_mesh(4)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        b = np.random.default_rng(12).standard_normal((mesh.num_vertices, 5))
        solver = SpdSolver(band_storage(k, 1), 1)
        x = solver.solve(b)
        assert x.shape == b.shape
        for j in range(5):
            np.testing.assert_array_equal(x[:, j], solver.solve(b[:, j]))

    def test_eliminated_stiffness_matches_sparse_lu(self):
        mesh = build_unit_square_mesh(16)
        rng = np.random.default_rng(13)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(rng.standard_normal(mesh.num_triangles))
        b = rng.standard_normal(mesh.num_vertices)
        x = assembler.factorize(coeff).solve(b)
        x_lu = spla.splu(eliminated_stiffness(assembler, coeff)).solve(b)
        assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) <= 1e-12

    def test_singular_reported(self):
        singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            SpdSolver(band_storage(singular, 1), 1).solve(np.array([1.0, 2.0]))

    def test_deterministic_and_reusable(self):
        mesh = build_unit_square_mesh(4)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        rng = np.random.default_rng(11)
        b1 = rng.standard_normal(mesh.num_vertices)
        b2 = rng.standard_normal(mesh.num_vertices)
        solver = SpdSolver(band_storage(k, 1), 1)
        x1a = solver.solve(b1)
        x2 = solver.solve(b2)
        x1b = solver.solve(b1)
        assert np.array_equal(x1a, x1b)
        assert np.array_equal(x1a, SpdSolver(band_storage(k, 1), 1).solve(b1))
        assert np.linalg.norm(k @ x2 - b2) / np.linalg.norm(b2) <= 1e-10


def upper_of(lower: np.ndarray) -> np.ndarray:
    """Upper band storage of the symmetric matrix held in lower band storage:
    entry A[j + d, j] of lower row d is A[j, j + d] of upper row kd - d."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    upper = np.zeros_like(lower, order="F")
    for d in range(kd + 1):
        upper[kd - d, d:] = lower[d, :n - d]
    return upper


def banded_spd(n: int, kd: int, seed: int) -> sp.csr_matrix:
    """A random symmetric diagonally dominant (so SPD) matrix of half-bandwidth kd."""
    rng = np.random.default_rng(seed)
    a = np.triu(np.tril(rng.standard_normal((n, n)), kd), -kd)
    a = a + a.T
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return sp.csr_matrix(a)


class TestBandLayouts:
    """Lower (lower=1) and upper (lower=0) band storage of the same operator."""

    def test_band_storage_holds_one_triangle(self):
        a = banded_spd(7, 2, 30).toarray()
        lower, upper = band_storage(a, 1), band_storage(a, 0)
        assert lower.shape == upper.shape == (3, 7)
        for i in range(7):
            for j in range(max(0, i - 2), i + 1):
                assert lower[i - j, j] == a[i, j]
                assert upper[2 + j - i, i] == a[j, i]

    @pytest.mark.parametrize("shape", [(), (4,)], ids=["vector", "block"])
    def test_solutions_agree(self, shape):
        mesh = build_unit_square_mesh(6)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        b = np.random.default_rng(31).standard_normal((mesh.num_vertices,) + shape)
        x_lower = SpdSolver(band_storage(k, 1), 1).solve(b)
        x_upper = SpdSolver(band_storage(k, 0), 0).solve(b)
        assert x_upper.shape == b.shape
        assert np.linalg.norm(x_upper - x_lower) <= 1e-12 * np.linalg.norm(x_lower)
        assert np.linalg.norm(k @ x_upper - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("lower", [1, 0])
    def test_nonfinite_factor_reported(self, lower):
        # An infinite pivot passes dpbtrf's positivity test; its column of
        # the factor scales to zero, so only the diagonal row shows it.
        a = banded_spd(6, 2, 33).toarray()
        a[0, 0] = np.inf
        with pytest.raises(np.linalg.LinAlgError, match="non-finite factor"):
            SpdSolver(band_storage(sp.csr_matrix(a), lower), lower)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_assembled_upper_band_mirrors_the_lower_band(self, n):
        # The assembler writes lower storage only; upper_band moves it.
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(np.random.default_rng(n).standard_normal(mesh.num_triangles))
        lower = assembler.assemble(coeff)
        upper = upper_band(lower)
        assert upper.flags.f_contiguous and np.array_equal(upper, upper_of(lower))
        ref = band_storage(eliminated_stiffness(assembler, coeff), 0)
        rows = ref.shape[0]
        assert np.abs(upper[-rows:] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(upper[:-rows] == 0.0)

    @pytest.mark.parametrize("n", [5, 8, 12, 64])
    def test_linearized_factor_equals_the_assembled_bands_factor(self, n):
        # The model factors the assembler's band at coefficient 1 moved to
        # upper storage, bit for bit at every n; factoring it lower and moving
        # the factor with store_upper differs in rounding at n=64.
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        ref, info = dpbtrf(upper_of(assembler.assemble(np.ones(mesh.num_triangles))),
                           lower=0)
        assert info == 0
        model = LinearizedPoissonProblem(mesh, np.array([[0.5, 0.5]]), sigma=0.1)
        assert model.solver.lower == 0
        assert model.solver._factor.shape == (n + 3, mesh.num_vertices)
        assert np.array_equal(model.solver._factor, ref)

    def test_fixed_factors_are_upper_and_state_factors_lower(self):
        mesh = build_unit_square_mesh(4)
        pts = np.random.default_rng(34).uniform(0.1, 0.9, size=(6, 2))
        prior = BiLaplacianPrior(mesh, gamma=0.1, delta=0.5)
        linearized = LinearizedPoissonProblem(mesh, pts, sigma=0.1)
        poisson = PoissonProblem(mesh, pts, sigma=0.1)
        poisson.set_data(np.zeros(6))
        state = poisson.evaluate(np.zeros(mesh.num_vertices))
        assert prior._solver.lower == 0
        assert linearized.solver.lower == 0
        assert state.solver.lower == 1

    @pytest.mark.parametrize("first", ["block", "vector"])
    def test_state_factor_turns_upper_on_first_hessian_action(self, first):
        mesh = build_unit_square_mesh(4)
        rng = np.random.default_rng(35)
        poisson = PoissonProblem(mesh, rng.uniform(0.1, 0.9, size=(6, 2)), sigma=0.1)
        poisson.set_data(rng.standard_normal(6))
        state = poisson.evaluate(0.3 * rng.standard_normal(mesh.num_vertices))
        state.gradient()
        assert state.solver.lower == 1
        lower_factor = state.solver._factor.copy(order="F")
        v = rng.standard_normal((mesh.num_vertices, 2))
        state.hessian_action(v if first == "block" else v[:, 0])
        assert state.solver.lower == 0
        kd = lower_factor.shape[0] - 1
        for d in range(kd + 1):
            np.testing.assert_array_equal(state.solver._factor[kd - d, d:],
                                          lower_factor[d, :mesh.num_vertices - d])

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stored_upper_factor_solves_as_an_upper_factorization(self, n):
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(np.random.default_rng(n).standard_normal(mesh.num_triangles))
        moved = assembler.factorize(coeff)
        upper = SpdSolver(upper_of(assembler.assemble(coeff)), 0)
        moved.store_upper()
        assert moved.lower == 0 and moved._factor.flags.f_contiguous
        # The band transpose of the lower factor is the upper factor, to
        # rounding, and solves as it does.
        np.testing.assert_allclose(moved._factor, upper._factor, rtol=0, atol=1e-14)
        b = np.random.default_rng(36).standard_normal((mesh.num_vertices, 3))
        x = moved.solve(b)
        for other in (upper, assembler.factorize(coeff)):
            assert np.linalg.norm(x - other.solve(b)) <= 1e-12 * np.linalg.norm(x)


def dirichlet_mask(mesh) -> np.ndarray:
    """The vertices that the tests' assemblers eliminate: DIRICHLET_TAGS."""
    is_dir = np.zeros(mesh.num_vertices, dtype=bool)
    is_dir[mesh.boundary_vertices(DIRICHLET_TAGS)] = True
    return is_dir


def eliminated_stiffness(assembler, coeff) -> sp.csc_matrix:
    """Reference for StiffnessAssembler.assemble: the sparse stiffness with
    the Dirichlet rows and columns zeroed and a unit diagonal there."""
    is_dir = dirichlet_mask(assembler.mesh)
    keep = sp.diags((~is_dir).astype(float))
    k = (keep @ assemble_stiffness(assembler.mesh, coeff) @ keep
         + sp.diags(is_dir.astype(float))).tocsc()
    k.eliminate_zeros()
    return k


class TestBandStorage:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_assemble_matches_eliminated_reference(self, n):
        # At n=1 every vertex is Dirichlet and the reference is the identity.
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(np.random.default_rng(n).standard_normal(mesh.num_triangles))
        band = assembler.assemble(coeff)
        ref = band_storage(eliminated_stiffness(assembler, coeff), 1)
        rows = ref.shape[0]
        assert band.shape[1] == ref.shape[1] and band.shape[0] >= rows
        err = np.abs(band[:rows] - ref).max()
        assert err <= 1e-14 * np.abs(ref).max()
        assert np.all(band[rows:] == 0.0)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_assemble_equals_full_product_band(self, n):
        # Reference: all 9 entries of every element block formed as
        # _geo * coeff, then the lower triangle scattered into the band.
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(np.random.default_rng(n).standard_normal(mesh.num_triangles))
        geo = np.einsum("tid,tjd->tij", mesh.grads, mesh.grads)
        geo *= mesh.areas[:, None, None]
        rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
        cols = np.tile(mesh.triangles, (1, 3)).ravel()
        lower = rows >= cols
        vals = (geo * coeff[:, None, None]).ravel()[lower]
        rows, cols = rows[lower], cols[lower]
        band = np.zeros(assembler.assemble(coeff).shape, order="F")
        np.add.at(band, (rows - cols, cols), vals)
        is_dir = dirichlet_mask(mesh)
        band[:, is_dir] = 0.0
        band[0, is_dir] = 1.0
        off = (is_dir[rows] & (rows > cols))
        band[(rows - cols)[off], cols[off]] = 0.0
        assert np.array_equal(assembler.assemble(coeff), band)

    def test_assemble_returns_fresh_arrays(self):
        # SpdSolver factorizes its band in place.
        mesh = build_unit_square_mesh(4)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.ones(mesh.num_triangles)
        assert not np.shares_memory(assembler.assemble(coeff),
                                    assembler.assemble(coeff))


class TestSparseOperators:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matvec_full_matches_assembled_stiffness(self, n):
        # The full (uneliminated) stiffness action G^T (w * G x) that the Poisson
        # forward, gradient and Hessian forms are built from.
        mesh = build_unit_square_mesh(n)
        rng = np.random.default_rng(40 + n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeff = np.exp(rng.standard_normal(mesh.num_triangles))
        x = rng.standard_normal(mesh.num_vertices)
        ref = assemble_stiffness(mesh, coeff) @ x
        action = assembler.GT @ (assembler.gradient_weights(coeff)
                                 * (assembler.G @ x))
        assert np.linalg.norm(action - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_centroid_values_equal_vertex_mean(self, n):
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        coeffs = np.random.default_rng(50 + n).standard_normal(mesh.num_vertices)
        assert np.array_equal(assembler.centroid_values(coeffs),
                              coeffs[mesh.triangles].mean(axis=1))


class TestBandwidth:
    # SpdSolver factorizes in the natural vertex order; a renumbering of the
    # mesh that widened the band would make every factorization denser.
    @pytest.mark.parametrize("n", [4, 8])
    def test_operators_have_half_bandwidth_n_plus_2(self, n):
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        band = assembler.assemble(np.ones(mesh.num_triangles))
        prior = BiLaplacianPrior(mesh, gamma=0.1, delta=0.5, theta1=2.0,
                                 theta2=0.5, alpha=np.pi / 4)
        assert band.shape[0] == n + 3
        linearized = LinearizedPoissonProblem(mesh, np.array([[0.5, 0.5]]), sigma=0.1)
        assert linearized.solver._factor.shape == band.shape
        for lower in (1, 0):
            assert band_storage(prior.A, lower).shape[0] == n + 3
