"""Mesh, assembly, observation, and sparse solve checks against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdebayes.fem import (BOUNDARY_TAGS, SpdSolver, StiffnessAssembler,
                          assemble_boundary_mass, assemble_mass,
                          assemble_stiffness, build_unit_square_mesh,
                          point_observation_operator)
from pdebayes.models import DIRICHLET_TAGS
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
        np.testing.assert_allclose(mesh.interpolate(field, pts),
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
        x = SpdSolver(sp.diags(diag)).solve(b)
        np.testing.assert_allclose(x, b / diag)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 10))
        spd = a @ a.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        x = SpdSolver(sp.csr_matrix(spd)).solve(b)
        x_dense = np.linalg.solve(spd, b)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-10
        assert np.linalg.norm(spd @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_zero_rhs(self):
        mesh = build_unit_square_mesh(3)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        x = SpdSolver(k).solve(np.zeros(mesh.num_vertices))
        assert np.all(x == 0.0)

    def test_indefinite_reported(self):
        indefinite = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            SpdSolver(indefinite)

    def test_block_solve_equals_column_solves(self):
        mesh = build_unit_square_mesh(4)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        b = np.random.default_rng(12).standard_normal((mesh.num_vertices, 5))
        solver = SpdSolver(k)
        x = solver.solve(b)
        assert x.shape == b.shape
        for j in range(5):
            np.testing.assert_array_equal(x[:, j], solver.solve(b[:, j]))

    def test_eliminated_stiffness_matches_sparse_lu(self):
        mesh = build_unit_square_mesh(16)
        rng = np.random.default_rng(13)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        k = assembler.assemble(np.exp(rng.standard_normal(mesh.num_triangles)))
        b = rng.standard_normal(mesh.num_vertices)
        x = SpdSolver(k).solve(b)
        x_lu = spla.splu(sp.csc_matrix(k)).solve(b)
        assert np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu) <= 1e-12

    def test_singular_reported(self):
        singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            SpdSolver(singular).solve(np.array([1.0, 2.0]))

    def test_deterministic_and_reusable(self):
        mesh = build_unit_square_mesh(4)
        k = assemble_stiffness(mesh, 1.0) + assemble_mass(mesh)
        rng = np.random.default_rng(11)
        b1 = rng.standard_normal(mesh.num_vertices)
        b2 = rng.standard_normal(mesh.num_vertices)
        solver = SpdSolver(k)
        x1a = solver.solve(b1)
        x2 = solver.solve(b2)
        x1b = solver.solve(b1)
        assert np.array_equal(x1a, x1b)
        assert np.array_equal(x1a, SpdSolver(k).solve(b1))
        assert np.linalg.norm(k @ x2 - b2) / np.linalg.norm(b2) <= 1e-10


def half_bandwidth(matrix) -> int:
    coo = sp.coo_matrix(matrix)
    return int(np.abs(coo.row - coo.col).max())


class TestBandwidth:
    # SpdSolver factorizes in the natural vertex order; a renumbering of the
    # mesh that widened the band would make every factorization denser.
    @pytest.mark.parametrize("n", [4, 8])
    def test_operators_have_half_bandwidth_n_plus_2(self, n):
        mesh = build_unit_square_mesh(n)
        assembler = StiffnessAssembler(mesh,
                                       mesh.boundary_vertices(DIRICHLET_TAGS))
        k = assembler.assemble(np.ones(mesh.num_triangles))
        prior = BiLaplacianPrior(mesh, gamma=0.1, delta=0.5, theta1=2.0,
                                 theta2=0.5, alpha=np.pi / 4)
        assert half_bandwidth(k) == n + 2
        assert half_bandwidth(prior.A) == n + 2
