import numpy as np
import pytest

import schurkit.linalg as la
from schurkit.errors import AmbientMismatch, NotContraction
from schurkit.linalg import adj
from conftest import random_matrix

NIL = np.array([[0, 1], [0, 0]], dtype=complex)


class TestKernelRange:
    def test_kernel_diag(self):
        k = la.kernel_basis(np.diag([1.0, 0.0]))
        assert la.subspace_eq(k, la.subspace([[0], [1]]))

    def test_kernel_invertible(self):
        assert la.kernel_basis(np.eye(3)).dim == 0

    def test_kernel_of_nilpotent_defect(self):
        d = la.defect_of(NIL).op
        assert la.subspace_eq(la.kernel_basis(d), la.subspace([[0], [1]]))

    def test_range_diag(self):
        r = la.range_basis(np.diag([1.0, 0.0]))
        assert la.subspace_eq(r, la.subspace([[1], [0]]))

    def test_range_zero(self):
        assert la.range_basis(la.zeros(2, 2)).dim == 0

    def test_range_single_column(self):
        col = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert la.subspace_eq(la.range_basis(col), la.subspace(col))

    def test_rank_nullity(self, rng):
        for rows, cols in ((3, 3), (4, 2), (2, 5)):
            m = random_matrix(rng, rows, cols)
            if cols > 2:
                m[:, -1] = m[:, 0]  # force rank deficiency
            assert la.range_basis(m).dim + la.kernel_basis(m).dim == cols
            assert la.range_basis(adj(m)).dim + la.kernel_basis(m).dim == cols


class TestSubspaces:
    def test_intersect_coordinate_planes(self):
        u = la.subspace(np.eye(3)[:, :2])
        v = la.subspace(np.eye(3)[:, 1:])
        assert la.subspace_eq(la.subspace_intersect(u, v), la.subspace(np.eye(3)[:, 1:2]))

    def test_intersect_with_trivial(self):
        u = la.full_space(2)
        assert la.subspace_intersect(u, la.trivial_space(2)).dim == 0

    def test_intersect_principal_angle(self):
        # cos(angle) = 1/sqrt(2) < 1, so the intersection is trivial
        u = la.subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
        v = la.subspace([[1.0], [0.0]])
        assert la.subspace_intersect(u, v).dim == 0

    def test_intersect_commutative_monotone(self, rng):
        d = 5
        u = la.range_basis(random_matrix(rng, d, 3))
        v = la.range_basis(random_matrix(rng, d, 2))
        uv = la.subspace_intersect(u, v)
        vu = la.subspace_intersect(v, u)
        assert la.subspace_eq(uv, vu)
        assert uv.dim <= min(u.dim, v.dim)

    def test_intersection_membership(self):
        # a unit vector lies in the intersection iff both projections have norm 1
        u = la.subspace(np.eye(3)[:, :2])
        v = la.subspace(np.eye(3)[:, 1:])
        w = la.subspace_intersect(u, v)
        x = w.basis[:, 0]
        assert abs(np.linalg.norm(u.projector() @ x) - 1) <= 1e-12
        assert abs(np.linalg.norm(v.projector() @ x) - 1) <= 1e-12

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            la.subspace_intersect(la.full_space(2), la.full_space(3))

    def test_projector_examples(self):
        assert np.allclose(la.subspace([[0], [1]]).projector(), np.diag([0.0, 1.0]))
        assert np.allclose(la.full_space(2).projector(), np.eye(2))
        half = la.subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert np.allclose(half.projector(), np.full((2, 2), 0.5))

    def test_projector_idempotent_hermitian(self, rng):
        p = la.range_basis(random_matrix(rng, 5, 2)).projector()
        assert la.matnorm_diff(p @ p, p) <= la.DEFAULT_TOL.eq_abs
        assert la.matnorm_diff(p, adj(p)) <= la.DEFAULT_TOL.eq_abs


def _planted_pair(q, mixers, du, dv, k, rng):
    """Subspaces U, V of C^d, d the order of the unitary ``q``, with dims du
    and dv sharing exactly k directions; V leans on U outside the shared
    part, so no other angle is 0 or 90 degrees, and each basis is mixed by
    the unitary of its size in ``mixers``."""
    d = q.shape[0]
    shared, u_rest = q[:, :k], q[:, k:du]
    outside = q[:, du:du + dv - k]
    lean = u_rest @ random_matrix(rng, du - k, dv - k) if du > k else 0.0
    v_rest = np.linalg.qr(outside + 0.5 * lean)[0]
    u = la.Subspace(d, q[:, :du] @ mixers[du])
    v = la.Subspace(d, np.hstack([shared, v_rest]) @ mixers[dv])
    return u, v


class TestSubspaceIntersectProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_intersections(self, seed):
        # every planted dimension in every ambient dimension up to 10; the
        # swapped call covers the pairs with dim U > dim V
        rng = np.random.default_rng(seed)
        for d in range(11):
            q = la.haar_unitary(d, rng)
            mixers = [la.haar_unitary(n, rng) for n in range(d + 1)]
            for du in range(d + 1):
                for dv in range(du, d + 1):
                    for k in range(max(0, du + dv - d), min(du, dv) + 1):
                        u, v = _planted_pair(q, mixers, du, dv, k, rng)
                        for first, second in ((u, v), (v, u)):
                            w = la.subspace_intersect(first, second)
                            assert (w.ambient_dim, w.dim) == (d, k)
                            gram = adj(w.basis) @ w.basis
                            assert la.matnorm_diff(gram, la.eye(k)) <= 1e-12
                            assert u.contains(w) and v.contains(w)

    @pytest.mark.parametrize("angle, shared", [(1e-6, 2), (1e-3, 1)])
    def test_cut_on_squared_sine(self, rng, angle, shared):
        # sin^2 = 1e-12 lies below rank_rel = 1e-10 and merges the two
        # directions; sin^2 = 1e-6 keeps them apart
        q = la.haar_unitary(6, rng)
        u = la.subspace(q[:, :3])
        tilted = np.cos(angle) * q[:, 1] + np.sin(angle) * q[:, 3]
        v = la.subspace(np.column_stack([q[:, 0], tilted, q[:, 4]]))
        assert la.subspace_intersect(u, v).dim == shared
        assert la.subspace_intersect(v, u).dim == shared

    def test_shares_the_defect_decision(self, rng):
        # the intersection is W_S times the eigenvectors that the adjoint
        # defect decision of G = W_S* W_O drops, bit for bit; a full
        # intersection is canonicalized to the identity basis
        def dropped(u, v):
            small, other = (u, v) if u.dim <= v.dim else (v, u)
            g = adj(small.basis) @ other.basis
            _, vecs, keep, _ = la._defect_decision(g, la.DEFAULT_TOL, adjoint=True)
            return small.basis @ vecs[:, ~keep], keep

        q = la.haar_unitary(7, rng)
        mixers = [la.haar_unitary(n, rng) for n in range(8)]
        pairs = [_planted_pair(q, mixers, du, dv, k, rng)
                 for du, dv, k in ((2, 4, 1), (3, 5, 2), (4, 4, 3), (3, 3, 0))]
        inner = la.Subspace(7, q[:, :2] @ mixers[2])
        pairs.append((inner, la.Subspace(7, q[:, :5] @ mixers[5])))  # inner lies in the other
        for u, v in pairs:
            for first, second in ((u, v), (v, u)):
                expected, _ = dropped(first, second)
                assert np.array_equal(la.subspace_intersect(first, second).basis, expected)
        contained, _ = dropped(*pairs[-1])
        assert contained.shape == (7, 2) and not np.array_equal(contained, inner.basis)
        assert dropped(*pairs[3])[0].shape == (7, 0)
        full = la.full_space(7)
        _, keep = dropped(full, full)
        assert not keep.any()
        assert np.array_equal(la.subspace_intersect(full, full).basis, np.eye(7))

    def test_full_and_trivial_canonical(self):
        full = la.full_space(3)
        assert np.array_equal(la.subspace_intersect(full, full).basis, np.eye(3))
        assert la.subspace_intersect(full, la.trivial_space(3)).basis.shape == (3, 0)


class TestPredicates:
    def test_permutation_unitary(self):
        assert la.is_unitary([[0, 1], [1, 0]])

    def test_column_isometry(self):
        col = np.array([[1.0], [0.0]])
        assert la.is_isometry(col)
        assert not la.is_coisometry(col)

    def test_not_contraction(self):
        assert not la.is_contraction(np.diag([0.6, 1.2]))

    def test_empty_is_unitary(self):
        assert la.is_unitary(la.zeros(0, 0))

    def test_unitarity_residual(self, rng):
        u = la.haar_unitary(4, rng)
        assert la.unitarity_residual(u) <= 1e-13
        assert la.unitarity_residual(la.zeros(0, 0)) == 0.0
        # an isometry that is not onto: only the MM* term is nonzero
        col = u[:, :2]
        assert la.matnorm_diff(adj(col) @ col, np.eye(2)) <= 1e-13
        assert abs(la.unitarity_residual(col) - 1.0) <= 1e-13
        m = random_matrix(rng, 3, 5)
        reference = max(np.linalg.norm(adj(m) @ m - np.eye(5), 2),
                        np.linalg.norm(m @ adj(m) - np.eye(3), 2))
        assert abs(la.unitarity_residual(m) - reference) <= 1e-15


def _reference_norm(m):
    """np.linalg.norm(., 2) of each matrix, made apart from the package; 0
    for an empty one."""
    if 0 in m.shape[-2:]:
        return np.zeros(m.shape[:-2])
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _reference_gap(m):
    """||M*M - I|| by the reference norm."""
    return _reference_norm(adj(m) @ m - np.eye(m.shape[-1]))


class TestNormKernel:
    """The eigvalsh kernel behind every norm, against np.linalg.norm(., 2)."""

    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (3, 5), (5, 3), (44, 44)]
    STACKS = [(3, 25, 4, 4), (3, 25, 1, 1)]
    EXPONENTS = [-900, -450, -1, 0, 1, 450, 900]

    @staticmethod
    def _unit_norm(rng, shape):
        """A Gaussian matrix, or stack, with each matrix scaled to norm 1."""
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        top = _reference_norm(g)
        return g / np.where(top > 0, top, 1.0)[..., None, None]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_opnorm_over_scales(self, rng, shape):
        m = self._unit_norm(rng, shape)
        for k in self.EXPONENTS:
            x = m * 2.0 ** k
            ref = _reference_norm(x)
            got = la.opnorm(x)
            assert isinstance(got, float)
            assert abs(got - ref) <= 1e-14 * ref, (shape, k)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gaps_of_unit_scale_matrices(self, rng, shape):
        for t in (0.5, 1.0, 1.25):
            m = t * self._unit_norm(rng, shape)
            iso, coiso = _reference_gap(m), _reference_gap(adj(m))
            assert abs(la._isometry_gap(m) - iso) <= 1e-15, (shape, t)
            assert abs(la._isometry_gap(adj(m)) - coiso) <= 1e-15, (shape, t)
            assert abs(la.unitarity_residual(m) - max(iso, coiso)) <= 1e-15, (shape, t)
            # one Gram gives all three; MM* - I is read off the same Gram
            norm, iso_gap, coiso_gap = la._norm_and_gaps(m)
            assert (norm, iso_gap) == (la.opnorm(m), la._isometry_gap(m))
            assert max(iso_gap, coiso_gap) == la.unitarity_residual(m)
            assert abs(coiso_gap - coiso) <= 1e-15, (shape, t)

    def test_gaps_of_near_isometries(self, rng):
        for rows, cols in [(1, 1), (5, 3), (3, 5), (44, 44)]:
            u = la.haar_unitary(max(rows, cols), rng)[:rows, :cols]
            m = u + 1e-9 * random_matrix(rng, rows, cols)
            for x in (u, m, adj(u), adj(m)):
                assert abs(la._isometry_gap(x) - _reference_gap(x)) <= 1e-15

    @pytest.mark.parametrize("shape", STACKS)
    def test_stacks_equal_single_calls(self, rng, shape):
        unit = self._unit_norm(rng, shape)
        scaled = unit * 2.0 ** rng.integers(-900, 901, shape[:-2])[..., None, None]
        for fn, stack in ((la.opnorm, unit), (la.opnorm, scaled),
                          (la._isometry_gap, unit), (la.unitarity_residual, unit)):
            got = fn(stack)
            assert got.shape == shape[:-2]
            for idx in np.ndindex(*shape[:-2]):
                assert got[idx] == fn(stack[idx]), (fn.__name__, idx)
        ref = _reference_norm(scaled)
        assert np.all(np.abs(la.opnorm(scaled) - ref) <= 1e-14 * ref)
        assert np.all(np.abs(la._isometry_gap(unit) - _reference_gap(unit)) <= 1e-15)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 7), (40, 40), (5, 11, 6, 6)])
    def test_unscaled_window_matches_the_scaled_kernel(self, rng, shape):
        # a matrix inside the window is not scaled, and gets the norm the
        # exactly scaled matrix gets, times the same power of two
        for k in (-200, -60, -1, 0, 1, 60, 199):
            m = self._unit_norm(rng, shape) * 2.0 ** k
            top = np.abs(m).max(axis=(-2, -1))
            _, e = np.frexp(top)
            scaled = la.opnorm(m * np.ldexp(1.0, -e)[..., None, None])
            assert np.array_equal(la.opnorm(m), np.ldexp(scaled, e)), (shape, k)

    def test_predicates(self, rng):
        eq = la.DEFAULT_TOL.eq_abs
        u = la.haar_unitary(5, rng)
        cases = [la.zeros(0, 0), la.zeros(0, 3), la.zeros(3, 0), u, u[:, :3], u[:3, :],
                 0.9 * u, 1.1 * u[:, :3], random_matrix(rng, 3, 5),
                 0.9 * self._unit_norm(rng, (5, 3)), self._unit_norm(rng, (44, 44))]
        for m in cases:
            rows, cols = m.shape
            iso = cols <= rows and _reference_gap(m) <= eq
            coiso = rows <= cols and _reference_gap(adj(m)) <= eq
            assert la.is_contraction(m) == (_reference_norm(m) <= 1.0 + eq)
            assert la.is_isometry(m) == iso
            assert la.is_coisometry(m) == coiso
            assert la.is_unitary(m) == (rows == cols and iso and coiso)


class TestZeroDims:
    def test_empty_product_is_zero(self):
        a = la.zeros(3, 0)
        b = la.zeros(0, 2)
        prod = a @ b
        assert prod.shape == (3, 2)
        assert np.all(prod == 0)

    def test_defect_of_empty(self):
        d = la.defect_of(la.zeros(2, 0))
        assert d.op.shape == (0, 0)
        assert d.space.dim == 0


class TestDefectOf:
    def test_consistency(self, rng):
        g = random_matrix(rng, 4, 4)
        x = 0.9 * g / la.opnorm(g)
        d = la.defect_of(x)
        h = np.eye(4) - adj(x) @ x
        assert la.matnorm_diff(d.op @ d.op, h) <= 1e-9
        # pinv inverts exactly the kept directions
        assert la.matnorm_diff(d.op @ d.op_pinv, d.space.projector()) <= 1e-9
        assert d.space.dim + d.kernel.dim == 4

    def test_unitary_defect_vanishes(self, rng):
        u = la.haar_unitary(4, rng)
        d = la.defect_of(u)
        assert la.opnorm(d.op) == 0.0
        assert d.space.dim == 0 and d.kernel.dim == 4

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_non_finite_entry_is_no_contraction(self, adjoint):
        # eigh returns nan eigenvalues, which no cut keeps: without the
        # check the matrix would come back as unitary
        with pytest.raises(NotContraction):
            la.defect_of([[0.5, 0.1], [np.nan, 0.2]], adjoint=adjoint)

    def test_partial_isometry_kernel(self):
        # one exact unit singular value must be cut from the defect space
        x = np.diag([1.0, 0.5])
        d = la.defect_of(x)
        assert d.space.dim == 1
        assert la.subspace_eq(d.kernel, la.subspace([[1], [0]]))


class TestJson:
    def test_roundtrip(self, rng):
        m = random_matrix(rng, 2, 3)
        obj = la.matrix_to_json(m)
        assert obj["rows"] == 2 and obj["cols"] == 3
        back = la.matrix_from_json(obj)
        assert np.array_equal(m, back)

    def test_empty_roundtrip(self):
        obj = la.matrix_to_json(la.zeros(0, 2))
        assert la.matrix_from_json(obj).shape == (0, 2)


def test_haar_unitary_is_unitary(rng):
    u = la.haar_unitary(5, rng)
    assert la.matnorm_diff(adj(u) @ u, np.eye(5)) <= 1e-12
