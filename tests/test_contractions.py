import numpy as np
import pytest

import schurkit.linalg as la
from schurkit import Contraction
from schurkit.errors import NotCNU, NotContraction
from schurkit.linalg import adj
from schurkit.systems import random_conservative_system
from conftest import random_cnu, random_contraction_matrix

NILPOTENT = Contraction([[0, 1], [0, 0]])


def test_rejects_expansive():
    with pytest.raises(NotContraction):
        Contraction(np.diag([0.5, 1.2]))


class TestDefect:
    def test_scalar(self):
        a = Contraction([[0.6]])
        assert np.allclose(a.d_a, [[0.8]])
        assert a.defect_a.dim == 1 and a.defect_astar.dim == 1

    def test_unitary(self, rng):
        a = Contraction(la.haar_unitary(3, rng))
        assert a.defect_a.dim == 0 and a.defect_astar.dim == 0
        assert la.opnorm(a.d_a) == 0.0

    def test_nilpotent(self):
        assert np.allclose(NILPOTENT.d_a, np.diag([1.0, 0.0]))
        assert np.allclose(NILPOTENT.d_astar, np.diag([0.0, 1.0]))

    def test_intertwining(self, rng):
        for _ in range(5):
            a = Contraction(random_contraction_matrix(rng, 4, 4))
            resid = la.matnorm_diff(a.a @ a.d_a, a.d_astar @ a.a)
            assert resid <= 10 * la.DEFAULT_TOL.eq_abs


class TestPower:
    def test_high_power_of_unitary_diagonal(self):
        # a first high power takes no stack depth, and every power is
        # A @ A^{k-1} bit for bit, also when an extension starts from a
        # cached power
        phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))
        a, b = Contraction(np.diag(phases)), Contraction(np.diag(phases))
        ref = [la.eye(3), a.a]
        for _ in range(1600 - 1):
            ref.append(a.a @ ref[-1])
        assert np.array_equal(a.power(1600), ref[1600])
        assert all(np.array_equal(a.power(k), ref[k]) for k in range(1601))
        assert np.array_equal(b.power(700), ref[700])
        assert np.array_equal(b.power(1600), ref[1600])
        assert la.matnorm_diff(a.power(1600), np.diag(phases ** 1600)) <= 1e-11


class TestCnu:
    def test_unitary_is_not(self, rng):
        assert not Contraction(la.haar_unitary(2, rng)).is_cnu()

    def test_nilpotent_is(self):
        # the columns of D_A and D_A* already span C^2
        assert NILPOTENT.is_cnu()

    def test_unitary_reducing_part(self):
        a = Contraction(np.diag([0.5, np.exp(1j * np.pi / 3)]))
        assert not a.is_cnu()

    def test_canonical_split(self, rng):
        u = Contraction(la.haar_unitary(3, rng))
        h0, h1 = u.canonical_split()
        assert h0.dim == 0 and h1.dim == 3
        c = random_cnu(4, 2, rng)
        h0, h1 = c.canonical_split()
        assert h1.dim == 0 and h0.dim == 4

    def test_split_blocks_behave(self):
        a = Contraction(np.diag([0.5, np.exp(1j * np.pi / 3)]))
        h0, h1 = a.canonical_split()
        assert la.subspace_eq(h1, la.subspace([[0], [1]]))
        restricted = adj(h1.basis) @ a.a @ h1.basis
        assert la.is_unitary(restricted)
        assert Contraction(adj(h0.basis) @ a.a @ h0.basis).is_cnu()


def _stacked_power_cnu(a: Contraction) -> bool:
    """c.n.u. test on the columns of {A*^k D_A, A^k D_A*}, k < dim: the
    span is the whole space exactly when no unitary part remains."""
    if a.dim == 0:
        return True
    cols = []
    for k in range(a.dim):
        p = np.linalg.matrix_power(a.a, k)
        cols += [adj(p) @ a.d_a, p @ a.d_astar]
    return la.range_basis(np.hstack(cols), a.tol).dim == a.dim


def _direct_sum(a, b):
    return np.block([[a, la.zeros(a.shape[0], b.shape[1])], [la.zeros(b.shape[0], a.shape[1]), b]])


class TestCnuOnTheLattice:
    """is_cnu reads dim H(dim, dim) = 0; the stacked powers are the reference."""

    def test_random_contractions(self, rng):
        for norm in (0.5, 0.95, 1.0):
            for _ in range(3):
                a = Contraction(random_contraction_matrix(rng, 5, 5, norm))
                assert a.is_cnu() == _stacked_power_cnu(a)

    def test_random_cnu_corners(self, rng):
        for _ in range(3):
            a = random_cnu(6, 2, rng)
            assert a.is_cnu() and _stacked_power_cnu(a)

    @pytest.mark.parametrize("name, expected", [
        ("unitary", False), ("nilpotent", True), ("unitary summand", False), ("empty", True),
    ])
    def test_special_cases(self, rng, name, expected):
        a = {
            "unitary": lambda: Contraction(la.haar_unitary(3, rng)),
            "nilpotent": lambda: NILPOTENT,
            "unitary summand": lambda: Contraction(_direct_sum(
                random_contraction_matrix(rng, 3, 3), la.haar_unitary(2, rng))),
            "empty": lambda: Contraction(la.zeros(0, 0)),
        }[name]()
        assert a.is_cnu() == _stacked_power_cnu(a) == expected


def _reference_lattice(a: Contraction, depth: int):
    """H(i, k) for i + k <= depth by the power route: the kernels of
    D_{A^i} and D_{A*^k} from one defect decision each, intersected."""
    obs, ctrl = [], []
    for n in range(depth + 1):
        p = np.linalg.matrix_power(a.a, n)
        obs.append(la.defect_of(p, a.tol).kernel)
        ctrl.append(la.defect_of(p, a.tol, adjoint=True).kernel)
    return {
        (i, k): obs[i] if k == 0 else ctrl[k] if i == 0
        else la.subspace_intersect(obs[i], ctrl[k], a.tol)
        for i in range(depth + 1) for k in range(depth + 1 - i)
    }


def _assert_lattice_matches_reference(a: Contraction, depth: int):
    for key, ref in _reference_lattice(a, depth).items():
        got = a.h_subspace(*key)
        assert got.dim == ref.dim, key
        assert la.matnorm_diff(got.projector(), ref.projector()) <= 1e-10, key


class TestArnoldiLattice:
    """The lattice from the two block-Arnoldi bases against the power route."""

    @pytest.mark.parametrize("state_dim, io_dim", [
        (6, 1), (8, 1), (10, 1), (16, 2), (40, 2), (48, 3), (40, 4),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_bench_sizes(self, state_dim, io_dim, seed):
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(seed))
        _assert_lattice_matches_reference(Contraction(sys.a, sys.tol), -(-state_dim // io_dim) + 1)

    @pytest.mark.parametrize("state_dim, io_dim", [(3, 5), (2, 4), (1, 3)])
    def test_io_above_state(self, state_dim, io_dim):
        for seed in range(3):
            sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(seed))
            _assert_lattice_matches_reference(Contraction(sys.a, sys.tol), state_dim + 1)

    def test_zero_dimensional_state(self):
        a = Contraction(la.zeros(0, 0))
        for key in ((0, 0), (1, 0), (0, 1), (2, 3)):
            assert a.h_subspace(*key).basis.shape == (0, 0)

    def test_general_contractions(self, rng):
        # not the state of a conservative system: strict, touching the unit
        # circle, with a unitary summand, unitary, and nilpotent
        cases = [random_contraction_matrix(rng, 6, 6, norm) for norm in (0.5, 0.95, 1.0)]
        cases += [_direct_sum(random_contraction_matrix(rng, 4, 4), la.haar_unitary(2, rng)),
                  la.haar_unitary(4, rng), NILPOTENT.a, np.diag([0.0, 0.0, 0.3])]
        for m in cases:
            _assert_lattice_matches_reference(Contraction(m), m.shape[0] + 1)

    def test_edges_are_nested_contiguous_slices(self, rng):
        a = random_cnu(8, 2, rng)
        for star in (False, True):
            bases = [a.h_subspace(*((0, n) if star else (n, 0))).basis for n in range(1, 6)]
            assert all(b.flags.c_contiguous for b in bases)
            for outer, inner in zip(bases, bases[1:]):
                assert np.array_equal(outer[:, outer.shape[1] - inner.shape[1]:], inner)


def _fill_rows(a: Contraction, last: int):
    """Every H(p, q), p + q <= last, by the row recursion of h_subspace."""
    for p in range(last + 1):
        a.h_subspace(p, last - p)


def _fill_anti_diagonals(a: Contraction, last: int):
    for s in range(last + 1):
        a._anti_diagonal(s)


def _assert_same_lattice(a: Contraction, ref: Contraction, last: int):
    """Equal bits for every entry, and each anti-diagonal that has a stack
    holds its entries' stored bases."""
    for s in range(last + 1):
        stack = a._anti_diagonal(s)
        for k in range(s + 1):
            got = a.h_subspace(s - k, k).basis
            assert got.flags.c_contiguous, (s - k, k)
            assert np.array_equal(got, ref.h_subspace(s - k, k).basis), (s - k, k)
            if stack is not None:
                assert np.array_equal(got, stack[k])
                assert got.size == 0 or np.shares_memory(got, stack)


class TestAntiDiagonals:
    """The lattice built one anti-diagonal at a time, by the kernel of the
    row recursion on stacks, stores the row recursion's bits."""

    @pytest.mark.parametrize("state_dim, io_dim", [
        (3, 5), (4, 2), (10, 1), (16, 2), (40, 4), (48, 3),
    ])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("order", ["anti-diagonals first", "rows first"])
    def test_bits_of_the_row_recursion(self, state_dim, io_dim, seed, order):
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(seed))
        last = -(-state_dim // io_dim) + 1
        ref = Contraction(sys.a, sys.tol)
        _fill_rows(ref, last)
        a = Contraction(sys.a, sys.tol)
        for fill in ((_fill_anti_diagonals, _fill_rows) if order == "anti-diagonals first"
                     else (_fill_rows, _fill_anti_diagonals)):
            fill(a, last)
        _assert_same_lattice(a, ref, last)
        assert all(a._anti_diagonal(s) is not None for s in range(last + 1))

    @pytest.mark.parametrize("state_dim, io_dim", [(7, 3), (20, 3)])
    def test_short_last_block_and_no_blocks_past_the_krylov_space(self, state_dim, io_dim):
        # the last controllability block has fewer than io columns, and the
        # anti-diagonals past the Krylov depth meet empty blocks: both split
        # the stack by block width
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(1))
        a = Contraction(sys.a, sys.tol)
        _, dims = a._bases()[1]
        assert dims[-1] - dims[-2] < io_dim
        last = len(dims) + 2
        ref = Contraction(sys.a, sys.tol)
        _fill_rows(ref, last)
        _assert_same_lattice(a, ref, last)

    def test_zero_dimensional_state(self):
        a = Contraction(la.zeros(0, 0))
        for s in range(4):
            assert a._anti_diagonal(s).shape == (s + 1, 0, 0)
            assert all(a.h_subspace(s - k, k).basis.shape == (0, 0) for k in range(s + 1))

    def test_general_contractions(self, rng):
        cases = [random_contraction_matrix(rng, 6, 6, norm) for norm in (0.5, 0.95, 1.0)]
        cases += [_direct_sum(random_contraction_matrix(rng, 4, 4), la.haar_unitary(2, rng)),
                  la.haar_unitary(4, rng), NILPOTENT.a, np.diag([0.0, 0.0, 0.3])]
        for m in cases:
            ref = Contraction(m)
            _fill_rows(ref, m.shape[0] + 1)
            _assert_same_lattice(Contraction(m), ref, m.shape[0] + 1)

    def test_unequal_dimensions_split_the_stack(self):
        # one entry of anti-diagonal 3 loses a column: anti-diagonal 4 has
        # two input dimensions, is built in two stacks, keeps the row
        # recursion's bits on the same input, and has no stack of its own
        sys = random_conservative_system(10, 1, np.random.default_rng(2))
        a, ref = Contraction(sys.a, sys.tol), Contraction(sys.a, sys.tol)
        _fill_anti_diagonals(a, 3)
        _fill_rows(ref, 3)
        for c in (a, ref):
            c._h_cache[2, 1] = la.Subspace(10, np.ascontiguousarray(c.h_subspace(2, 1).basis[:, 1:]))
        a._diagonals[3] = None
        assert a._anti_diagonal(4) is None
        for k in range(5):
            assert np.array_equal(a.h_subspace(4 - k, k).basis, ref.h_subspace(4 - k, k).basis)
        assert a.h_subspace(2, 2).dim == a.h_subspace(4, 0).dim - 1


class TestHSubspace:
    def test_nilpotent_lattice(self):
        assert la.subspace_eq(NILPOTENT.h_subspace(1, 0), la.subspace([[0], [1]]))
        assert la.subspace_eq(NILPOTENT.h_subspace(0, 1), la.subspace([[1], [0]]))
        assert NILPOTENT.h_subspace(1, 1).dim == 0

    def test_h00_is_full(self, rng):
        a = Contraction(random_contraction_matrix(rng, 3, 3))
        assert a.h_subspace(0, 0).dim == 3

    def test_zero_scalar(self):
        assert Contraction([[0.0]]).h_subspace(1, 0).dim == 0

    def test_chain_nonincreasing(self, rng):
        a = random_cnu(6, 2, rng)
        dims = [a.h_subspace(n, 0).dim for n in range(5)]
        assert all(dims[i] >= dims[i + 1] for i in range(4))


class TestCompress:
    def test_nilpotent(self):
        c = NILPOTENT.compress(1, 0)
        assert c.shape == (1, 1) and abs(c[0, 0]) <= 1e-12

    def test_identity_indices(self, rng):
        a = Contraction(random_contraction_matrix(rng, 3, 3))
        assert np.allclose(a.compress(0, 0), a.a)

    def test_trivial_subspace(self):
        assert NILPOTENT.compress(1, 1).shape == (0, 0)

    def test_partial_product_nilpotent(self):
        # A P_{H(1,0)} with H(1,0) = span e2 gives back A
        assert np.allclose(NILPOTENT.partial_product(0, 0), NILPOTENT.a)

    def test_partial_product_trivial_projection(self):
        p = NILPOTENT.partial_product(1, 0)
        assert p.shape == (1, 1) and abs(p[0, 0]) <= 1e-12

    def test_partial_product_strict_scalar(self):
        a = Contraction([[0.5]])
        assert np.allclose(a.partial_product(0, 0), [[0.0]])


class TestDefectProfile:
    def test_nilpotent(self):
        profile = NILPOTENT.defect_profile(1)
        assert profile.delta == [1, 1]
        assert profile.delta_star == [1, 1]

    def test_rejects_unitary(self, rng):
        with pytest.raises(NotCNU):
            Contraction(la.haar_unitary(2, rng)).defect_profile(1)

    def test_scalar(self):
        # H(0,n) is trivial for a strict scalar contraction, so every
        # compressed defect number past index 0 vanishes
        profile = Contraction([[0.5]]).defect_profile(3)
        assert profile.delta == [1, 0, 0, 0]
        assert profile.delta_star == [1, 0, 0, 0]

    def test_nonincreasing(self, rng):
        for _ in range(4):
            a = random_cnu(6, 2, rng)
            profile = a.defect_profile(4)
            for seq in (profile.delta, profile.delta_star):
                assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


class TestC00:
    def test_nilpotent(self):
        assert NILPOTENT.is_c00()

    def test_scalar(self):
        assert Contraction([[0.9]]).is_c00()

    def test_two_strict_eigenvalues(self):
        assert Contraction(np.diag([0.5, 0.99])).is_c00()

    def test_cnu_intersection_trivial(self, rng):
        # no finite-dimensional c.n.u. contraction contains an isometric part
        a = random_cnu(5, 2, rng)
        assert a.h_subspace(5, 0).dim == 0
        assert a.h_subspace(0, 5).dim == 0


class TestLatticeRelations:
    """Structure of the compressions on random c.n.u. contractions."""

    def _image_matches(self, a, n, m):
        h = a.h_subspace(n, m)
        if h.dim == 0:
            return True
        img = la.image_subspace(a.a, h)
        return la.matnorm_diff(
            img.projector(), a.h_subspace(n - 1, m + 1).projector()
        ) <= 1e-8

    def test_image_relation(self, rng):
        for _ in range(5):
            a = random_cnu(6, 2, rng)
            for n in range(1, 4):
                for m in range(0, 3):
                    assert self._image_matches(a, n, m)

    def test_kernel_of_compression_powers(self, rng):
        for _ in range(4):
            a = random_cnu(6, 2, rng)
            for n in range(0, 2):
                for m in range(0, 2):
                    w = a.h_subspace(n, m).basis
                    comp = a.compress(n, m)
                    for k in (1, 2):
                        dd = la.defect_of(np.linalg.matrix_power(comp, k), a.tol)
                        if dd.kernel.dim:
                            amb = la.Subspace(a.dim, w @ dd.kernel.basis)
                        else:
                            amb = la.trivial_space(a.dim)
                        target = a.h_subspace(n + k, m)
                        assert la.matnorm_diff(amb.projector(), target.projector()) <= 1e-8

    def test_compression_of_compression(self, rng):
        for _ in range(4):
            a = random_cnu(7, 2, rng)
            w = a.h_subspace(1, 0).basis
            inner = Contraction(a.compress(1, 0), a.tol)
            for k, l in ((1, 0), (0, 1), (1, 1)):
                v = inner.h_subspace(k, l).basis
                target_basis = a.h_subspace(1 + k, l).basis
                if v.shape[1] == 0:
                    assert target_basis.shape[1] == 0
                    continue
                q = adj(target_basis) @ (w @ v)
                assert la.matnorm_diff(adj(q) @ q, np.eye(q.shape[1])) <= 1e-8
                lhs = q @ inner.compress(k, l) @ adj(q)
                assert la.matnorm_diff(lhs, a.compress(1 + k, l)) <= 1e-8

    def test_intertwining_and_equivalence(self, rng):
        # A_{n-1,m+1} A f = A A_{n,m} f, and conjugation by the restricted A
        # carries one compression to the next along the antidiagonal
        for _ in range(4):
            a = random_cnu(6, 2, rng)
            for n in range(1, 3):
                for m in range(0, 2):
                    hs = a.h_subspace(n, m)
                    if hs.dim == 0:
                        continue
                    w = hs.basis
                    w2 = a.h_subspace(n - 1, m + 1).basis
                    u = adj(w2) @ a.a @ w
                    assert la.matnorm_diff(adj(u) @ u, np.eye(u.shape[1])) <= 1e-8
                    lhs = a.compress(n - 1, m + 1) @ u
                    rhs = u @ a.compress(n, m)
                    assert la.matnorm_diff(lhs, rhs) <= 1e-8

    def test_defect_space_of_compression(self, rng):
        # defect space of A(n,m) equals the compressed range of D_{A^{n+1}}
        for _ in range(3):
            a = random_cnu(6, 2, rng)
            for n, m in ((0, 0), (1, 0), (0, 1), (1, 1)):
                w = a.h_subspace(n, m).basis
                if w.shape[1] == 0:
                    continue
                comp_space = la.defect_of(a.compress(n, m), a.tol).space
                compressed = la.range_basis(adj(w) @ a.power_defect(n + 1), a.tol)
                assert la.matnorm_diff(
                    comp_space.projector(), compressed.projector()
                ) <= 1e-8

    def test_compressions_are_cnu(self, rng):
        a = random_cnu(6, 2, rng)
        for n, m in ((1, 0), (0, 1), (1, 1)):
            comp = a.compress(n, m)
            if comp.shape[0]:
                assert Contraction(comp, a.tol).is_cnu()
