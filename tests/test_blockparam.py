import numpy as np
import pytest

import schurkit.linalg as la
from schurkit.blockparam import (
    BlockMatrix,
    assemble_fgl,
    assemble_kmx,
    block_matrix,
    decompose_fgl,
    decompose_kmx,
    fgl_params,
    iso_criteria,
    kmx_params,
    moebius_map,
    shmulyan_transform,
    split_blocks,
    unitary_link,
)
from schurkit.errors import NotUnitary, ShapeMismatch, SingularPencil
from schurkit.linalg import adj
from conftest import random_contraction_matrix, random_matrix

EQ = la.DEFAULT_TOL.eq_abs


def random_block_contraction(rng, out_dim=2, in_dim=2, state=3, norm=0.95):
    full = random_contraction_matrix(rng, out_dim + state, in_dim + state, norm)
    return split_blocks(full, out_dim, in_dim)


class TestKmx:
    def test_unitary_coupling(self):
        # A = 0, K = M = 1 make the flip matrix; X acts between trivial spaces
        p = kmx_params([[0.0]], [[1.0]], [[1.0]], la.zeros(0, 0))
        t = assemble_kmx(p)
        assert np.allclose(t.assemble(), [[0, 1], [1, 0]])

    def test_zero_coupling(self):
        # K = M = 0 leave D = X alone
        p = kmx_params([[0.3]], [[0.0]], [[0.0]], [[0.7]])
        t = assemble_kmx(p)
        assert np.allclose(t.d, [[0.7]])
        assert np.allclose(t.c, [[0.0]])
        assert np.allclose(t.b, [[0.0]])

    def test_degenerate_io(self, rng):
        a = random_contraction_matrix(rng, 2, 2)
        r = la.defect_of(a).space.dim
        rs = la.defect_of(a, adjoint=True).space.dim
        p = kmx_params(a, la.zeros(0, r), la.zeros(rs, 0), la.zeros(0, 0))
        t = assemble_kmx(p)
        assert t.in_dim == 0 and t.out_dim == 0
        assert np.array_equal(t.assemble(), a)

    def test_decompose_flip(self):
        t = block_matrix([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        p = decompose_kmx(t)
        assert np.allclose(p.k, [[1.0]])
        assert np.allclose(p.m, [[1.0]])
        assert p.x.shape == (0, 0)

    def test_decompose_identity(self):
        # unitary A kills K and M; X is forced to carry the feedthrough
        t = split_blocks(np.eye(2), 1, 1)
        p = decompose_kmx(t)
        assert p.k.shape == (1, 0)
        assert p.m.shape == (0, 1)
        assert np.allclose(p.x, [[1.0]])
        assert la.matnorm_diff(assemble_kmx(p).assemble(), np.eye(2)) <= EQ

    def test_roundtrip(self, rng):
        for _ in range(6):
            t = random_block_contraction(rng, 1, 1, 1)
            back = assemble_kmx(decompose_kmx(t))
            assert la.matnorm_diff(t.assemble(), back.assemble()) <= 1e-9

    def test_contraction_identity(self, rng):
        # squared-norm ledger of the parametrization, checked on random vectors
        for _ in range(4):
            t = random_block_contraction(rng, 2, 2, 3)
            p = decompose_kmx(t)
            da = la.defect_of(p.a).op
            dk = la.defect_of(p.k).op
            dm = la.defect_of(p.m).op
            dx = la.defect_of(p.x).op
            ua, uas = p.da.space.basis, p.dastar.space.basis
            em = p.dm.space.basis
            for _ in range(4):
                h = random_matrix(rng, 2, 1)[:, 0]
                f = random_matrix(rng, 3, 1)[:, 0]
                vec = np.concatenate([h, f])
                lhs = np.linalg.norm(vec) ** 2 - np.linalg.norm(t.assemble() @ vec) ** 2
                inner = adj(ua) @ da @ f - (adj(ua) @ adj(p.a) @ uas) @ (p.m @ h)
                term1 = dk @ inner - adj(p.k) @ (p.dkstar.space.basis @ p.x @ adj(em)) @ dm @ h
                term2 = dx @ (adj(em) @ dm @ h)
                rhs = np.linalg.norm(term1) ** 2 + np.linalg.norm(term2) ** 2
                assert abs(lhs - rhs) <= 1e-8


class TestFgl:
    def test_zero_feedthrough(self, rng):
        # D = 0 makes both defects the identity, so B = F and C = G
        f = random_contraction_matrix(rng, 2, 1)
        g = random_contraction_matrix(rng, 1, 2)
        l = random_contraction_matrix(
            rng, la.defect_of(f, adjoint=True).space.dim, la.defect_of(g).space.dim
        )
        p = fgl_params([[0.0]], f, g, l)
        t = assemble_fgl(p)
        assert la.matnorm_diff(t.b, f) <= EQ
        assert la.matnorm_diff(t.c, g) <= EQ

    def test_unitary_feedthrough(self, rng):
        t = split_blocks(la.haar_unitary(3, rng), 2, 2)
        # keep only the unitary upper-left corner: D unitary kills B and C
        u = la.haar_unitary(2, rng)
        t = block_matrix(u, la.zeros(2, 1), la.zeros(1, 2), t.a[:1, :1] * 0.5)
        p = decompose_fgl(t)
        assert p.f.shape == (1, 0)
        assert p.g.shape == (0, 1)
        assert la.matnorm_diff(assemble_fgl(p).assemble(), t.assemble()) <= 1e-9

    def test_flip(self):
        t = block_matrix([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        p = decompose_fgl(t)
        assert np.allclose(p.f, [[1.0]])
        assert np.allclose(p.g, [[1.0]])
        assert p.l.shape == (0, 0)

    def test_roundtrip(self, rng):
        for _ in range(6):
            t = random_block_contraction(rng, 2, 1, 2)
            back = assemble_fgl(decompose_fgl(t))
            assert la.matnorm_diff(t.assemble(), back.assemble()) <= 1e-9

    def test_defect_identities(self, rng):
        # ||D_T (h, f)||^2 and the adjoint version, via the parameters
        for _ in range(4):
            t = random_block_contraction(rng, 2, 2, 3)
            p = decompose_fgl(t)
            full = t.assemble()
            dt = la.defect_of(full).op
            dts = la.defect_of(full, adjoint=True).op
            dd = la.defect_of(p.d).op
            dds = la.defect_of(p.d, adjoint=True).op
            df = la.defect_of(p.f).op
            dg = la.defect_of(p.g).op
            dgs = la.defect_of(p.g, adjoint=True).op
            dfs = la.defect_of(p.f, adjoint=True).op
            dl = la.defect_of(p.l).op
            dls = la.defect_of(p.l, adjoint=True).op
            ed, fds = p.dd.space.basis, p.ddstar.space.basis
            eg, ffs = p.dg.space.basis, p.dfstar.space.basis
            h = random_matrix(rng, 2, 1)[:, 0]
            f = random_matrix(rng, 3, 1)[:, 0]
            lhs = np.linalg.norm(dt @ np.concatenate([h, f])) ** 2
            inner = adj(ed) @ dd @ h - (adj(ed) @ adj(p.d) @ fds) @ (p.g @ f)
            t1 = df @ inner - adj(p.f) @ (ffs @ p.l @ adj(eg)) @ dg @ f
            t2 = dl @ (adj(eg) @ dg @ f)
            assert abs(lhs - np.linalg.norm(t1) ** 2 - np.linalg.norm(t2) ** 2) <= 1e-8
            phi = random_matrix(rng, 2, 1)[:, 0]
            g = random_matrix(rng, 3, 1)[:, 0]
            lhs = np.linalg.norm(dts @ np.concatenate([phi, g])) ** 2
            inner = adj(fds) @ dds @ phi - (adj(fds) @ p.d @ ed) @ (adj(p.f) @ g)
            t1 = dgs @ inner - p.g @ (eg @ adj(p.l) @ adj(ffs)) @ dfs @ g
            t2 = dls @ (adj(ffs) @ dfs @ g)
            assert abs(lhs - np.linalg.norm(t1) ** 2 - np.linalg.norm(t2) ** 2) <= 1e-8


class TestIsoCriteria:
    def test_permutation_unitary(self):
        t = block_matrix([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        flags = iso_criteria(t)
        assert flags.unitary
        assert max(flags.residuals.values()) <= EQ

    def test_diagonal_neither(self):
        t = split_blocks(np.diag([1.0, 0.5]), 1, 1)
        flags = iso_criteria(t)
        assert not flags.isometric and not flags.coisometric

    def test_column_stack_isometric(self):
        t = block_matrix([[0.6]], la.zeros(1, 0), [[0.8]], la.zeros(1, 0))
        flags = iso_criteria(t)
        assert flags.isometric and not flags.coisometric

    def test_agreement_on_random(self, rng):
        for _ in range(20):
            t = random_block_contraction(rng, 2, 2, 2)
            flags = iso_criteria(t)  # raises RankInconsistency on disagreement
            assert not flags.unitary


class TestUnitaryLink:
    def test_three_cycle(self):
        t = split_blocks(np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex), 1, 1)
        resid = unitary_link(t)
        assert max(resid.values()) <= EQ

    def test_flip(self):
        t = block_matrix([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert max(unitary_link(t).values()) <= EQ

    def test_identity_vacuous(self):
        t = split_blocks(np.eye(2), 1, 1)
        assert max(unitary_link(t).values()) <= EQ

    def test_haar(self, rng):
        t = split_blocks(la.haar_unitary(5, rng), 2, 2)
        assert max(unitary_link(t).values()) <= 100 * EQ

    def test_rejects_nonunitary(self, rng):
        with pytest.raises(NotUnitary):
            unitary_link(random_block_contraction(rng, 1, 1, 1))


class TestMoebiusMap:
    def test_zero_anchor(self, rng):
        # D = 0: defects are identities and the blocks pass through
        g = random_contraction_matrix(rng, 2, 3)
        f = random_contraction_matrix(rng, 3, 2)
        s = random_contraction_matrix(rng, 3, 3)
        q = BlockMatrix(la.zeros(2, 2), g, f, s)
        t = moebius_map(la.zeros(2, 2), q)
        assert la.matnorm_diff(t.c, g) <= EQ
        assert la.matnorm_diff(t.b, f) <= EQ
        assert la.matnorm_diff(t.a, s) <= EQ

    def test_zero_argument(self, rng):
        d = random_contraction_matrix(rng, 2, 2, 0.8)
        rd = la.defect_of(d).space.dim
        sd = la.defect_of(d, adjoint=True).space.dim
        q = BlockMatrix(la.zeros(sd, rd), la.zeros(sd, 3), la.zeros(3, rd), la.zeros(3, 3))
        t = moebius_map(d, q)
        assert la.matnorm_diff(t.d, d) == 0.0
        assert la.opnorm(t.c) == 0.0 and la.opnorm(t.b) == 0.0 and la.opnorm(t.a) == 0.0

    def test_scalar_unitary_output(self):
        one = np.ones((1, 1), dtype=complex)
        q = BlockMatrix(la.zeros(1, 1), one, one, la.zeros(1, 1))
        t = moebius_map([[0.6]], q)
        assert np.allclose(t.assemble(), [[0.6, 0.8], [0.8, -0.6]])
        assert la.is_unitary(t.assemble())

    def test_contraction_iff(self, rng):
        d = random_contraction_matrix(rng, 2, 2, 0.7)
        rd = la.defect_of(d).space.dim
        sd = la.defect_of(d, adjoint=True).space.dim
        q_full = random_contraction_matrix(rng, sd + 2, rd + 2, 0.9)
        blocks = split_blocks(q_full, sd, rd)
        q = BlockMatrix(la.zeros(sd, rd), blocks.c, blocks.b, blocks.a)
        t = moebius_map(d, q)
        assert la.is_contraction(t.assemble())
        # expanding Q must break contractivity of the image as well
        q_big = BlockMatrix(la.zeros(sd, rd), 1.4 * blocks.c, 1.4 * blocks.b,
                            1.4 * blocks.a)
        if la.opnorm(q_big.assemble()) > 1.05:
            t_big = moebius_map(d, q_big)
            assert not la.is_contraction(t_big.assemble())

    def test_preserves_isometry(self, rng):
        # isometric Q with a vanishing corner: first block-column [0; F]
        # with F isometric, second [G; S] orthonormal and orthogonal to it
        d = random_contraction_matrix(rng, 2, 2, 0.7)
        rd = la.defect_of(d).space.dim
        sd = la.defect_of(d, adjoint=True).space.dim
        k, h = 4, 2
        w = la.haar_unitary(k, rng)
        f = w[:, :rd]
        v = la.haar_unitary(sd + k - rd, rng)[:, :h]
        g = v[:sd, :]
        s = w[:, rd:] @ v[sd:, :]
        q = BlockMatrix(la.zeros(sd, rd), g, f, s)
        assert la.is_isometry(q.assemble())
        t = moebius_map(d, q)
        assert la.is_isometry(t.assemble())
        assert not la.is_coisometry(t.assemble())

    def test_rejects_nonzero_corner(self, rng):
        d = random_contraction_matrix(rng, 2, 2, 0.7)
        rd = la.defect_of(d).space.dim
        sd = la.defect_of(d, adjoint=True).space.dim
        q = BlockMatrix(0.5 * np.eye(sd, rd), la.zeros(sd, 1), la.zeros(1, rd),
                        la.zeros(1, 1))
        with pytest.raises(ShapeMismatch):
            moebius_map(d, q)


class TestDecomposesOnce:
    """Each parameter is decomposed once per call chain: the parameter sets
    keep D(A), D(A*), D(M) and D(K*) (D(D), D(D*), D(G) and D(F*) for the
    FGL form), and assembly, the criteria and the link read them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        defect_of = la.defect_of

        def counting(x, *args, **kwargs):
            made.append(x)
            return defect_of(x, *args, **kwargs)

        monkeypatch.setattr(la, "defect_of", counting)
        return made

    def test_records_the_decompositions(self, rng):
        t = random_block_contraction(rng, 2, 1, 3)
        p, q = decompose_kmx(t), decompose_fgl(t)
        for dec, x, adjoint in ((p.da, p.a, False), (p.dastar, p.a, True),
                                (p.dm, p.m, False), (p.dkstar, p.k, True),
                                (q.dd, q.d, False), (q.ddstar, q.d, True),
                                (q.dg, q.g, False), (q.dfstar, q.f, True)):
            fresh = la.defect_of(x, adjoint=adjoint)
            assert np.array_equal(dec.op, fresh.op)
            assert np.array_equal(dec.space.basis, fresh.space.basis)

    def test_params_then_assemble(self, rng, calls):
        t = random_block_contraction(rng, 2, 2, 3)
        p, q = decompose_kmx(t), decompose_fgl(t)
        del calls[:]
        assemble_kmx(kmx_params(p.a, p.k, p.m, p.x))
        assert len(calls) == 4
        del calls[:]
        assemble_fgl(fgl_params(q.d, q.f, q.g, q.l))
        assert len(calls) == 4

    def test_iso_criteria(self, rng, calls):
        iso_criteria(random_block_contraction(rng, 2, 2, 3))
        assert len(calls) == 8

    def test_unitary_link(self, rng, calls):
        unitary_link(split_blocks(la.haar_unitary(5, rng), 2, 2))
        assert len(calls) == 8


class TestShmulyan:
    def test_zero_parameter_is_identity(self, rng):
        t = random_contraction_matrix(rng, 3, 2)
        q = shmulyan_transform(t, la.zeros(3, 2))
        assert np.array_equal(q, t)

    def test_scalar_zero_anchor(self):
        assert np.allclose(shmulyan_transform([[0.0]], [[0.5]]), [[0.5]])

    def test_scalar_arithmetic(self):
        # 0.5 + 0.75 * 0.5 / 1.25 = 0.8
        assert np.allclose(shmulyan_transform([[0.5]], [[0.5]]), [[0.8]])

    def test_defect_identity(self, rng):
        for _ in range(6):
            t = random_contraction_matrix(rng, 3, 3, 0.8)
            dt = la.defect_of(t)
            dts = la.defect_of(t, adjoint=True)
            z = dts.space.projector() @ random_matrix(rng, 3, 3) @ dt.space.projector()
            z *= 0.8 / max(la.opnorm(z), 1e-12)
            q = shmulyan_transform(t, z)
            assert la.is_contraction(q)
            dq = la.defect_of(q).op
            dz = la.defect_of(z).op
            solve = np.linalg.solve(np.eye(3) + adj(t) @ z, dt.op)
            for _ in range(3):
                f = random_matrix(rng, 3, 1)[:, 0]
                lhs = np.linalg.norm(dq @ f)
                rhs = np.linalg.norm(dz @ solve @ f)
                assert abs(lhs - rhs) <= 1e-8

    def test_range_inclusion_and_equality(self, rng):
        t = random_contraction_matrix(rng, 3, 3, 0.8)
        dt = la.defect_of(t)
        dts = la.defect_of(t, adjoint=True)
        z = dts.space.projector() @ random_matrix(rng, 3, 3) @ dt.space.projector()
        z *= 0.7 / max(la.opnorm(z), 1e-12)
        q = shmulyan_transform(t, z)
        dq_space = la.defect_of(q).space
        outside = (np.eye(3) - dt.space.projector()) @ dq_space.basis
        assert la.opnorm(outside) <= 1e-8
        assert dq_space.dim == dt.space.dim  # ||Z|| < 1 forces equal ranges

    def test_singular_pencil(self):
        with pytest.raises(SingularPencil):
            shmulyan_transform([[1.0]], [[-1.0]])
