import numpy as np
import pytest

import schurkit.linalg as la
from schurkit import (
    Contraction,
    SampledFunction,
    char_colligation,
    char_function,
    defect_functions,
    discrete_system,
    disk_grid,
    random_conservative_system,
    unitarily_similar,
)
from schurkit import schur as schur_mod
from schurkit import systems
from schurkit.blockparam import decompose_kmx, split_blocks
from schurkit.errors import (
    DimMismatch,
    NotSimpleConservative,
    OutsideDisk,
    RankInconsistency,
    ShapeMismatch,
)
from schurkit.linalg import adj
from schurkit.systems import _char_blocks, grid_distance, intertwining_residual, transfer_stack
from conftest import permutation_colligation, random_cnu, random_contraction_matrix, random_matrix

GRID = disk_grid()


class TestTransfer:
    def test_at_zero_returns_feedthrough(self, rng):
        sys = random_conservative_system(3, 2, rng)
        assert np.array_equal(sys.transfer(0), sys.d)

    def test_permutation_is_square(self):
        sys = permutation_colligation()
        for lam in GRID:
            assert abs(sys.transfer(lam)[0, 0] - lam**2) <= 1e-12

    def test_state_free_system(self):
        sys = discrete_system([[0.3]], la.zeros(1, 0), la.zeros(0, 1), la.zeros(0, 0))
        assert np.allclose(sys.transfer(0.7), [[0.3]])

    def test_outside_disk(self):
        with pytest.raises(OutsideDisk):
            permutation_colligation().transfer(1.0)

    def test_schur_bound_on_grid(self, rng):
        for _ in range(3):
            sys = random_conservative_system(4, 2, rng)
            for lam in disk_grid(radii=(0.3, 0.6, 0.9, 0.999)):
                assert la.opnorm(sys.transfer(lam)) <= 1.0 + la.DEFAULT_TOL.eq_abs

    def test_schur_bound_passive(self, rng):
        from schurkit.blockparam import split_blocks

        for _ in range(3):
            block = split_blocks(random_contraction_matrix(rng, 6, 6, 0.97), 2, 2)
            sys = discrete_system(block.d, block.c, block.b, block.a)
            assert sys.is_passive()
            for lam in disk_grid(radii=(0.3, 0.6, 0.9, 0.999)):
                assert la.opnorm(sys.transfer(lam)) <= 1.0 + la.DEFAULT_TOL.eq_abs


def _circle_and_solve(sys, circle):
    """(the circle sampler's values or None, the solve's values or error)."""
    blocks = (sys.d, sys.c, sys.b, sys.a)
    sampled = systems._circle_stack(*blocks, circle)
    try:
        solved = transfer_stack(*blocks, circle)
    except Exception as exc:  # noqa: BLE001  compared by type below
        solved = exc
    return sampled, solved


def _on_circle_or_error(f, circle):
    try:
        return f._on_circle(circle)
    except Exception as exc:  # noqa: BLE001  compared by type below
        return exc


class TestCircleSampler:
    """The oracle's circle sampled by one DFT of the Markov coefficients
    agrees with the stacked solve, and leaves the inputs it cannot take to
    the solve."""

    @staticmethod
    def _contractive(rng, state_dim, out_dim, in_dim):
        block = split_blocks(random_contraction_matrix(rng, out_dim + state_dim,
                                                       in_dim + state_dim, 0.97),
                             out_dim, in_dim)
        return discrete_system(block.d, block.c, block.b, block.a)

    @pytest.mark.parametrize("case", ["40-4", "96-1", "3-5", "state-free", "non-square"])
    def test_agrees_with_the_solve(self, case):
        rng = np.random.default_rng(3)
        circle = schur_mod._oracle_circle(0)
        if case == "40-4":
            sys = random_conservative_system(40, 4, rng)
        elif case == "96-1":
            sys = random_conservative_system(96, 1, np.random.default_rng(7))
            circle = schur_mod._oracle_circle(96)
        elif case == "3-5":
            sys = random_conservative_system(3, 5, rng)
        elif case == "state-free":
            sys = discrete_system(random_matrix(rng, 3, 2), la.zeros(3, 0), la.zeros(0, 2),
                                  la.zeros(0, 0))
        else:
            sys = self._contractive(rng, 6, 3, 2)
        sampled, solved = _circle_and_solve(sys, circle)
        assert sampled is not None and sampled.shape == (len(circle), sys.out_dim, sys.in_dim)
        assert np.max(np.abs(sampled - solved), initial=0.0) <= 1e-13
        assert np.array_equal(sys.sampled()._on_circle(circle), sampled)
        if case == "state-free":
            assert np.max(np.abs(sampled - sys.d)) <= 1e-13
        if case == "96-1":
            assert abs(circle[0]) > 0.9 and len(circle) == 376

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("case", ["expansive", "nan", "inf"])
    def test_inputs_it_cannot_take_are_solved(self, case):
        rng = np.random.default_rng(4)
        a = 1.3 * la.eye(3)  # r ||A|| = 1.04 on the circle of radius 0.8
        if case != "expansive":
            a = 0.5 * la.eye(3)
            a[1, 2] = np.nan if case == "nan" else np.inf
        sys = discrete_system(random_matrix(rng, 2, 2), random_matrix(rng, 2, 3),
                              random_matrix(rng, 3, 2), a)
        circle = schur_mod._oracle_circle(0)
        sampled, solved = _circle_and_solve(sys, circle)
        assert sampled is None
        got = _on_circle_or_error(sys.sampled(), circle)
        if isinstance(solved, Exception):
            assert type(got) is type(solved)
        else:
            assert np.array_equal(got, solved, equal_nan=True)

    def test_values_sit_at_the_rounded_points(self):
        # the rounded circle points lie ~1e-16 off the DFT's nodes; the
        # values at the nodes differ from the solve's by up to 2.4e-15 here,
        # moved onto the points by the node correction by at most 1e-15
        sys = random_conservative_system(96, 1, np.random.default_rng(7))
        sampled, solved = _circle_and_solve(sys, schur_mod._oracle_circle(96))
        assert np.max(np.abs(sampled - solved)) <= 1e-15

    @pytest.mark.parametrize("points", ["grid", "rotated"])
    def test_points_off_the_circle_are_solved(self, points):
        sys = random_conservative_system(4, 2, np.random.default_rng(1))
        circle = schur_mod._oracle_circle(0)
        pts = np.asarray(disk_grid(), dtype=complex) if points == "grid" else 1j * circle
        sampled, solved = _circle_and_solve(sys, pts)
        assert sampled is None and np.array_equal(sys.sampled()._on_circle(pts), solved)

    def test_checks_the_radius_and_the_shape(self):
        sys = random_conservative_system(4, 2, np.random.default_rng(1))
        with pytest.raises(OutsideDisk):
            sys.sampled()._on_circle(np.array([1.0, -1.0], dtype=complex))
        wrong = SampledFunction(2, 2, sys._transfer_stack,
                                lambda pts: np.zeros((len(pts), 2, 3), dtype=complex))
        with pytest.raises(ShapeMismatch):
            wrong._on_circle(schur_mod._oracle_circle(0))


class TestSimulate:
    def test_zero_run(self):
        sys = permutation_colligation()
        states, outputs = sys.simulate([np.zeros(1)] * 4)
        assert all(np.linalg.norm(s) == 0 for s in states)
        assert all(np.linalg.norm(o) == 0 for o in outputs)

    def test_impulse_response(self):
        sys = permutation_colligation()
        inputs = [np.array([1.0])] + [np.zeros(1)] * 4
        _, outputs = sys.simulate(inputs)
        got = [complex(o[0]) for o in outputs]
        assert np.allclose(got, [0, 0, 1, 0, 0])

    def test_energy_balance_conservative(self, rng):
        sys = random_conservative_system(4, 2, rng)
        inputs = [random_matrix(rng, 2, 1)[:, 0] for _ in range(50)]
        h0 = random_matrix(rng, 4, 1)[:, 0]
        states, outputs = sys.simulate(inputs, h0)
        for k in range(50):
            gain = (np.linalg.norm(states[k + 1]) ** 2 + np.linalg.norm(outputs[k]) ** 2
                    - np.linalg.norm(states[k]) ** 2 - np.linalg.norm(inputs[k]) ** 2)
            assert abs(gain) <= la.DEFAULT_TOL.eq_abs

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            permutation_colligation().simulate([np.zeros(2)])


class TestClassify:
    def test_permutation_all_flags(self):
        cls = permutation_colligation().classify()
        assert cls.conservative and cls.controllable and cls.observable
        assert cls.simple and cls.minimal

    def test_uncoupled_unitary(self, rng):
        u = la.haar_unitary(2, rng)
        sys = discrete_system([[1.0]], la.zeros(1, 2), la.zeros(2, 1), u)
        cls = sys.classify()
        assert cls.conservative
        assert not cls.controllable and not cls.observable and not cls.simple

    def test_no_input_never_controllable(self, rng):
        a = random_cnu(3, 1, rng)
        c = random_matrix(rng, 1, 3)
        sys = discrete_system([[0.0]], 0.1 * c, la.zeros(3, 1), 0.9 * a.a)
        cls = sys.classify()
        assert not cls.controllable
        assert cls.observable  # generic C observes a c.n.u. state

    def test_conservative_cross_check_runs(self, rng):
        # exercises the defect-kernel consistency branch
        for _ in range(5):
            sys = random_conservative_system(5, 2, rng)
            assert sys.classify().conservative

    def test_simple_conservative_iff_cnu_state(self, rng):
        # simple instances
        for _ in range(3):
            sys = random_conservative_system(4, 2, rng)
            assert sys.classify().simple == Contraction(sys.a).is_cnu()
        # non-simple: uncoupled unitary block in the state
        u = la.haar_unitary(2, rng)
        sys = discrete_system([[1.0]], la.zeros(1, 2), la.zeros(2, 1), u)
        assert sys.classify().simple == Contraction(sys.a).is_cnu()


    def test_observable_is_controllable_of_the_dual(self, rng):
        # one Krylov range: observability of (A, C) is controllability of (A*, C*)
        sys = random_conservative_system(5, 2, rng)
        dual = discrete_system(adj(sys.d), adj(sys.b), adj(sys.c), adj(sys.a))
        assert np.array_equal(sys.observable_subspace().basis,
                              dual.controllable_subspace().basis)

    def test_classify_svd_count(self, monkeypatch):
        # a conservative system is classified on its state's lattice: the
        # SVDs are the blocks of its two Arnoldi iterations, started from
        # the defect bases, and no joint range is taken since both sides are
        # full; the eigh calls are the state's two defects and the two power
        # kernels, and the eigvalsh calls the colligation's norm and gaps,
        # taken at once, the state's norm and the two products K* S that
        # check the complements without a complement basis
        sys = random_conservative_system(16, 2, np.random.default_rng(1))
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        eigvalsh, eigvalsh_calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: eigvalsh_calls.append(1) or eigvalsh(*a, **k))
        assert sys.classify().simple
        assert len(calls) == 14
        assert len(eigvalsh_calls) == 4
        eigh, eigh_calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: eigh_calls.append(1) or eigh(*a, **k))
        assert sys.classify().simple
        assert len(eigh_calls) == 4


_FLAGS = ("controllable", "observable", "simple", "minimal")


def _stacked_power_flags(sys) -> dict:
    """The Krylov flags from the range of the stacked powers
    [B, AB, ..., A^{d-1} B] and [C*, A*C*, ...]: the reference route."""
    d, tol = sys.state_dim, sys.tol

    def span(a, b):
        if d == 0:
            return la.trivial_space(0)
        return la.range_basis(np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(d)]),
                              tol)

    ctrl, obs = span(sys.a, sys.b), span(adj(sys.a), adj(sys.c))
    simple = la.range_basis(np.hstack([ctrl.basis, obs.basis]), tol).dim == d
    controllable, observable = ctrl.dim == d, obs.dim == d
    return {"controllable": controllable, "observable": observable, "simple": simple,
            "minimal": controllable and observable}


class TestClassifyKrylovRoute:
    """Krylov ranges from the block Arnoldi, checked against power kernels."""

    @pytest.mark.parametrize("state_dim, io_dim, seed", [
        (d, io, seed)
        for d, io in ((6, 1), (8, 1), (10, 1), (16, 2), (40, 2), (40, 4), (48, 3))
        for seed in range(3)
    ] + [(3, 5, 0), (3, 5, 1), (0, 2, 0), (1, 1, 0)])
    def test_flags_match_the_stacked_powers(self, state_dim, io_dim, seed):
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(seed))
        cls = sys.classify().as_dict()
        assert {k: cls[k] for k in _FLAGS} == _stacked_power_flags(sys)

    def test_unitary_summand_matches_the_stacked_powers(self, rng):
        sys = _unobservable_extension(rng)
        cls = sys.classify().as_dict()
        assert cls["conservative"] and not cls["simple"]
        assert {k: cls[k] for k in _FLAGS} == _stacked_power_flags(sys)

    def test_lost_krylov_direction_raises(self, monkeypatch):
        # a conservative system reads its Krylov spaces off its state's
        # lattice; a basis that lost a column no longer complements the
        # power kernel
        sys = random_conservative_system(6, 1, np.random.default_rng(0))
        bases = Contraction._bases

        def short(self):
            (obs, obs_dims), ctrl = bases(self)
            return [(obs[:, :-1], obs_dims[:-1] + [obs_dims[-1] - 1]), ctrl]

        monkeypatch.setattr(Contraction, "_bases", short)
        with pytest.raises(RankInconsistency):
            sys.classify()

    def test_flags_do_not_depend_on_the_scale_of_the_state(self, rng):
        # K(cA, B) = K(A, B): each Arnoldi block takes one factor of cA, so
        # a small state matrix loses no direction to the rank cut
        for d, io in ((6, 1), (8, 2)):
            feed, c, b, a = (random_matrix(rng, r, k)
                             for r, k in ((io, io), (io, d), (d, io), (d, d)))
            flags = [discrete_system(feed, c, b, scale * a).classify().as_dict()
                     for scale in (1.0, 1e-3)]
            assert flags[0]["minimal"]
            assert {k: flags[1][k] for k in _FLAGS} == {k: flags[0][k] for k in _FLAGS}


class TestCharFunction:
    def test_scalar_zero(self):
        phi = char_function(Contraction([[0.0]]))
        for lam in GRID:
            assert abs(phi(lam)[0, 0] - lam) <= 1e-12

    def test_nilpotent_gives_square(self):
        phi = char_function(Contraction([[0, 1], [0, 0]]))
        assert (phi.in_dim, phi.out_dim) == (1, 1)
        for lam in GRID:
            assert abs(phi(lam)[0, 0] - lam**2) <= 1e-12

    def test_unitary_gives_empty(self, rng):
        phi = char_function(Contraction(la.haar_unitary(2, rng)))
        assert phi(0.5).shape == (0, 0)

    def test_colligation_matches_formula(self, rng):
        a = random_cnu(4, 2, rng)
        sigma = char_colligation(a)
        assert sigma.is_conservative()
        assert sigma.is_simple_conservative()
        phi = char_function(a)
        pts = [0.35 * np.exp(2j * np.pi * k / 12) for k in range(12)]
        assert grid_distance(sigma.sampled(), phi, pts) <= 1e-10

    @pytest.mark.parametrize("sigma", [(1.0, 1.0, 0.6, 0.3), (1.0, 0.8, 0.5, 0.0),
                                       (1.0, 1.0, 1.0, 1.0)],
                             ids=["rank-2", "rank-3", "rank-0"])
    def test_stack_restricts_the_solve_to_the_defect(self, rng, sigma):
        # the solve carries D_A U, dim D_A columns; the stacked function is
        # the per-matrix one and the characteristic colligation's transfer
        # function bit for bit, also when the defect is trivial
        cs = [Contraction(la.haar_unitary(4, rng) @ np.diag(sigma) @ la.haar_unitary(4, rng))
              for _ in range(3)]
        rank = sum(x < 1.0 for x in sigma)
        assert all(c.defect_a.dim == c.defect_astar.dim == rank for c in cs)
        pts = np.asarray(GRID)
        blocks = _char_blocks(*(np.array([getattr(c, name) for c in cs]) for name in
                                ("a", "d_a", "d_astar")),
                              np.array([c.defect_a.basis for c in cs]),
                              np.array([c.defect_astar.basis for c in cs]))
        stacked = transfer_stack(*blocks, pts)
        assert stacked.shape == (3, len(pts), rank, rank)
        assert np.array_equal(stacked, np.array([char_function(c).on(pts) for c in cs]))
        for c, phi in zip(cs, stacked):
            assert np.array_equal(char_colligation(c).sampled().on(pts), phi)

    def test_colligation_simple_iff_cnu(self, rng):
        a = Contraction(np.diag([0.5, np.exp(1j * 0.7)]))
        sigma = char_colligation(a)
        cls = sigma.classify()
        assert cls.conservative and not cls.simple


class TestPureProposition:
    def test_defect_dims_and_pointwise(self, rng):
        # for a simple conservative system the pure part of the transfer
        # function is the characteristic function of the adjoint state,
        # conjugated by the anchored-parametrization isometries
        for _ in range(4):
            sys = random_conservative_system(4, 2, rng)
            state = Contraction(sys.a)
            d0 = sys.d
            assert state.defect_a.dim == la.defect_of(d0, adjoint=True).space.dim
            assert state.defect_astar.dim == la.defect_of(d0).space.dim
            assert state.defect_a.dim == la.range_basis(adj(sys.c)).dim
            assert state.defect_astar.dim == la.range_basis(sys.b).dim
            kmx = decompose_kmx(sys.block)
            phi = char_function(Contraction(adj(sys.a)))
            # the split of Theta(0) serves the whole disk: the defect range
            # of a Schur-class value does not move with lambda
            ep = la.defect_of(d0).space.basis
            fp = la.defect_of(d0, adjoint=True).space.basis
            for lam in GRID:
                rhs = adj(fp) @ (kmx.k @ phi(lam) @ kmx.m) @ ep
                assert la.matnorm_diff(adj(fp) @ sys.transfer(lam) @ ep, rhs) <= 1e-9

    def test_transfer_expansion(self, rng):
        # Theta(lam) = K Phi_{A*}(lam) M + D_K* X D_M for passive systems
        for _ in range(4):
            full = random_contraction_matrix(rng, 6, 6, 0.95)
            from schurkit.blockparam import split_blocks

            block = split_blocks(full, 2, 2)
            sys = discrete_system(block.d, block.c, block.b, block.a)
            kmx = decompose_kmx(sys.block)
            phi = char_function(Contraction(adj(sys.a)))
            dks = la.defect_of(kmx.k, adjoint=True).op
            dm = la.defect_of(kmx.m).op
            x_amb = kmx.dkstar.space.basis @ kmx.x @ adj(kmx.dm.space.basis)
            for lam in GRID:
                rhs = kmx.k @ phi(lam) @ kmx.m + dks @ x_amb @ dm
                assert la.matnorm_diff(sys.transfer(lam), rhs) <= 1e-9


class TestDefectFunctions:
    def test_simple_conservative_vanish(self, rng):
        # finite-dimensional simple conservative systems are observable and
        # controllable, so both defect functions vanish identically
        sys = random_conservative_system(4, 2, rng)
        funcs = defect_functions(sys)
        assert funcs.omega.dim == 0 and funcs.omega_star.dim == 0
        for lam in GRID:
            assert la.opnorm(funcs.phi(lam)) == 0.0
            assert la.opnorm(funcs.psi(lam)) == 0.0

    def test_requires_simple_conservative(self, rng):
        sys = discrete_system([[1.0]], la.zeros(1, 2), la.zeros(2, 1),
                              la.haar_unitary(2, rng))
        with pytest.raises(NotSimpleConservative):
            defect_functions(sys)

    def test_unobservable_block_detected(self, rng):
        # uncoupled unitary state block: the observable complement is the
        # extra block, on which the state acts unitarily
        base = permutation_colligation()
        u = la.haar_unitary(1, rng)
        a = np.block([
            [base.a, la.zeros(2, 1)],
            [la.zeros(1, 2), u],
        ])
        sys = discrete_system(base.d, np.hstack([base.c, la.zeros(1, 1)]),
                              np.vstack([base.b, la.zeros(1, 1)]), a)
        assert sys.is_conservative()
        assert not sys.classify().simple
        obs_perp = sys.observable_subspace().complement()
        assert obs_perp.dim == 1


def _unobservable_extension(rng):
    """The square colligation with an uncoupled unitary state block:
    conservative, not simple."""
    base = permutation_colligation()
    a = np.block([[base.a, la.zeros(2, 1)], [la.zeros(1, 2), la.haar_unitary(1, rng)]])
    return discrete_system(base.d, np.hstack([base.c, la.zeros(1, 1)]),
                           np.vstack([base.b, la.zeros(1, 1)]), a)


class TestDefectFunctionsFromTheLattice:
    """The complements come from the lattice the classification checked."""

    def test_ranges_are_built_once(self, monkeypatch):
        # the classification and the complements read one Arnoldi per side
        sys = random_conservative_system(8, 1, np.random.default_rng(1))
        arnoldi, calls = la.block_arnoldi, []
        monkeypatch.setattr(la, "block_arnoldi",
                            lambda *a, **k: calls.append(1) or arnoldi(*a, **k))
        defect_functions(sys)
        assert len(calls) == 2

    def test_basis_free_outputs_match_the_krylov_route(self):
        # reference: complements of the Krylov ranges, then the same formulas
        sys = random_conservative_system(8, 1, np.random.default_rng(1))
        tol = sys.tol
        funcs = defect_functions(sys)
        obs_perp = sys.observable_subspace().complement(tol)
        ctrl_perp = sys.controllable_subspace().complement(tol)
        omega = la.subspace_intersect(
            obs_perp, la.kernel_basis(adj(sys.a @ obs_perp.basis), tol), tol)
        omega_star = la.subspace_intersect(
            ctrl_perp, la.kernel_basis(adj(adj(sys.a) @ ctrl_perp.basis), tol), tol)
        for got, ref in ((funcs.omega, omega), (funcs.omega_star, omega_star)):
            assert la.matnorm_diff(got.projector(), ref.projector()) <= 1e-12
        pts = np.asarray(GRID)
        resolvent = np.linalg.inv(np.eye(sys.state_dim) - pts[:, None, None] * sys.a)
        phi = adj(omega.basis) @ resolvent @ sys.b
        psi = sys.c @ resolvent @ omega_star.basis
        got_phi, got_psi = funcs.phi.on(pts), funcs.psi.on(pts)
        assert la.stack_matnorm_diff(adj(got_phi) @ got_phi, adj(phi) @ phi) <= 1e-12
        assert la.stack_matnorm_diff(got_psi @ adj(got_psi), psi @ adj(psi)) <= 1e-12


class TestUnitarilySimilar:
    def test_self(self, rng):
        sys = random_conservative_system(3, 2, rng)
        u = unitarily_similar(sys, sys)
        assert u is not None
        assert la.matnorm_diff(u, np.eye(3)) <= 1e-7

    def test_recovers_conjugation(self, rng):
        sys = random_conservative_system(4, 2, rng)
        w = la.haar_unitary(4, rng)
        other = discrete_system(sys.d, sys.c @ adj(w), w @ sys.b, w @ sys.a @ adj(w))
        u = unitarily_similar(sys, other)
        assert u is not None
        assert intertwining_residual(sys, other, u) <= 1e-8

    def test_distinguishes_transfers(self, rng):
        s1 = random_conservative_system(3, 2, rng)
        s2 = random_conservative_system(3, 2, rng)
        assert la.matnorm_diff(s1.transfer(0.3), s2.transfer(0.3)) > 1e-3
        assert unitarily_similar(s1, s2) is None

    def test_dim_mismatch(self, rng):
        s1 = random_conservative_system(3, 2, rng)
        s2 = random_conservative_system(3, 1, rng)
        with pytest.raises(DimMismatch):
            unitarily_similar(s1, s2)


def test_random_generator_is_unitary_and_simple(rng):
    sys = random_conservative_system(5, 2, rng)
    full = sys.colligation()
    assert la.matnorm_diff(adj(full) @ full, np.eye(7)) <= 1e-12
    assert sys.is_simple_conservative()
