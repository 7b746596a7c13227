import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import schurkit.linalg as la
from schurkit import (
    Contraction,
    SampledFunction,
    char_function,
    choice_sequence,
    const_function,
    discrete_system,
    disk_grid,
    first_iterate_systems,
    gamma_from_realization,
    grid_distance,
    iterate_systems,
    moebius_compose,
    moebius_parameter,
    oracle_step,
    random_conservative_system,
    reconstruct,
    schur_oracle,
    unitarily_similar,
)
from schurkit import schur as schur_mod
from schurkit.blockparam import decompose_kmx, shmulyan_transform, split_blocks
from schurkit.errors import (
    InvalidSequence,
    SchurkitError,
    Terminated,
    UnitaryParameter,
    UnitaryTheta0,
)
from schurkit.linalg import adj
from schurkit.schur import (
    CHAIN_THRESHOLDS,
    ChainReport,
    _lattice_intertwiner,
    build_chain,
    is_unitary_parameter,
    verify_chain,
)
from schurkit.systems import DiscreteSystem, intertwining_residual
from conftest import (
    blaschke_colligation,
    permutation_colligation,
    random_cnu,
    random_contraction_matrix,
    random_matrix,
)

GRID = disk_grid()


def scalar_function(fn):
    """A 1x1 function from ``fn``, which maps an array of points elementwise."""
    return SampledFunction(1, 1, lambda pts: np.asarray(fn(pts), dtype=complex)[:, None, None])


def blaschke(t):
    return scalar_function(lambda lam: (lam + t) / (1 + t * lam))


class TestOracleStep:
    def test_single_blaschke_factor(self):
        gamma, nxt = oracle_step(blaschke(0.4))
        assert abs(gamma[0, 0] - 0.4) <= 1e-12
        for lam in GRID:
            assert abs(nxt(lam)[0, 0] - 1.0) <= 1e-9
        with pytest.raises(UnitaryParameter):
            oracle_step(nxt)

    def test_constant(self):
        gamma, nxt = oracle_step(const_function([[0.3 + 0.1j]]))
        assert abs(gamma[0, 0] - (0.3 + 0.1j)) <= 1e-12
        for lam in GRID:
            assert abs(nxt(lam)[0, 0]) <= 1e-9
        gamma2, nxt2 = oracle_step(nxt)
        assert abs(gamma2[0, 0]) <= 1e-9

    def test_square_function(self):
        chain = schur_oracle(scalar_function(lambda lam: lam * lam), 5)
        got = [complex(g[0, 0]) for g in chain.params.gammas]
        assert np.allclose(got, [0, 0, 1], atol=1e-9)
        assert chain.params.terminated

    @pytest.mark.parametrize("state_dim, io_dim", [(10, 1), (40, 4)])
    def test_each_level_samples_its_circle_once(self, monkeypatch, state_dim, io_dim):
        # a level divides on its circle at the points, from the previous
        # level's circle stack, once, and reads its value at 0 off that stack
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(3))
        core, calls = schur_mod._DividedEvaluator._core, []
        monkeypatch.setattr(schur_mod._DividedEvaluator, "_core",
                            lambda self, *a: calls.append(1) or core(self, *a))
        chain = schur_oracle(sys.sampled(), 10)
        levels = len(chain.iterates) - 1
        assert levels == 10
        assert len(calls) == levels


CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
checks = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _chain(state_dim, io_dim, seed):
    return build_chain(random_conservative_system(state_dim, io_dim,
                                                  np.random.default_rng(seed)))


class TestOracleCircle:
    """Every divided level of the oracle is read off one circle, so its deep
    levels keep their digits and the verdict is the realization's."""

    @pytest.mark.parametrize("state_dim, io_dim, seed", [
        *((d, 1, s) for d in (20, 24, 28, 32) for s in (7, 8)),
        (40, 2, 1), (40, 2, 2), (40, 2, 3), (56, 2, 8), (40, 1, 175),
    ])
    def test_deep_chains_verify(self, state_dim, io_dim, seed):
        assert verify_chain(_chain(state_dim, io_dim, seed)).failures() == {}

    def test_terminal_drift_fails_shape_alone(self):
        # the realization's terminal parameter lies just outside the 1e-9
        # unitary band that validation applies; nothing else fails
        assert list(verify_chain(_chain(48, 4, 31)).failures()) == ["shape"]

    def test_parameters_match_the_classical_algorithm(self):
        # the oracle's |Gamma_n| against the textbook recursion on the
        # Taylor series D, CB, CAB, ... in extended precision
        sys = random_conservative_system(32, 1, np.random.default_rng(8))
        oracle = schur_oracle(sys.sampled(), 32)
        steps = len(oracle.params)
        series = checks.Colligation(sys.d, sys.c, sys.b, sys.a).taylor(steps)
        classical = checks.classical_schur([c[0, 0] for c in series], steps)
        assert len(classical) == steps == 33
        moduli = np.abs([g[0, 0] for g in oracle.params.gammas])
        assert np.max(np.abs(np.abs(classical) - moduli)) <= 1e-10

    def test_deep_parameters_match_the_classical_algorithm(self):
        # at depth 80 the circle widens past 0.8, whose growth 0.8^-80 ~ 6e7
        # would eat the digits; the reference agrees with a 60-digit run to
        # ~5e-16.  The terminal parameter, unitary, carries the most rounding
        sys = random_conservative_system(80, 1, np.random.default_rng(0))
        oracle = schur_oracle(sys.sampled(), 80)
        assert abs(oracle.iterates[1].eval_fn.points[0]) > 0.8
        steps = len(oracle.params)
        series = checks.Colligation(sys.d, sys.c, sys.b, sys.a).taylor(steps)
        classical = checks.classical_schur([c[0, 0] for c in series], steps)
        assert len(classical) == steps == 81 and oracle.params.terminated
        error = np.abs(np.abs(classical) - np.abs([g[0, 0] for g in oracle.params.gammas]))
        assert np.max(error[:-1]) <= 1e-10
        assert error[-1] <= 1e-9

    @pytest.mark.parametrize("n_max, points", [(0, 160), (41, 160), (42, 168), (97, 376)])
    def test_circle_is_chosen_from_the_depth(self, n_max, points):
        # the smallest radius >= 0.8 whose growth r^-n_max stays within 1e4,
        # with the fewest points (a multiple of 8) that alias below 3.2e-16
        circle = schur_mod._oracle_circle(n_max)
        r = abs(circle[0])
        assert len(circle) == points and np.allclose(np.abs(circle), r, rtol=1e-15)
        assert r ** -n_max <= 1e4 * (1 + 1e-12) and r ** points <= 3.2e-16 < r ** (points - 8)
        assert r == 0.8 if n_max <= 41 else (0.999 * r) ** -n_max > 1e4

    @pytest.mark.parametrize("state_dim, io_dim", [(5, 2), (3, 5)])
    def test_levels_solve_only_where_they_divide(self, monkeypatch, state_dim, io_dim):
        # verify_chain samples the source on the circle, at 0 for Gamma_0 and,
        # through level 1, at the 8 grid points outside the read-off disk,
        # never at the 17 inside it; (3,5) terminates at step 1, so it has
        # no family to sample on the grid.  Each iterate equals, bit for bit on the
        # grid and at 0, the one built with the products by the identity
        # basis of a full defect space: levels 1 and 2 of (5,2) have full
        # defects, level 3 (Gamma_2 has a unitary part) and level 1 of (3,5)
        # (Gamma_0 has one) partial ones
        chain = _chain(state_dim, io_dim, 1)
        source, seen = chain.source, []
        transfer = source._transfer_stack

        def recording(pts):
            seen.append(pts.copy())
            return transfer(pts)

        monkeypatch.setattr(source, "_transfer_stack", recording)
        verify_chain(chain)
        grid = np.asarray(disk_grid())
        outer = grid[np.abs(grid) >= 0.65]
        wanted = [np.zeros(1), schur_mod._oracle_circle(len(chain.params) - 1)]
        wanted += [outer] if chain.families else []
        assert len(seen) == len(wanted) and len(outer) == 8
        assert all(any(np.array_equal(p, q) for p in seen) for q in wanted)

        def sampled(oracle):
            return [np.concatenate([f.on(grid), f.on([0j])]) for f in oracle.iterates[1:]]

        oracle = schur_oracle(chain.source.sampled(), len(chain.params) - 1)
        spaces = [(f.eval_fn.dom, f.eval_fn.cod) for f in oracle.iterates[1:]]
        full = [all(s.dim == s.ambient_dim for s in pair) for pair in spaces]
        assert full == ([True, True, False] if io_dim == 2 else [False])
        values = sampled(oracle)

        def explicit_core(self, pts, t):
            (dd, dds), eb, fb, g = self.defects, self.dom.basis, self.cod.basis, self.gamma
            pencil = adj(fb) @ (la.eye(g.shape[0]) - t @ adj(g)) @ fb
            num = adj(fb) @ (t - g) @ eb
            value = ((adj(fb) @ dds.op @ fb) @ np.linalg.solve(pencil, num)
                     @ (adj(eb) @ dd.op_pinv @ eb))
            return value / pts[:, None, None] if self.divide else value

        monkeypatch.setattr(schur_mod._DividedEvaluator, "_core", explicit_core)
        reference = sampled(schur_oracle(chain.source.sampled(), len(chain.params) - 1))
        assert all(np.array_equal(v, r) for v, r in zip(values, reference, strict=True))

    def test_grid_outside_the_read_off_disk_is_divided_at_the_point(self):
        report = verify_chain(_chain(8, 1, 1), disk_grid((0.3, 0.95, 0.99)))
        assert report.ok

    @pytest.mark.parametrize("state_dim, seed", [(12, 165), (16, 11)])
    def test_routes_agree_on_termination(self, state_dim, seed):
        chain = _chain(state_dim, 1, seed)
        oracle = schur_oracle(chain.source.sampled(), len(chain.params) - 1)
        assert chain.params.terminated and oracle.params.terminated
        report = verify_chain(chain)
        assert report.residuals["termination_match"] == 0.0 and report.ok

    def test_flipped_termination_flag_fails(self):
        chain = _chain(8, 1, 1)
        assert chain.params.terminated
        flipped = dataclasses.replace(chain, params=dataclasses.replace(
            chain.params, terminated=False))
        assert verify_chain(flipped).failures() == {"termination_match": 1.0}


class TestMoebiusParameter:
    def test_constant_gives_zero(self):
        z = moebius_parameter(const_function([[0.5]]))
        assert all(abs(z(lam)[0, 0]) <= 1e-12 for lam in GRID)

    def test_linear_identity(self):
        theta = SampledFunction(2, 2, lambda pts: pts[:, None, None] * np.eye(2, dtype=complex))
        z = moebius_parameter(theta)
        for lam in GRID:
            assert la.matnorm_diff(z(lam), lam * np.eye(2)) <= 1e-12

    def test_blaschke_factor(self):
        z = moebius_parameter(blaschke(0.4))
        for lam in GRID:
            assert abs(z(lam)[0, 0] - lam) <= 1e-10

    def test_schwarz_bounds(self, rng):
        sys = random_conservative_system(4, 2, rng)
        z = moebius_parameter(sys.sampled())
        assert la.opnorm(z(0)) == 0.0
        for lam in GRID:
            assert la.opnorm(z(lam)) <= abs(lam) + 1e-9

    def test_representation_on_grid(self, rng):
        # Theta = Theta(0) + D* Z (I + Theta(0)* Z)^{-1} D
        sys = random_conservative_system(3, 2, rng)
        theta = sys.sampled()
        z = moebius_parameter(theta)
        t0 = theta(0)
        dd = la.defect_of(t0)
        dds = la.defect_of(t0, adjoint=True)
        for lam in GRID:
            z_amb = dds.space.basis @ z(lam) @ adj(dd.space.basis)
            pencil = np.eye(2) + adj(t0) @ z_amb
            rhs = t0 + dds.op @ z_amb @ np.linalg.solve(pencil, dd.op)
            assert la.matnorm_diff(theta(lam), rhs) <= 1e-9


class TestMoebiusCompose:
    def test_zero_iterate(self, rng):
        gamma = 0.6 * la.haar_unitary(2, rng)
        e, f = la.defect_of(gamma).space, la.defect_of(gamma, adjoint=True).space
        theta = moebius_compose(gamma, const_function(la.zeros(f.dim, e.dim)))
        for lam in GRID:
            assert la.matnorm_diff(theta(lam), gamma) <= 1e-12

    def test_zero_parameter(self):
        inner = scalar_function(lambda lam: 0.5 + 0.2 * lam)
        theta = moebius_compose(la.zeros(1, 1), inner)
        for lam in GRID:
            assert abs(theta(lam)[0, 0] - lam * inner(lam)[0, 0]) <= 1e-12

    def test_blaschke_assembly(self):
        theta = moebius_compose(np.array([[0.4]], dtype=complex), const_function([[1.0]]))
        target = blaschke(0.4)
        assert grid_distance(theta, target, GRID) <= 1e-12

    def test_left_inverse_of_oracle_step(self, rng):
        sys = random_conservative_system(4, 2, rng)
        theta = sys.sampled()
        gamma, nxt = oracle_step(theta)
        back = moebius_compose(gamma, nxt)
        assert grid_distance(back, theta, GRID) <= 1e-9

    @pytest.mark.parametrize("shape", [(4, 2), (6, 1), (5, 3)])
    def test_is_the_shmulyan_map_at_each_point(self, rng, shape):
        # one implementation of the map: the stacked composition is the
        # single-matrix transform of lambda F T(lambda) E*, bit for bit
        gamma = random_contraction_matrix(rng, *shape, 0.8)
        e, f = la.defect_of(gamma).space, la.defect_of(gamma, adjoint=True).space
        full = random_contraction_matrix(rng, f.dim + 3, e.dim + 3, 0.9)
        inner = DiscreteSystem(split_blocks(full, f.dim, e.dim))
        pts = np.asarray(GRID)
        values = inner.sampled().on(pts)
        stacked = moebius_compose(gamma, inner.sampled()).on(pts)
        for lam, t, q in zip(pts, values, stacked):
            z = lam * (f.basis @ t @ adj(e.basis))
            assert np.array_equal(q, shmulyan_transform(gamma, z)), lam


class TestReconstruct:
    def test_unimodular_constant(self):
        seq = choice_sequence([np.array([[1.0]])], terminated=True)
        f = reconstruct(seq)
        assert all(abs(f(lam)[0, 0] - 1.0) <= 1e-12 for lam in GRID)

    def test_square(self):
        seq = choice_sequence([[[0.0]], [[0.0]], [[1.0]]], terminated=True)
        f = reconstruct(seq)
        for lam in GRID:
            assert abs(f(lam)[0, 0] - lam * lam) <= 1e-12

    def test_truncated_tail(self):
        seq = choice_sequence([np.array([[0.4]])], terminated=False)
        f = reconstruct(seq)
        assert all(abs(f(lam)[0, 0] - 0.4) <= 1e-12 for lam in GRID)

    def test_roundtrip_from_realization(self, rng):
        for _ in range(3):
            sys = random_conservative_system(4, 2, rng)
            seq = gamma_from_realization(sys, sys.state_dim + 1)
            assert seq.terminated
            back = reconstruct(seq)
            assert grid_distance(back, sys.sampled(), GRID) <= 1e-7

    def test_truncated_chain_of_non_inner_function(self, rng):
        # strictly contractive transfer: the chain never terminates, and a
        # truncated reconstruction matches up to the tail degree
        from schurkit.blockparam import split_blocks

        full = random_matrix(rng, 4, 4)
        block = split_blocks(0.9 * full / la.opnorm(full), 1, 1)
        sys = discrete_system(block.d, block.c, block.b, block.a)
        chain = schur_oracle(sys.sampled(), 6)
        assert not chain.params.terminated
        assert len(chain.params) == 7
        for it in chain.iterates:
            for lam in GRID:
                assert la.opnorm(it(lam)) <= 1.0 + 1e-9
        back = reconstruct(chain.params)
        small = [0.05 * np.exp(2j * np.pi * k / 8) for k in range(8)]
        assert grid_distance(back, sys.sampled(), small) <= 1e-9


def _valid_scalar_sequence():
    return choice_sequence([[[0.5]], [[0.3]], [[0.2]]], terminated=False)


INVALID_SEQUENCES = {
    "empty": lambda: choice_sequence([], terminated=False),
    "short_doms": lambda: dataclasses.replace(
        _valid_scalar_sequence(), doms=_valid_scalar_sequence().doms[:-1]).validate(),
    "long_codoms": lambda: dataclasses.replace(
        _valid_scalar_sequence(), codoms=_valid_scalar_sequence().codoms * 2).validate(),
    "shape_against_bases": lambda: choice_sequence([[[0.5]], [[0.1, 0.2]]], terminated=False),
    "norm_above_one": lambda: choice_sequence([[[0.5]], [[1.5]]], terminated=False),
    "terminated_not_unitary": lambda: choice_sequence([[[0.5]], [[0.3]]], terminated=True),
}


@pytest.mark.parametrize("build", INVALID_SEQUENCES.values(), ids=INVALID_SEQUENCES.keys())
def test_invalid_sequence_is_rejected(build):
    with pytest.raises(InvalidSequence):
        build()


class TestGammaFromRealization:
    def test_square_anchor(self):
        seq = gamma_from_realization(permutation_colligation(), 5)
        got = [complex(g[0, 0]) for g in seq.gammas]
        assert np.allclose(got, [0, 0, 1], atol=1e-12)
        assert seq.terminated

    def test_blaschke_anchor(self):
        seq = gamma_from_realization(blaschke_colligation(0.4), 5)
        got = [complex(g[0, 0]) for g in seq.gammas]
        assert np.allclose(got, [0.4, 1.0], atol=1e-12)
        assert seq.terminated

    def test_unitary_feedthrough_terminates_immediately(self, rng):
        # a simple conservative system with unitary D has no state at all
        u = la.haar_unitary(2, rng)
        sys = discrete_system(u, la.zeros(2, 0), la.zeros(0, 2), la.zeros(0, 0))
        seq = gamma_from_realization(sys, 3)
        assert len(seq) == 1 and seq.terminated
        assert np.array_equal(seq.gammas[0], u)
        oracle = schur_oracle(const_function(u), 3).params
        assert len(oracle) == 1 and oracle.terminated

    def test_matches_oracle(self, rng):
        for _ in range(4):
            sys = random_conservative_system(5, 2, rng)
            seq = gamma_from_realization(sys, sys.state_dim + 1)
            oracle = schur_oracle(sys.sampled(), len(seq) - 1)
            assert len(oracle.params) == len(seq)
            for n in range(len(seq)):
                omega = adj(seq.doms[n]) @ oracle.params.doms[n]
                psi = adj(seq.codoms[n]) @ oracle.params.codoms[n]
                aligned = psi @ oracle.params.gammas[n] @ adj(omega)
                assert la.matnorm_diff(seq.gammas[n], aligned) <= 1e-7


class TestFirstIterate:
    def test_square_anchor(self):
        nu, z1, z2 = first_iterate_systems(permutation_colligation())
        assert z2.state_dim == 1
        assert abs(z2.a[0, 0]) <= 1e-12
        for lam in GRID:
            assert abs(z2.transfer(lam)[0, 0] - lam) <= 1e-10
            assert abs(nu.transfer(lam)[0, 0] - lam * lam) <= 1e-10
        for s in (nu, z1, z2):
            assert s.is_simple_conservative()

    def test_blaschke_trivial_states(self):
        nu, z1, z2 = first_iterate_systems(blaschke_colligation(0.4))
        assert z1.state_dim == 0 and z2.state_dim == 0
        for lam in GRID:
            assert abs(z1.transfer(lam)[0, 0] - 1.0) <= 1e-12
            assert abs(nu.transfer(lam)[0, 0] - lam) <= 1e-12

    def test_rejects_unitary_feedthrough(self, rng):
        u = la.haar_unitary(1, rng)
        # conservative simple with unitary D requires trivial state
        sys = discrete_system(u, la.zeros(1, 0), la.zeros(0, 1), la.zeros(0, 0))
        with pytest.raises(UnitaryTheta0):
            first_iterate_systems(sys)


class TestIterateSystems:
    def test_reduces_to_first_pair(self, rng):
        sys = random_conservative_system(4, 2, rng)
        family = iterate_systems(sys, 1)
        _, z1, z2 = first_iterate_systems(sys)
        # tau_1^(0) lives on H(1,0) like zeta_2; tau_1^(1) on H(0,1) like zeta_1
        assert la.matnorm_diff(family[0].colligation(), z2.colligation()) <= 1e-8
        assert la.matnorm_diff(family[1].colligation(), z1.colligation()) <= 1e-8

    def test_square_anchor_first_family(self):
        family = iterate_systems(permutation_colligation(), 1)
        for s in family:
            assert s.state_dim == 1
            for lam in GRID:
                assert abs(s.transfer(lam)[0, 0] - lam) <= 1e-10

    def test_terminated_beyond(self):
        with pytest.raises(Terminated):
            iterate_systems(permutation_colligation(), 2)

    def test_families_conservative_similar(self, rng):
        sys = random_conservative_system(5, 2, rng)
        chain = build_chain(sys)
        for family in chain.families:
            for s in family:
                assert s.is_simple_conservative()
            for k in range(len(family) - 1):
                u = unitarily_similar(family[k], family[k + 1])
                assert u is not None
                assert intertwining_residual(family[k], family[k + 1], u) <= 1e-7


def member_reference(chain, grid=GRID) -> dict:
    """The unitarity, transfer, similarity and pure_char residuals of
    verify_chain, computed member by member from public functions on
    ``grid``; a similarity whose intertwiner does not fit its pair is left
    out, and so is the pure_char of a member without KMX parameters.  A
    member with non-finite blocks is left out, and so are the transfer
    residuals and pure_char of a member with other io dimensions than the
    iterate's, with the pairs either enters."""
    pts = np.asarray(grid)
    seq = chain.params
    tol = chain.source.tol
    oracle = schur_oracle(chain.source.sampled(), len(seq) - 1)
    ref = {}
    for j, family in enumerate(chain.families[: len(oracle.iterates) - 1]):
        n = j + 1
        omega = adj(seq.doms[n]) @ oracle.doms[n]
        psi = adj(seq.codoms[n]) @ oracle.codoms[n]
        aligned = psi @ oracle.iterates[n].on(pts) @ adj(omega)
        value = psi @ oracle.iterates[n](0) @ adj(omega)
        ep = la.defect_of(value, tol).space.basis
        fp = la.defect_of(value, tol, adjoint=True).space.basis
        finite = [np.isfinite(s.colligation()).all() for s in family]
        fits = [ok and (s.out_dim, s.in_dim) == aligned.shape[1:]
                for s, ok in zip(family, finite)]
        for k, s in enumerate(family):
            if finite[k]:
                ref[f"unitarity[{n},{k}]"] = la.unitarity_residual(s.colligation())
            if not fits[k]:
                continue
            ref[f"transfer_oracle[{n},{k}]"] = grid_distance(s.sampled(), aligned, pts)
            try:
                kmx = decompose_kmx(s.block, tol)
            except SchurkitError:
                continue
            phi = char_function(Contraction(adj(s.a), tol))
            ref[f"pure_char[{n},{k}]"] = la.stack_matnorm_diff(
                adj(fp) @ aligned @ ep, adj(fp) @ (kmx.k @ phi.on(pts) @ kmx.m) @ ep)
        for k, (s, t) in enumerate(zip(family, family[1:])):
            if not (fits[k] and fits[k + 1]):
                continue
            ref[f"transfer_across_k[{n},{k}]"] = grid_distance(s.sampled(), t.sampled(), pts)
            u = _lattice_intertwiner(chain, j, k)
            if u.shape == (t.state_dim, s.state_dim):
                ref[f"similarity[{n},{k}]"] = intertwining_residual(s, t, u)
    return ref


def _forms_runs(family) -> bool:
    """Whether verify_chain joins the members of ``family`` into runs."""
    s = family[0]
    return schur_mod._forms_runs(s.state_dim, len(family), s.in_dim * s.out_dim == 1)


def _grid_solves(chain, grid=None):
    """verify_chain's report on ``chain``, and per family n the number of
    members of each 4-D np.linalg.solve it made, in order.  Each such solve
    factors I - lambda A on the grid for a stack of members; the families
    of a correct chain have distinct state dimensions, which tell them
    apart."""
    family_of = {f[0].state_dim: n for n, f in enumerate(chain.families, 1)}
    solves, solve = {n: [] for n in family_of.values()}, np.linalg.solve

    def recording(a, b):
        if a.ndim == 4:
            solves[family_of[a.shape[-1]]].append(a.shape[0])
        return solve(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recording)
        report = verify_chain(chain, grid)
    return report, solves


def _measured(key: str) -> bool:
    """Whether verify_chain measures ``key`` of a family that is one run:
    unitarity and similarity everywhere, transfer_oracle and pure_char at
    the anchor k = 0; the rest are anchor-plus-certificate bounds."""
    kind, detail = key[:-1].split("[")
    return kind in ("unitarity", "similarity") or (
        kind in ("transfer_oracle", "pure_char") and detail.endswith(",0"))


def _direct_sum_with_rotation(s, angle: float):
    """``s`` with a decoupled 1x1 unitary state added: the same transfer
    function and a unitary colligation, on one more state dimension."""
    d = s.state_dim
    a = np.zeros((d + 1, d + 1), dtype=complex)
    a[:d, :d] = s.a
    a[d, d] = np.exp(1j * angle)
    b = np.vstack([s.b, np.zeros((1, s.in_dim))])
    c = np.hstack([s.c, np.zeros((s.out_dim, 1))])
    return discrete_system(s.d, c, b, a)


class TestVerifyChain:
    @pytest.mark.parametrize("state_dim, io_dim, radii", [
        pytest.param(d, io, radii, id=f"{d}-{io}" + ("" if radii is None else "-radius_0.999"))
        for radii in (None, (0.3, 0.9, 0.999))
        for d, io in [(6, 1), (8, 2), (3, 5), (1, 1), (10, 1), (16, 1), (16, 2), (40, 4)]])
    def test_residuals_bound_the_member_by_member_reference(self, state_dim, io_dim, radii):
        # each family that forms runs is one run, whose anchor, member 0, is
        # solved on the grid alone, and every member of any other is solved:
        # what is measured is, bit for bit, what its member gives alone, and
        # every bound lies between that and the threshold of its kind.  At
        # radius 0.999, rho = 1/(1 - 0.999 nu) is about 1e3 for the members of
        # norm 1, and on 12 state dimensions the rounding terms alone take the
        # across-k bounds past 1e-7: such a run solves its other members after
        # its anchor and is measured member by member, and the chain verifies
        grid = GRID if radii is None else disk_grid(radii)
        for seed in range(5):
            chain = _chain(state_dim, io_dim, seed)
            report, solves = _grid_solves(chain, None if radii is None else grid)
            ref = member_reference(chain, grid)
            got = {key: value for key, value in report.residuals.items()
                   if key.startswith(("unitarity[", "transfer_", "similarity[", "pure_char["))}
            assert list(got) == [key for key in got if key in ref] and set(ref) == set(got)
            runs = [n for n, f in enumerate(chain.families, 1) if _forms_runs(f)]
            for n, f in enumerate(chain.families, 1):
                assert solves[n] == [1] or sum(solves[n]) == len(f), (seed, n)
                assert n not in runs or solves[n][0] == 1, (seed, n)
            measured = {n for n in solves if solves[n] != [1] or n not in runs}
            for key, value in got.items():
                if _measured(key) or int(key.split("[")[1].split(",")[0]) in measured:
                    assert value == ref[key], (seed, key)
                else:
                    kind = key.split("[")[0]
                    assert ref[key] <= value <= CHAIN_THRESHOLDS[kind], (seed, key)
            if radii is not None and (state_dim, io_dim, seed) == (16, 2, 1):
                assert report.ok
                caught = measured & set(runs)
                assert min(runs) in caught and caught != set(runs)
                assert min(caught) == 2 and chain.families[1][0].state_dim == 12

    @pytest.mark.parametrize("state_dim, io_dim, seed", [(40, 4, 3), (16, 2, 1)])
    def test_no_member_is_solved_twice(self, state_dim, io_dim, seed):
        # near the unit circle the bounds of a run can fail only after its
        # anchor is solved; the other members are solved then, and the
        # anchor is not solved again
        chain = _chain(state_dim, io_dim, seed)
        report, solves = _grid_solves(chain, disk_grid((0.3, 0.9, 0.999)))
        assert report.ok
        for n, f in enumerate(chain.families, 1):
            assert sum(solves[n]) <= len(f), (n, solves[n])

    def test_ragged_family_is_reported(self):
        # a member on a larger state space cannot stack with its family: it
        # is checked on its own, and only the similarities that pair it fail
        chain = build_chain(random_conservative_system(6, 1, np.random.default_rng(2)))
        family = [list(f) for f in chain.families]
        n, k = 2, 1
        family[n - 1][k] = _direct_sum_with_rotation(family[n - 1][k], 0.7)
        ragged = dataclasses.replace(chain, families=family)
        report = verify_chain(ragged).residuals
        assert report[f"similarity[{n},{k - 1}]"] == float("inf")
        assert report[f"similarity[{n},{k}]"] == float("inf")
        ref = member_reference(ragged)
        as_alone = [f"unitarity[{n},{k}]", f"transfer_oracle[{n},{k}]",
                    f"transfer_across_k[{n},{k - 1}]", f"transfer_across_k[{n},{k}]"]
        for key in as_alone:
            assert report[key] == ref[key]
        assert report[f"pure_char[{n},{k}]"] <= CHAIN_THRESHOLDS["pure_char"]
        own = as_alone + [f"pure_char[{n},{k}]",
                          f"similarity[{n},{k - 1}]", f"similarity[{n},{k}]"]
        base = verify_chain(chain).residuals
        assert list(report) == list(base)
        assert {key: v for key, v in report.items() if key not in own} == {
            key: v for key, v in base.items() if key not in own}

    def test_square_anchor(self):
        report = verify_chain(build_chain(permutation_colligation()))
        assert report.ok
        assert report.max_residual <= 1e-9

    def test_random_haar_colligation(self, rng):
        u = la.haar_unitary(5, rng)
        sys = discrete_system(u[:1, :1], u[:1, 1:], u[1:, :1], u[1:, 1:])
        assert sys.is_simple_conservative()
        report = verify_chain(build_chain(sys))
        assert report.ok
        assert report.max_residual <= 1e-7

    def test_negative_control(self, rng):
        sys = random_conservative_system(4, 2, rng)
        chain = build_chain(sys)
        family = [list(f) for f in chain.families]
        victim = family[0][0]
        corrupted = discrete_system(victim.d, victim.c, victim.b + 1e-3, victim.a)
        family[0][0] = corrupted
        bad_chain = dataclasses.replace(chain, families=family)
        report = verify_chain(bad_chain)
        assert not report.ok
        flagged = {k: v for k, v in report.failures().items()
                   if k.startswith(("transfer_oracle", "unitarity", "similarity"))}
        assert flagged
        assert any(v >= 1e-4 for v in flagged.values())
        assert any(k.startswith("similarity") for k in flagged)

    def test_member_of_wrong_size_is_reported(self, rng):
        sys = random_conservative_system(4, 2, rng)
        chain = build_chain(sys)
        family = [list(f) for f in chain.families]
        family[0][0] = random_conservative_system(5, 2, rng)
        report = verify_chain(dataclasses.replace(chain, families=family))
        assert report.residuals["similarity[1,0]"] == float("inf")
        assert not report.ok

    @pytest.mark.parametrize("state_dim, seed", [(12, 165), (16, 11)])
    def test_last_parameter_forms_no_next_iterate(self, state_dim, seed):
        # the oracle's last parameter leaves the unit ball by rounding, so
        # the iterate after it has no defect to be formed from; no caller
        # needs that iterate, and the correct chain verifies
        sys = random_conservative_system(state_dim, 1, np.random.default_rng(seed))
        chain = build_chain(sys)
        step = len(chain.params) - 1
        oracle = schur_oracle(sys.sampled(), step)
        assert oracle.breakdown is None
        assert len(oracle.params) == len(oracle.iterates) == len(oracle.doms) == step + 1
        report = verify_chain(chain)
        assert f"gamma[{step}]" in report.residuals
        assert report.ok, report.failures()

    def test_solve_count_grows_with_depth_only(self, monkeypatch):
        # each oracle iterate is sampled once per point array, so the
        # solves grow with the chain depth, not depth x members x groups
        # (point by point this chain takes about 26,000 solves, by grid 140)
        chain = build_chain(random_conservative_system(10, 1, np.random.default_rng(1)))
        solve = np.linalg.solve
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        assert verify_chain(chain).ok
        assert len(calls) < 1000

    def test_defect_decompositions_stay_within_budget(self, monkeypatch):
        # each parameter is decomposed once for the chain; pure_char
        # decomposes the member states of a family as one stack, outside
        # defect_of (445 decompositions when every call site decomposed
        # again, 208 with one pure_char decomposition per member, 100 now)
        sys = random_conservative_system(10, 1, np.random.default_rng(1))
        defect_of = la.defect_of
        calls = []

        def counting_defect_of(*args, **kwargs):
            calls.append(1)
            return defect_of(*args, **kwargs)

        monkeypatch.setattr(la, "defect_of", counting_defect_of)
        assert verify_chain(build_chain(sys)).ok
        assert len(calls) < 300

    def test_each_parameter_is_decomposed_once(self, monkeypatch):
        # the choice sequence carries the defect pairs its route computed:
        # validate and the composition of a terminated sequence decompose
        # nothing, choice_sequence decomposes each non-terminal parameter
        # once (20, 40, 40 and 58 calls when each call site decomposed
        # again), and verify_chain only the oracle's: the aligned value at 0
        # of each of the 9 families takes its defect bases without the
        # operators (38 calls when it took both pairs)
        chain = build_chain(random_conservative_system(10, 1, np.random.default_rng(1)))
        seq = chain.params
        assert seq.terminated and len(seq) == 11
        defect_of = la.defect_of
        calls = []

        def counting_defect_of(*args, **kwargs):
            calls.append(1)
            return defect_of(*args, **kwargs)

        monkeypatch.setattr(la, "defect_of", counting_defect_of)

        def count(run) -> int:
            calls.clear()
            run()
            return len(calls)

        assert count(seq.validate) == 0
        assert count(lambda: reconstruct(seq)) == 0
        assert count(lambda: choice_sequence(seq.gammas, terminated=True)) == 20
        assert count(lambda: verify_chain(chain)) == 20

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_inconsistent_sequence_reports_shape(self, scale):
        # a terminal parameter moved off the unitary group (0.5) or past
        # norm 1 (2.0) fails validation: shape is 1, and the only other
        # residual that moves is that parameter's gamma
        chain = build_chain(random_conservative_system(6, 1, np.random.default_rng(1)))
        seq = chain.params
        assert seq.terminated
        bad = dataclasses.replace(seq, gammas=seq.gammas[:-1] + [scale * seq.gammas[-1]])
        report = verify_chain(dataclasses.replace(chain, params=bad)).residuals
        base = verify_chain(chain).residuals
        assert base["shape"] == 0.0 and report["shape"] == 1.0
        moved = {"shape", f"gamma[{len(seq) - 1}]"}
        assert {k: v for k, v in report.items() if k not in moved} == {
            k: v for k, v in base.items() if k not in moved}

    @pytest.mark.parametrize("field, cut", [("doms", 1), ("codoms", 2)])
    def test_sequence_with_missing_bases_reports_shape(self, field, cut):
        # a sequence with fewer bases than parameters is reported, not
        # raised: shape is 1, and the steps without bases are not compared
        chain = build_chain(random_conservative_system(6, 1, np.random.default_rng(1)))
        seq = chain.params
        short = dataclasses.replace(seq, **{field: getattr(seq, field)[:-cut]})
        report = verify_chain(dataclasses.replace(chain, params=short))
        assert report.residuals["shape"] == 1.0
        assert not report.ok
        assert f"gamma[{len(seq) - cut - 1}]" in report.residuals
        assert f"gamma[{len(seq) - cut}]" not in report.residuals

    # (svd, eigvalsh) calls of verify_chain per case: every norm is an
    # eigvalsh, one of them termination_match's, and the SVDs are the
    # oracle's unitary-parameter tests
    # on (6, 2) the families of 3 or more members are runs: one grid
    # distance per family, to the oracle, and none across k
    NORM_KERNEL_CALLS = {(6, 2, 0): (5, 33), (8, 1, 1): (10, 94)}

    @pytest.mark.parametrize("state_dim, io_dim, seed, solves, svds", [
        (6, 2, 0, 15, 54),
        (8, 1, 1, 40, 244),
    ])
    def test_verify_solves_each_member_stack_once(self, monkeypatch, state_dim, io_dim,
                                                  seed, solves, svds):
        # each family's members are factored once per point: the transfer
        # functions and the characteristic functions share one solve, and
        # the state norm takes no kernel call of its own.  ``solves`` and
        # ``svds`` are the counts when both were made per family, every norm
        # was an SVD and the oracle sampled each level's quadrature circle
        # twice, one solve more per level past the source
        chain = build_chain(random_conservative_system(state_dim, io_dim,
                                                       np.random.default_rng(seed)))
        counts = {"solve": 0, "svd": 0, "eigvalsh": 0}
        for name in counts:
            kernel = getattr(np.linalg, name)

            def counting(*args, _name=name, _kernel=kernel, **kwargs):
                counts[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert verify_chain(chain).ok
        families, levels = len(chain.families), len(chain.params) - 1
        svd_calls, eigvalsh_calls = self.NORM_KERNEL_CALLS[state_dim, io_dim, seed]
        assert counts == {"solve": solves - families - levels, "svd": svd_calls,
                          "eigvalsh": eigvalsh_calls}
        assert svd_calls + eigvalsh_calls < svds - families

    @pytest.mark.parametrize("state_dim, io_dim, seed", [(16, 1, 1), (24, 1, 2), (40, 4, 3)])
    def test_one_grid_solve_per_run(self, monkeypatch, state_dim, io_dim, seed):
        # a family of n + 1 members that forms runs is one run: verify_chain
        # factors I - lambda A on the grid for one member, however large the
        # family is; in any other family for every member.
        # The source and each oracle level solve twice, on the circle and at
        # the grid points outside the read-off disk
        chain = _chain(state_dim, io_dim, seed)
        shapes, solve = [], np.linalg.solve

        def recording(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        assert verify_chain(chain).ok
        members = [shape[0] for shape in shapes if len(shape) == 4]
        assert members == [1 if _forms_runs(f) else len(f) for f in chain.families]
        assert 1 in members
        assert len(shapes) - len(members) == 2 * len(chain.params)

    def test_member_with_other_io_dims_is_reported(self):
        # member 0 of family 1 replaced by a system on the same state space
        # with io dims 3 instead of 2: its transfer_oracle, pure_char and
        # similarity are inf, as is the transfer_across_k that pairs it;
        # its unitarity is its own, and no other residual changes
        chain = build_chain(random_conservative_system(4, 2, np.random.default_rng(0)))
        odd = random_conservative_system(2, 3, np.random.default_rng(5))
        family = [list(f) for f in chain.families]
        assert family[0][0].state_dim == odd.state_dim and family[0][0].in_dim == 2
        family[0][0] = odd
        report = verify_chain(dataclasses.replace(chain, families=family)).residuals
        base = verify_chain(chain).residuals
        failed = {"transfer_oracle[1,0]", "pure_char[1,0]", "similarity[1,0]",
                  "transfer_across_k[1,0]"}
        assert {k: v for k, v in report.items() if k in failed} == dict.fromkeys(
            failed, float("inf"))
        assert report["unitarity[1,0]"] == la.unitarity_residual(odd.colligation())
        own = failed | {"unitarity[1,0]"}
        assert list(report) == list(base)
        assert {k: v for k, v in report.items() if k not in own} == {
            k: v for k, v in base.items() if k not in own}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_member_with_non_finite_blocks_is_reported(self, bad):
        # a non-finite entry in member 0 of family 1: LAPACK would not
        # converge on its blocks, so no kernel sees them; its unitarity,
        # transfer_oracle, pure_char, and the transfer_across_k and
        # similarity that pair it are inf, and no other residual changes
        chain = build_chain(random_conservative_system(8, 2, np.random.default_rng(3)))
        family = [list(f) for f in chain.families]
        victim = family[0][0]
        a = victim.a.copy()
        a[0, 0] = bad
        family[0][0] = discrete_system(victim.d, victim.c, victim.b, a)
        report = verify_chain(dataclasses.replace(chain, families=family)).residuals
        base = verify_chain(chain).residuals
        failed = {"unitarity[1,0]", "transfer_oracle[1,0]", "pure_char[1,0]",
                  "transfer_across_k[1,0]", "similarity[1,0]"}
        assert list(report) == list(base)
        assert {k: v for k, v in report.items() if k in failed} == dict.fromkeys(
            failed, float("inf"))
        assert {k: v for k, v in report.items() if k not in failed} == {
            k: v for k, v in base.items() if k not in failed}

    @pytest.mark.parametrize("state_dim, io_dim", [(6, 2), (8, 1), (16, 2)])
    def test_pure_char_matches_kmx_reference(self, monkeypatch, state_dim, io_dim):
        # every measured pure_char residual equals its definition through the
        # KMX parameters of the member's colligation, and every bound lies
        # between that and the threshold; a member scaled by 1.01
        # has a contractive state but no contractive colligation: inf
        sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(1))
        chain = build_chain(sys)
        family = [list(f) for f in chain.families]
        victim = family[-1][0]
        assert 1.01 * la.opnorm(victim.a) < 1
        family[-1][0] = discrete_system(*(1.01 * blk for blk in (victim.d, victim.c,
                                                                  victim.b, victim.a)))
        residual = schur_mod._pure_char_residual
        expected, measured = [], []

        def with_reference(blocks, colligations, links, bases, theta, pts, tol):
            for s in (discrete_system(*member) for member in zip(*blocks)):
                try:
                    kmx = decompose_kmx(s.block, tol)
                    phi = char_function(Contraction(adj(s.a), tol))
                    ep, fp = bases
                    expected.append(la.stack_matnorm_diff(
                        adj(fp) @ theta @ ep, adj(fp) @ (kmx.k @ phi.on(pts) @ kmx.m) @ ep))
                except SchurkitError:
                    expected.append(float("inf"))
            got = residual(blocks, colligations, links, bases, theta, pts, tol)
            # bounds come with a run, whose anchor alone is measured
            measured.extend(np.arange(len(got[1])) < (len(got[1]) if got[2] is None else 1))
            return got

        monkeypatch.setattr(schur_mod, "_pure_char_residual", with_reference)
        report = verify_chain(dataclasses.replace(chain, families=family))
        reported = [v for k, v in report.residuals.items() if k.startswith("pure_char[")]
        assert len(reported) == sum(len(f) for f in family)
        for value, want, solved in zip(reported, expected, measured):
            if solved:
                assert value == want
            else:
                assert want <= value <= CHAIN_THRESHOLDS["pure_char"]
        # a family that forms runs is one run, but for the victim's, which
        # is measured member by member as every other family is
        runs = [_forms_runs(f) for f in family[:-1]] + [False]
        assert measured.count(True) == sum(1 if r else len(f) for r, f in zip(runs, family))
        assert report.residuals[f"pure_char[{len(family)},0]"] == float("inf")
        assert reported.count(float("inf")) == 1

    @pytest.mark.parametrize("tamper", ["shift", "rotate"])
    @pytest.mark.parametrize("state_dim, io_dim, seed, n, k", [(16, 2, 3, 2, 1), (24, 1, 0, 4, 3)])
    def test_tampered_member_is_caught(self, tamper, state_dim, io_dim, seed, n, k):
        # member k >= 1 with 1e-3 added to its B, which takes its colligation
        # past norm 1, so that its family is measured member by member, or
        # with B and A turned by a state rotation of angle 1e-3, which keeps
        # its colligation unitary and its family one run, whose bounds catch
        # it after the anchor is solved: the other members are solved then.
        # The certificates that pair it fail, and so do its transfer residuals
        chain = _chain(state_dim, io_dim, seed)
        family = [list(f) for f in chain.families]
        victim = family[n - 1][k]
        if tamper == "shift":
            b, a = victim.b + 1e-3, victim.a
        else:
            turn = np.ones(victim.state_dim, dtype=complex)
            turn[0] = np.exp(1e-3j)
            b, a = turn[:, None] * victim.b, turn[:, None] * victim.a
        family[n - 1][k] = discrete_system(victim.d, victim.c, b, a)
        tampered = dataclasses.replace(chain, families=family)
        report, solves = _grid_solves(tampered)
        failures = report.failures()
        assert not report.ok
        for key in (f"similarity[{n},{k - 1}]", f"similarity[{n},{k}]",
                    f"transfer_oracle[{n},{k}]", f"transfer_across_k[{n},{k - 1}]",
                    f"transfer_across_k[{n},{k}]"):
            assert key in failures, key
        ref = member_reference(tampered)
        for key in (f"transfer_oracle[{n},{k}]", f"transfer_across_k[{n},{k}]"):
            assert report.residuals[key] >= ref[key]
        assert la.is_unitary(family[n - 1][k].colligation()) == (tamper == "rotate")
        # every other family is solved as in the correct chain
        assert _forms_runs(family[n - 1])
        assert {m: solves[m] for m in solves if m != n} == {
            m: [1] if _forms_runs(f) else [len(f)] for m, f in enumerate(family, 1) if m != n}
        assert sum(solves[n]) == len(family[n - 1])
        assert (solves[n][0] == 1) == (tamper == "rotate")

    def test_indefinite_defect_fails_its_member_alone(self):
        # scaled by 1 + 0.8e-9, a member passes both norm checks at eq_abs,
        # but I - A*A has an eigenvalue near -1.6e-9 < -eq_abs
        chain = build_chain(random_conservative_system(6, 1, np.random.default_rng(1)))
        family = [list(f) for f in chain.families]
        victim = family[1][1]
        family[1][1] = discrete_system(*((1 + 0.8e-9) * blk for blk in (
            victim.d, victim.c, victim.b, victim.a)))
        assert la.opnorm(family[1][1].colligation()) <= 1 + la.DEFAULT_TOL.eq_abs
        report = verify_chain(dataclasses.replace(chain, families=family)).residuals
        base = verify_chain(chain).residuals
        assert report["pure_char[2,1]"] == float("inf")
        assert list(report) == list(base)
        moved = {"unitarity[2,1]", "transfer_oracle[2,1]", "pure_char[2,1]"} | {
            f"{kind}[2,{k}]" for kind in ("transfer_across_k", "similarity") for k in (0, 1)}
        assert {key for key in report if report[key] != base[key]} == moved

    @pytest.mark.parametrize("tamper", ["ragged", "other_io", "non_finite", "indefinite"])
    def test_member_out_of_its_run_measures_its_family(self, tamper):
        # on 20 state dimensions family 4 of a (24,1) chain is one run.
        # Member 2 put on a larger state, given io dims 2, a nan entry or an
        # indefinite defect (scaled by 1 + 0.8e-9) takes the family off its
        # run: member 2 fails as it does on a small state, every member of
        # the family is measured, bit for bit what it gives alone, and no
        # residual of another family moves
        chain = _chain(24, 1, 0)
        n, k = 4, 2
        family = [list(f) for f in chain.families]
        victim = family[n - 1][k]
        assert victim.state_dim == 20 and _forms_runs(family[n - 1])
        pairing = {f"similarity[{n},{k - 1}]", f"similarity[{n},{k}]"}
        unfit = pairing | {f"transfer_oracle[{n},{k}]", f"pure_char[{n},{k}]",
                           f"transfer_across_k[{n},{k - 1}]", f"transfer_across_k[{n},{k}]"}
        if tamper == "ragged":
            member, fails = _direct_sum_with_rotation(victim, 0.7), pairing
        elif tamper == "other_io":
            member = random_conservative_system(20, 2, np.random.default_rng(5))
            fails = unfit
        elif tamper == "non_finite":
            a = victim.a.copy()
            a[0, 0] = np.nan
            member = discrete_system(victim.d, victim.c, victim.b, a)
            fails = unfit | {f"unitarity[{n},{k}]"}
        else:
            member = discrete_system(*((1 + 0.8e-9) * blk for blk in (
                victim.d, victim.c, victim.b, victim.a)))
            fails = {f"pure_char[{n},{k}]"}
        family[n - 1][k] = member
        # the scaled member's unitarity, about 1.6e-9, fails without being inf
        scaled = {f"unitarity[{n},{k}]"} if tamper == "indefinite" else set()
        tampered = dataclasses.replace(chain, families=family)
        report = verify_chain(tampered).residuals
        base = verify_chain(chain).residuals
        assert list(report) == list(base)
        assert set(verify_chain(tampered).failures()) == fails | scaled
        assert all(report[key] == float("inf") for key in fails)
        ref = member_reference(tampered)
        for key, value in report.items():
            if f"[{n}," not in key:
                assert value == base[key], key
            elif key in ref:
                assert value == ref[key], key
            else:  # a residual that no reference gives: one of the victim's
                assert key in fails, key

    @pytest.mark.parametrize("entry", [2.0, np.nan])
    def test_iterate_without_defect_pair_fails_its_family(self, monkeypatch, entry):
        # iterate 1 of the oracle valued at 0 by a matrix of norm 2, or by
        # one with a nan entry: its value at 0 has no defect pair, so every
        # pure_char of family 1 is inf, nothing raises, and no residual of
        # another family moves
        chain = build_chain(random_conservative_system(6, 2, np.random.default_rng(0)))
        assert len(chain.families) >= 2
        oracle = schur_mod.schur_oracle

        def tampered(theta, n_max, tol):
            run = oracle(theta, n_max, tol)
            iterate = run.iterates[1]

            def evaluate(pts):
                values = np.array(iterate.on(pts))
                values[pts == 0] = 0.0
                values[pts == 0, 0, 0] = entry
                return values

            run.iterates[1] = SampledFunction(iterate.in_dim, iterate.out_dim, evaluate)
            return run

        base = verify_chain(chain).residuals
        monkeypatch.setattr(schur_mod, "schur_oracle", tampered)
        report = verify_chain(chain).residuals
        assert list(report) == list(base)
        pure = [v for key, v in report.items() if key.startswith("pure_char[1,")]
        assert pure == [float("inf")] * len(chain.families[0])
        family_one = {key for key in report if "[1," in key}
        assert {key: v for key, v in report.items() if key not in family_one} == {
            key: v for key, v in base.items() if key not in family_one}

    def test_family_at_breakdown_step_is_compared(self, monkeypatch, rng):
        # a breakdown at step 2 leaves iterate 2 formed but without its
        # parameter: family 2 is still compared against it
        chain = build_chain(random_conservative_system(4, 1, rng))
        step = schur_mod.oracle_step
        calls = []

        def fail_at_two(theta, tol, **circle):
            calls.append(theta)
            if len(calls) == 3:
                raise SchurkitError("injected breakdown")
            return step(theta, tol, **circle)

        monkeypatch.setattr(schur_mod, "oracle_step", fail_at_two)
        report = verify_chain(chain)
        assert report.failures() == {"oracle_breakdown[2]": float("inf")}
        assert "gamma[2]" not in report.residuals
        assert "termination_match" not in report.residuals
        assert "transfer_oracle[2,0]" in report.residuals
        assert "pure_char[2,2]" in report.residuals


class TestLatticeCertificate:
    @pytest.mark.parametrize("io_dim", [1, 2, 3])
    def test_agrees_with_search(self, io_dim):
        # the intertwiner of simple systems is unique, so the closed form
        # and the least-squares search must find the same unitary
        thr = CHAIN_THRESHOLDS["similarity"]
        for seed in range(10):
            sys = random_conservative_system(1 + seed % 6, io_dim, np.random.default_rng(seed))
            chain = build_chain(sys)
            for j, family in enumerate(chain.families):
                for k in range(len(family) - 1):
                    u_lat = _lattice_intertwiner(chain, j, k)
                    u_search = unitarily_similar(family[k], family[k + 1])
                    assert u_search is not None
                    assert intertwining_residual(family[k], family[k + 1], u_lat) <= thr
                    assert intertwining_residual(family[k], family[k + 1], u_search) <= thr
                    assert la.matnorm_diff(u_lat, u_search) <= 1e-8

    def test_verify_makes_no_least_squares_solve(self, monkeypatch):
        sys = random_conservative_system(6, 2, np.random.default_rng(5))
        chain = build_chain(sys)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_chain called numpy.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        report = verify_chain(chain)
        assert report.ok
        assert any(k.startswith("similarity[") for k in report.residuals)

    def test_stacked_certificates_equal_per_pair(self):
        # one intertwining_residual call on a family's stacked blocks gives,
        # bit for bit, each pair's own residual, and verify_chain reports it
        chain = build_chain(random_conservative_system(8, 2, np.random.default_rng(3)))
        report = verify_chain(chain).residuals
        for j, family in enumerate(chain.families):
            pairs = range(len(family) - 1)
            us = [_lattice_intertwiner(chain, j, k) for k in pairs]
            per_pair = [intertwining_residual(family[k], family[k + 1], us[k]) for k in pairs]
            blocks = [np.array([getattr(s.block, blk) for s in family]) for blk in "dcba"]
            stacked = intertwining_residual(tuple(x[:-1] for x in blocks),
                                            tuple(x[1:] for x in blocks), np.array(us))
            assert stacked.tolist() == per_pair
            assert [report[f"similarity[{j + 1},{k}]"] for k in pairs] == per_pair

    def test_verify_takes_svds_only_for_unitary_parameters(self, monkeypatch):
        # every norm is an eigvalsh; the SVDs left are the unitary-parameter
        # tests of the oracle and of the sequence's validation
        chain = build_chain(random_conservative_system(40, 4, np.random.default_rng(3)))
        svd, callers = np.linalg.svd, []

        def recording(*args, **kwargs):
            callers.append(inspect.currentframe().f_back.f_code.co_name)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        assert verify_chain(chain).ok
        assert callers == ["is_unitary_parameter"] * 12


class TestTermination:
    def test_chain_strictly_decreasing(self, rng):
        for _ in range(4):
            sys = random_conservative_system(5, 2, rng)
            chain = build_chain(sys)
            dims = [s.dim for s in chain.h_chain]
            assert dims[0] == 5 and dims[-1] == 0
            assert all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))
            assert chain.termination_step <= sys.state_dim
            assert is_unitary_parameter(chain.params.gammas[-1])

    def test_parameter_unitary_iff_kernels_stabilize(self, rng):
        # parameters of the characteristic function of A terminate exactly
        # when the kernel chain of A stops shrinking
        a = random_cnu(4, 2, rng)
        sigma = discrete_system(*_sigma_blocks(a))
        seq = gamma_from_realization(sigma, 6)
        for n, gamma in enumerate(seq.gammas):
            stabilized = la.subspace_eq(
                a.h_subspace(n + 1, 0), a.h_subspace(n, 0)
            )
            adj_stabilized = la.subspace_eq(
                a.h_subspace(0, n + 1), a.h_subspace(0, n)
            )
            assert is_unitary_parameter(gamma) == stabilized
            assert is_unitary_parameter(gamma) == adj_stabilized

    def test_intersections_converge_where_the_svd_did_not(self):
        # the eigh intersection converges where the stacked-projector SVD
        # did not, and the chain verifies with every threshold unchanged
        sys = random_conservative_system(36, 4, np.random.default_rng(3))
        chain = build_chain(sys)
        assert chain.termination_step == 9
        report = verify_chain(chain)
        assert report.ok, report.failures()

    @pytest.mark.parametrize("seed", [31, 118])
    def test_terminal_drift_does_not_hide_termination(self, seed):
        # the terminal parameter drifts about 1.2e-9 from unitary, past the
        # 10 * rank_rel singular-value test; the lattice still terminates
        # at d / io = 12, and verification reports instead of raising
        sys = random_conservative_system(48, 4, np.random.default_rng(seed))
        chain = build_chain(sys)
        assert chain.termination_step == 12
        assert [s.dim for s in chain.h_chain][-1] == 0
        assert isinstance(verify_chain(chain), ChainReport)

    @pytest.mark.parametrize(
        "tol", [la.Tolerance(), la.Tolerance(rank_rel=1e-8, eq_abs=1e-7)],
        ids=["default", "loose"],
    )
    def test_one_state_decomposition_per_build(self, monkeypatch, tol):
        # the input check and the chain read one Contraction of the state,
        # and every rank decision is made at the system's tolerance
        sys = random_conservative_system(6, 2, np.random.default_rng(4), tol)
        init = Contraction.__init__
        states = []

        def counting_init(self, a, *args, **kwargs):
            init(self, a, *args, **kwargs)
            states.append((np.array_equal(la.cmatrix(a), sys.a), self.tol is sys.tol))

        monkeypatch.setattr(Contraction, "__init__", counting_init)
        chain = build_chain(sys)
        assert states == [(True, True)]
        assert chain.families
        assert all(s.tol is sys.tol for family in chain.families for s in family)


    def test_lattice_makes_no_eigendecomposition(self, monkeypatch):
        # the lattice is two block-Arnoldi bases and one SVD per inner
        # entry: the eigh calls left are the classification's two power
        # kernels, the Contraction's own defect pair and the defect pair of
        # each of the 20 non-terminal parameters
        sys = random_conservative_system(40, 2, np.random.default_rng(3))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        chain = build_chain(sys)
        assert chain.termination_step == 20
        assert len(calls) == 44


def _sigma_blocks(a: Contraction):
    u = a.defect_a.basis
    v = a.defect_astar.basis
    return -adj(v) @ a.a @ u, adj(v) @ a.d_astar, a.d_a @ u, adj(a.a)


class TestCharFunctionMoebius:
    def test_parameter_is_char_of_partial_isometry(self, rng):
        # the Moebius parameter of the characteristic function of A is the
        # characteristic function of A compressed through ker D_A
        for _ in range(4):
            a = random_cnu(5, 2, rng)
            z = moebius_parameter(char_function(a))
            ker = a.h_subspace(1, 0)
            cal = Contraction(a.a @ ker.projector())
            psi = char_function(cal)
            theta0 = char_function(a)(0)
            e0 = la.defect_of(theta0).space
            f0 = la.defect_of(theta0, adjoint=True).space
            dom_abs = a.defect_a.basis @ e0.basis
            cod_abs = a.defect_astar.basis @ f0.basis
            om = adj(cal.defect_a.basis) @ dom_abs
            ps = adj(cal.defect_astar.basis) @ cod_abs
            for lam in GRID:
                assert la.matnorm_diff(z(lam), adj(ps) @ psi(lam) @ om) <= 1e-8

    def test_linear_parameter_iff_defect_inclusion(self, rng):
        # strict contraction: full defect spaces, Z = lambda I
        g = random_matrix(rng, 4, 4)
        a = Contraction(0.8 * g / la.opnorm(g))
        assert a.defect_astar.contains(a.defect_a)
        z = moebius_parameter(char_function(a))
        assert max(la.matnorm_diff(z(lam), lam * np.eye(4)) for lam in GRID) <= 1e-10
        # nontrivial kernel: inclusion fails and Z deviates from lambda I
        b = random_cnu(4, 2, rng)
        assert b.h_subspace(1, 0).dim > 0
        assert not b.defect_astar.contains(b.defect_a)
        zb = moebius_parameter(char_function(b))
        dev = max(
            la.matnorm_diff(zb(lam), lam * np.eye(zb.in_dim)) for lam in GRID
        )
        assert dev > 1e-6


class TestPassiveIterateRealizations:
    def test_controllable_observable_complements(self, rng):
        # nu = {[0 G; F D_F* L D_G]} against the compressed realizations on
        # the defect spaces of F* and G: complements of the controllable and
        # observable subspaces match after intersecting with the kernels
        for _ in range(3):
            d = 4
            f = random_matrix(rng, d, 2)
            f *= 0.9 / la.opnorm(f)
            g = random_matrix(rng, 2, d)
            g *= 0.9 / la.opnorm(g)
            dg = la.defect_of(g)
            dfs = la.defect_of(f, adjoint=True)
            l_mat = random_matrix(rng, dfs.space.dim, dg.space.dim)
            l_mat *= 0.9 / la.opnorm(l_mat)
            l_amb = dfs.space.basis @ l_mat @ adj(dg.space.basis)
            nu = discrete_system(la.zeros(2, 2), g, f, dfs.op @ l_amb @ dg.op)
            w1 = dfs.space.basis
            zeta1 = discrete_system(
                g @ f, g @ dfs.op @ w1, adj(w1) @ l_amb @ dg.op @ f,
                adj(w1) @ l_amb @ dg.op @ dfs.op @ w1,
            )
            w2 = dg.space.basis
            zeta2 = discrete_system(
                g @ f, g @ dfs.op @ l_amb @ w2, adj(w2) @ dg.op @ f,
                adj(w2) @ dg.op @ dfs.op @ l_amb @ w2,
            )
            assert nu.is_passive() and zeta1.is_passive() and zeta2.is_passive()
            # transfer agreement: zeta transfer equals nu transfer / lambda
            for lam in [0.3, 0.5j, -0.6]:
                target = nu.transfer(lam) / lam
                assert la.matnorm_diff(zeta1.transfer(lam), target) <= 1e-9
                assert la.matnorm_diff(zeta2.transfer(lam), target) <= 1e-9
            ctrl_nu_perp = nu.controllable_subspace().complement()
            obs_nu_perp = nu.observable_subspace().complement()
            ker_fstar = la.kernel_basis(adj(f))
            ker_g = la.kernel_basis(g)
            z1_perp_amb = _embed(zeta1.controllable_subspace().complement(), w1, d)
            lhs = la.subspace_intersect(z1_perp_amb, ker_fstar)
            assert la.subspace_eq(ctrl_nu_perp, lhs)
            z2_perp_amb = _embed(zeta2.observable_subspace().complement(), w2, d)
            rhs = la.subspace_intersect(z2_perp_amb, ker_g)
            assert la.subspace_eq(obs_nu_perp, rhs)


def _embed(sub: la.Subspace, basis: np.ndarray, ambient: int) -> la.Subspace:
    if sub.dim == 0:
        return la.trivial_space(ambient)
    return la.Subspace(ambient, basis @ sub.basis)
