"""Array evaluation of sampled functions.

One stacked call over a point array must agree with point-by-point calls,
for every constructor of the package, and keep the disk and shape checks.
"""

import numpy as np
import pytest

from schurkit import (
    Contraction,
    SampledFunction,
    char_function,
    defect_functions,
    disk_grid,
    gamma_from_realization,
    random_conservative_system,
    reconstruct,
    schur_oracle,
)
from schurkit.errors import OutsideDisk, ShapeMismatch
from schurkit.linalg import adj

AGREE = 1e-13

# (state_dim, io_dim): scalar chains, matrix chains, more io than state,
# and no state at all
SIZES = [(1, 1), (4, 1), (7, 1), (3, 2), (5, 2), (1, 3), (2, 3), (0, 1), (0, 2)]


def point_arrays(rng):
    """The default grid (0 first), 0 inside a random array, and a random
    array without 0."""
    inner = 0.95 * np.sqrt(rng.uniform(size=9)) * np.exp(2j * np.pi * rng.uniform(size=9))
    return [
        np.array(disk_grid()),
        np.concatenate([inner[:4], [0.0], inner[4:]]),
        inner,
    ]


def functions_of(sys):
    """Every kind of sampled function the package builds from ``sys``."""
    theta = sys.sampled()
    seq = gamma_from_realization(sys, sys.state_dim + 1)
    defects = defect_functions(sys)
    out = {
        "transfer": theta,
        "char_function": char_function(Contraction(adj(sys.a))),
        "reconstruct": reconstruct(seq),
        "defect_phi": defects.phi,
        "defect_psi": defects.psi,
    }
    oracle = schur_oracle(theta, len(seq) - 1)
    assert oracle.breakdown is None
    for n, iterate in enumerate(oracle.iterates):
        out[f"oracle_iterate[{n}]"] = iterate
    return out


@pytest.mark.parametrize("state_dim, io_dim", SIZES)
def test_stack_matches_points(state_dim, io_dim):
    for seed in range(3):
        rng = np.random.default_rng(1000 * state_dim + 10 * io_dim + seed)
        sys = random_conservative_system(state_dim, io_dim, rng)
        for name, f in functions_of(sys).items():
            for pts in point_arrays(rng):
                stack = f.on(pts)
                assert stack.shape == (len(pts), f.out_dim, f.in_dim), name
                for i, lam in enumerate(pts):
                    value = f(lam)
                    assert value.shape == (f.out_dim, f.in_dim), name
                    assert np.max(np.abs(stack[i] - value), initial=0.0) <= AGREE, (name, lam)
                # point calls in between do not disturb a repeated stack
                assert np.array_equal(f.on(pts), stack), name


def test_transfer_accepts_points_and_arrays():
    sys = random_conservative_system(3, 2, np.random.default_rng(3))
    pts = np.array(disk_grid())
    stack = sys.transfer(pts)
    assert stack.shape == (len(pts), 2, 2)
    assert np.array_equal(stack[0], sys.d)
    for i, lam in enumerate(pts):
        assert np.max(np.abs(sys.transfer(lam) - stack[i])) <= AGREE


def test_outside_disk_anywhere_in_the_array():
    sys = random_conservative_system(4, 1, np.random.default_rng(4))
    oracle = schur_oracle(sys.sampled(), 2)
    for f in (sys.sampled(), oracle.iterates[-1], char_function(Contraction(adj(sys.a)))):
        for pts in ([0.0, 0.5, 1.0], [0.2, -1.2j, 0.1], [1.0 + 0.0j], [0.2, np.nan]):
            with pytest.raises(OutsideDisk):
                f.on(pts)
        for lam in (0.6 + 0.8j, np.nan):
            with pytest.raises(OutsideDisk):
                f(lam)


def test_wrong_stack_shape():
    def transposed(pts):
        return np.zeros((len(pts), 1, 2), dtype=complex)

    f = SampledFunction(1, 2, transposed)
    with pytest.raises(ShapeMismatch):
        f.on(np.array(disk_grid()))
    with pytest.raises(ShapeMismatch):
        f(0.3)
    per_point = SampledFunction(1, 1, lambda pts: np.zeros((1, 1), dtype=complex))
    one_point = SampledFunction(1, 1, lambda pts: np.zeros((1, 1, 1), dtype=complex))
    for f in (per_point, one_point):
        with pytest.raises(ShapeMismatch):
            f.on([0.1, 0.2])
    square = SampledFunction(1, 1, lambda pts: np.zeros((len(pts), 1, 1), dtype=complex))
    with pytest.raises(ShapeMismatch):
        square.on(np.zeros((2, 2)))


def test_iterates_sampled_in_order_solve_once_per_level(monkeypatch):
    # each iterate keeps its last stack, so sampling the chain level by
    # level on one grid makes one stacked solve per level, the transfer
    # function (iterate 0, sampled through iterate 1) included
    sys = random_conservative_system(6, 1, np.random.default_rng(6))
    seq = gamma_from_realization(sys, 7)
    oracle = schur_oracle(sys.sampled(), len(seq) - 1)
    solve = np.linalg.solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    pts = np.array(disk_grid())
    for iterate in oracle.iterates[1:]:
        iterate.on(pts)
    assert len(calls) == len(oracle.iterates) == len(seq)
