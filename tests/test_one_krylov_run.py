"""A conservative system's Krylov spaces come from one block-Arnoldi run per
side, owned by its state's lattice.

The classification of a conservative system reads the leading columns of
the two bases of its state's :class:`Contraction`, the chain and the defect
functions read the same state, and a short side is completed to a unitary
only by the lattice entry that needs it.
"""

import numpy as np
import pytest

import schurkit.linalg as la
from schurkit import (
    Contraction,
    build_chain,
    defect_functions,
    discrete_system,
    first_iterate_systems,
    random_conservative_system,
    serialize,
)
from schurkit.cli import main
from schurkit.errors import RankInconsistency
from schurkit.linalg import adj


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    fn, calls = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def _cli(verb):
    def run(sys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(serialize.dumps(serialize.system_to_json(sys)))
        assert main([verb, "--input", str(path), "--output", str(tmp_path / "out")]) == 0
    return run


@pytest.mark.parametrize("construction", [
    lambda sys, _: build_chain(sys),
    lambda sys, _: defect_functions(sys),
    lambda sys, _: first_iterate_systems(sys),
    _cli("analyze"),
    _cli("verify"),
], ids=["build_chain", "defect_functions", "first_iterate_systems", "analyze", "verify"])
@pytest.mark.parametrize("state_dim, io_dim", [(8, 1), (16, 2)])
def test_one_arnoldi_per_side(monkeypatch, tmp_path, construction, state_dim, io_dim):
    sys = random_conservative_system(state_dim, io_dim, np.random.default_rng(1))
    calls = _counting(monkeypatch, la, "block_arnoldi")
    construction(sys, tmp_path)
    assert len(calls) == 2


def test_nothing_is_cached_across_calls(monkeypatch):
    # a second build_chain on the same system object redoes all its work
    sys = random_conservative_system(16, 2, np.random.default_rng(3))
    kernels = ("svd", "eigh", "eigvalsh", "solve", "block_arnoldi")
    counts = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            calls = {name: _counting(patch, np.linalg, name) for name in kernels[:-1]}
            calls["block_arnoldi"] = _counting(patch, la, "block_arnoldi")
            build_chain(sys)
        counts.append({name: len(c) for name, c in calls.items()})
    assert counts[0] == counts[1]
    assert counts[0]["block_arnoldi"] == 2


def _unitary_summand():
    """A (20, 1) conservative system: a simple (10, 1) colligation next to
    an uncoupled 10 x 10 Haar unitary."""
    rng = np.random.default_rng(4)
    base = random_conservative_system(10, 1, rng)
    a = np.block([[base.a, la.zeros(10, 10)], [la.zeros(10, 10), la.haar_unitary(10, rng)]])
    return discrete_system(base.d, np.hstack([base.c, la.zeros(1, 10)]),
                           np.vstack([base.b, la.zeros(10, 1)]), a)


def _uncoupled_contraction():
    """A non-conservative system with B = 0 and C = 0."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return discrete_system([[0.5]], la.zeros(1, 6), la.zeros(6, 1), 0.9 * a / la.opnorm(a))


@pytest.mark.parametrize("make, unitary_dim", [(_unitary_summand, 10),
                                               (_uncoupled_contraction, 0)])
def test_classify_completes_no_basis(monkeypatch, make, unitary_dim):
    # short Krylov spaces: the classification reads their columns alone,
    # and the lattice completes a side only for an entry that needs it
    sys = make()
    calls = _counting(monkeypatch, la, "kernel_basis")
    cls = sys.classify()
    assert len(calls) == 0
    assert not cls.controllable and not cls.observable and not cls.simple
    h0, h1 = Contraction(sys.a, sys.tol).canonical_split()
    assert (h0.dim, h1.dim) == (sys.state_dim - unitary_dim, unitary_dim)
    if unitary_dim:
        summand = la.eye(sys.state_dim)[:, -unitary_dim:]
        assert la.matnorm_diff(h1.projector(), summand @ adj(summand)) <= 1e-9


def _cut_edge(eps):
    """Julia operator of diag(1 - eps, 0.5), its state padded with I_4 and
    mixed by a Haar unitary on the padded coordinates and the state
    coordinate that the 1 - eps input direction feeds, with weight
    sqrt(1 - (1 - eps)^2)."""
    gamma = np.diag([1 - eps, 0.5]).astype(complex)
    defect = np.diag(np.sqrt(1 - np.diag(gamma).real ** 2)).astype(complex)
    c = np.hstack([defect, la.zeros(2, 4)])
    b = np.vstack([defect, la.zeros(4, 2)])
    a = np.block([[-adj(gamma), la.zeros(2, 4)], [la.zeros(4, 2), la.eye(4)]])
    mix = la.eye(6)
    fed = [0, 2, 3, 4, 5]
    mix[np.ix_(fed, fed)] = la.haar_unitary(5, np.random.default_rng(0))
    return discrete_system(gamma, c @ mix, b, a @ mix)


def test_cut_edge_direction_raises():
    # 2 eps = 2e-9 passes the squared-scale cut of ran D_A*, but the power
    # kernel of A^6 drops the direction it feeds
    sys = _cut_edge(1e-9)
    assert sys.is_conservative()
    with pytest.raises(RankInconsistency):
        sys.classify()


@pytest.mark.parametrize("eps", [1e-11, 1e-12, 1e-13])
def test_cut_edge_direction_is_cut_once(eps):
    # 2 eps falls below the squared-scale cut: K(A, B) loses the direction
    # on the lattice's defect cut, as does the power kernel
    sys = _cut_edge(eps)
    cls = sys.classify()
    assert cls.conservative and not cls.simple
