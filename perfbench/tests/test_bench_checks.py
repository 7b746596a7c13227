"""The benchmark's correctness checks accept real chains and reject broken
ones.  Run with ``python -m pytest perfbench/tests`` from the repository
root."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import schurkit as sk  # noqa: E402
from checks import ChainData, Colligation, check_chain, classical_schur, unitarity_residual  # noqa: E402


def chain_of(d, io, seed):
    system = sk.random_conservative_system(d, io, np.random.default_rng(seed))
    return ChainData.from_chain(sk.build_chain(system))


def schur_realization(params):
    """Conservative realization of the scalar function whose Schur
    parameters are ``params`` (the last one unimodular).

    Runs the inverse Schur step Theta_n = (g + w) / (1 + conj(g) w) with
    w = lam Theta_{n+1}: a delay in front of the realization of Theta_{n+1},
    closed by the unitary loop [[g, s], [s, -conj(g)]], s = (1 - |g|^2)^(1/2).
    """
    d, c, b, a = (np.array([[params[-1]]], dtype=complex), np.zeros((1, 0)),
                  np.zeros((0, 1)), np.zeros((0, 0)))
    for g in reversed(params[:-1]):
        k = a.shape[0]
        aw = np.block([[np.zeros((1, 1)), np.zeros((1, k))], [b, a]])
        bw = np.vstack([np.ones((1, 1)), np.zeros((k, 1))])
        cw = np.hstack([d, c])
        s = np.sqrt(1.0 - abs(g) ** 2)
        d, c, b, a = np.array([[g]], dtype=complex), s * cw, s * bw, aw - np.conj(g) * bw @ cw
    return Colligation(d, c, b, a)


BLASCHKE_PARAMS = [0.3, -0.5j, 0.2 + 0.4j, -0.6, 0.1, np.exp(0.7j)]


@pytest.mark.parametrize("d, io, seed", [(6, 1, 3), (8, 1, 7), (8, 2, 5), (5, 3, 1), (9, 4, 2)])
def test_accepts_todays_chains(d, io, seed):
    report = check_chain(chain_of(d, io, seed))
    assert report.ok, report.failures()
    assert "recursion" in report.residuals
    assert ("schur_moduli" in report.residuals) == (io == 1)


@pytest.mark.parametrize("d, io", [(6, 1), (8, 2)])
def test_rejects_scaled_parameter(d, io):
    chain = chain_of(d, io, 3)
    gammas = list(chain.gammas)
    gammas[2] = 1.001 * gammas[2]
    failures = check_chain(replace(chain, gammas=gammas)).failures()
    assert "recursion" in failures
    if io == 1:
        assert "schur_moduli" in failures


@pytest.mark.parametrize("d, io", [(6, 1), (8, 2)])
def test_rejects_perturbed_state_block(d, io):
    chain = chain_of(d, io, 3)
    families = [list(f) for f in chain.families]
    member = families[1][1]
    a = member.a.copy()
    a[0, 0] += 1e-6
    families[1][1] = replace(member, a=a)
    failures = check_chain(replace(chain, families=families)).failures()
    assert "unitarity" in failures


def test_rejects_unterminated_or_growing_chain():
    chain = chain_of(6, 1, 3)
    assert "structure" in check_chain(replace(chain, terminated=False)).failures()
    dims = list(chain.h_dims)
    dims[2] = dims[1]
    assert "structure" in check_chain(replace(chain, h_dims=dims)).failures()


def test_recovers_blaschke_parameters():
    source = schur_realization(BLASCHKE_PARAMS)
    assert unitarity_residual(source.matrix()) < 1e-12
    steps = len(BLASCHKE_PARAMS)
    classical = classical_schur([c[0, 0] for c in source.taylor(steps)], steps)
    np.testing.assert_allclose(classical, BLASCHKE_PARAMS, atol=1e-12)

    system = sk.discrete_system(source.d, source.c, source.b, source.a)
    chain = ChainData.from_chain(sk.build_chain(system))
    report = check_chain(chain)
    assert report.ok, report.failures()
    got = [g[0, 0] for g in chain.gammas]
    np.testing.assert_allclose(np.abs(got), np.abs(BLASCHKE_PARAMS), atol=1e-10)
