"""Correctness checks on a Schur chain, computed apart from schurkit.

Everything here uses plain numpy on the chain's matrices; nothing calls
into the package under test.  A chain is described by :class:`ChainData`,
which can be filled from a ``build_chain`` result or from the JSON that the
command line prints.

Checks (thresholds in :data:`THRESHOLDS`):

1. ``unitarity``: every iterate colligation [D C; B A] is unitary.
2. ``family``: all realizations in family n share one transfer function.
3. ``recursion``: consecutive iterates satisfy the paper's relation
   Theta_n = Gamma_n + lam D_{Gamma*_n} Theta_{n+1} (I + lam Gamma*_n
   Theta_{n+1})^{-1} D_{Gamma_n}, starting from Theta_0 = D + lam C (I - lam
   A)^{-1} B of the source and ending at Theta_N = Gamma_N; ``bases``
   checks that the recorded defect bases span the defect spaces.
4. ``schur_moduli``: for scalar functions, |Gamma_n| equals the moduli of
   the classical Schur algorithm run on Taylor coefficients in series
   arithmetic, where division by lambda is an exact shift.
5. ``structure``: the H-chain dimensions strictly decrease, every
   parameter is a contraction, and a terminated chain ends within
   ``state_dim`` steps with a unitary parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

THRESHOLDS = {
    "unitarity": 1e-9,
    "family": 1e-7,
    "recursion": 1e-7,
    "bases": 1e-9,
    "schur_moduli": 1e-9,
    "structure": 0.5,
}


def check_grid() -> np.ndarray:
    """Points inside the disk, off the program's default grid: 0 and
    three circles of seven points each."""
    angles = 0.3 + 2.0 * np.pi * np.arange(7) / 7
    rings = [r * np.exp(1j * angles) for r in (0.25, 0.5, 0.75)]
    return np.concatenate([[0.0 + 0.0j], *rings])


@dataclass(frozen=True)
class Colligation:
    """The blocks of a system [D C; B A]."""

    d: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.block([[self.d, self.c], [self.b, self.a]])

    def transfer(self, grid: np.ndarray) -> np.ndarray:
        """Stack of D + lam C (I - lam A)^{-1} B over the grid."""
        k = self.a.shape[0]
        out = np.broadcast_to(self.d, (len(grid),) + self.d.shape).copy()
        if k == 0:
            return out
        pencil = np.eye(k) - grid[:, None, None] * self.a
        return out + grid[:, None, None] * (self.c @ np.linalg.solve(pencil, self.b))

    def taylor(self, count: int) -> list[np.ndarray]:
        """The first ``count`` Taylor coefficients D, CB, CAB, ..., in
        extended precision where the platform has it."""
        d, c, b, a = (m.astype(np.clongdouble) for m in (self.d, self.c, self.b, self.a))
        coeffs = [d]
        col = b
        for _ in range(count - 1):
            coeffs.append(c @ col)
            col = a @ col
        return coeffs


@dataclass(frozen=True)
class ChainData:
    """A chain as plain matrices.

    ``families[j]`` realizes iterate j+1.  ``doms``/``codoms`` are the
    recorded absolute defect bases; they are None when the source (the
    command-line output) does not carry them, and then check 3 is skipped.
    """

    source: Colligation
    gammas: list[np.ndarray]
    h_dims: list[int]
    families: list[list[Colligation]]
    terminated: bool
    doms: list[np.ndarray] | None = None
    codoms: list[np.ndarray] | None = None

    @classmethod
    def from_chain(cls, chain) -> "ChainData":
        """Read the matrices off a schurkit ``SchurChain``."""

        def blocks(s):
            return Colligation(s.d, s.c, s.b, s.a)

        return cls(
            source=blocks(chain.source),
            gammas=list(chain.params.gammas),
            h_dims=[s.dim for s in chain.h_chain],
            families=[[blocks(s) for s in family] for family in chain.families],
            terminated=chain.params.terminated,
            doms=list(chain.params.doms),
            codoms=list(chain.params.codoms),
        )


@dataclass
class CheckReport:
    """Worst residual per check; ``ok`` when each is within its threshold."""

    residuals: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, value: float):
        self.residuals[name] = max(self.residuals.get(name, 0.0), float(value))

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in self.residuals.items() if not v <= THRESHOLDS[k]}

    @property
    def ok(self) -> bool:
        return not self.failures()


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _stack_norm(m: np.ndarray) -> float:
    """Largest spectral norm over a stack of matrices."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.linalg.svd(m, compute_uv=False)))


def defect_root(g: np.ndarray, adjoint: bool = False):
    """(I - G*G)^{1/2}, or (I - GG*)^{1/2}, by eigendecomposition, with an
    orthonormal basis of its kernel (squared defect at most 1e-10)."""
    h = g @ g.conj().T if adjoint else g.conj().T @ g
    h = np.eye(h.shape[0]) - (h + h.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T, v[:, w <= 1e-10]


def unitarity_residual(t: np.ndarray) -> float:
    return max(_norm(t.conj().T @ t - np.eye(t.shape[1])),
               _norm(t @ t.conj().T - np.eye(t.shape[0])))


def classical_schur(coeffs: list[complex], steps: int) -> list[complex]:
    """Scalar Schur algorithm on a truncated Taylor series.

    f_{n+1} = (f_n - g_n) / (lam (1 - conj(g_n) f_n)) with g_n = f_n(0);
    division by lam drops the constant term, so each step costs one
    coefficient.  Runs in extended precision where the platform has it,
    so that the reference's own rounding, amplified by 1/(1 - |g_n|^2) at
    every step, stays well below the threshold it is compared against.
    Stops after ``steps`` parameters or at a parameter of modulus one.
    """
    f = np.asarray(coeffs, dtype=np.clongdouble)
    params: list[complex] = []
    while len(params) < steps and f.size:
        g = f[0]
        params.append(complex(g))
        if abs(g) >= 1.0 - 1e-9 or f.size == 1:
            break
        num = f[1:]
        den = -np.conj(g) * f[: f.size - 1]
        den[0] += 1.0
        q = np.zeros_like(num)
        for k in range(num.size):
            q[k] = (num[k] - den[1: k + 1] @ q[:k][::-1]) / den[0]
        f = q
    return params


def _check_recursion(chain: ChainData, grid: np.ndarray, report: CheckReport):
    n_last = len(chain.gammas) - 1
    theta = chain.source.transfer(grid)
    for n in range(n_last):
        g = chain.gammas[n]
        if n + 1 <= len(chain.families):
            nxt = chain.families[n][0].transfer(grid)
        elif chain.terminated and n + 1 == n_last:
            nxt = np.broadcast_to(chain.gammas[n_last], (len(grid),) + chain.gammas[n_last].shape)
        else:
            report.record("recursion", np.inf)
            return
        e = chain.doms[n].conj().T @ chain.doms[n + 1]
        f = chain.codoms[n].conj().T @ chain.codoms[n + 1]
        (dg, ker), (dgs, ker_s) = defect_root(g), defect_root(g, adjoint=True)
        # The bases must be orthonormal and span exactly ran D_G and ran D_G*
        # (compared on the squared defect, which rounding does not amplify).
        for basis, root, kernel in ((e, dg, ker), (f, dgs, ker_s)):
            square = root @ root
            report.record("bases", max(
                _norm(basis.conj().T @ basis - np.eye(basis.shape[1])),
                _norm(square - basis @ (basis.conj().T @ square)),
                _norm(kernel.conj().T @ basis),
            ))
        t = f @ nxt @ e.conj().T
        lam = grid[:, None, None]
        pencil = np.eye(g.shape[1]) + lam * (g.conj().T @ t)
        rebuilt = g + lam * (dgs @ t @ np.linalg.solve(pencil, dg))
        report.record("recursion", _stack_norm(theta - rebuilt))
        theta = nxt


def check_chain(chain: ChainData, require_terminated: bool = True) -> CheckReport:
    """Run checks 1-5 on :func:`check_grid` (3 only when the chain carries
    its bases, 4 only for scalar functions)."""
    grid = check_grid()
    report = CheckReport()
    for name in ("unitarity", "family", "structure"):
        report.record(name, 0.0)

    # 1 and 2: each colligation is unitary; a family shares one transfer.
    for family in chain.families:
        reference = family[0].transfer(grid)
        for member in family:
            report.record("unitarity", unitarity_residual(member.matrix()))
            report.record("family", _stack_norm(member.transfer(grid) - reference))

    # 3: the paper's relation between consecutive iterates.
    if chain.doms is not None:
        report.record("bases", 0.0)
        _check_recursion(chain, grid, report)

    # 4: scalar moduli against the classical Schur algorithm.
    src = chain.source
    if src.d.shape == (1, 1):
        steps = len(chain.gammas)
        classical = classical_schur([c[0, 0] for c in src.taylor(steps)], steps)
        if len(classical) != steps:
            report.record("schur_moduli", np.inf)
        else:
            report.record("schur_moduli", max(
                abs(abs(c) - abs(g[0, 0])) if g.shape == (1, 1) else np.inf
                for c, g in zip(classical, chain.gammas)
            ))

    # 5: bookkeeping of the H-chain and termination.
    dims = chain.h_dims
    bad = any(a <= b for a, b in zip(dims, dims[1:]))
    bad |= any(_norm(g) > 1.0 + 1e-9 for g in chain.gammas)
    if chain.terminated:
        last = chain.gammas[-1]
        sv = np.linalg.svd(last, compute_uv=False) if last.size else np.zeros(0)
        bad |= len(chain.gammas) - 1 > src.a.shape[0]
        bad |= last.shape[0] != last.shape[1] or bool(np.any(np.abs(sv - 1.0) > 1e-8))
    elif require_terminated:
        bad = True
    report.record("structure", 1.0 if bad else 0.0)
    return report
