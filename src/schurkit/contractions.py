"""Defect calculus for a single contraction.

For a square contraction A this module computes defect operators and
subspaces, the kernel lattice H(n, m) = ker D_{A^n} /\\ ker D_{A*^m}, the
compressions A(n, m) of A to those subspaces, the one-step partial
products, and the derived defect-number profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import NotCNU, NotContraction
from .linalg import DEFAULT_TOL, Subspace, Tolerance, adj


@dataclass(frozen=True)
class DefectProfile:
    """Defect numbers of the compression families.

    ``delta[n]`` is the defect number of A(0, n) and ``delta_star[n]`` the
    adjoint defect number of A(n, 0); index 0 holds the defect numbers of A
    itself.  Both sequences are nonincreasing.
    """

    delta: list[int]
    delta_star: list[int]


class Contraction:
    """A square contraction with cached defect data.

    ``defect_data`` and ``defect_data_star`` hold the decompositions of D_A
    and D_A* (operator, pseudo-inverse, defect space and kernel); ``d_a``,
    ``d_astar``, ``defect_a`` and ``defect_astar`` are their operators and
    defect spaces.  Immutable after construction; per-(n, m) subspaces and
    compressions are memoized so that "the stored basis" is a well-defined
    notion.
    """

    def __init__(self, a, tol: Tolerance = DEFAULT_TOL):
        a = la.cmatrix(a)
        if a.shape[0] != a.shape[1]:
            raise NotContraction(f"state matrix of shape {a.shape} is not square")
        if la.opnorm(a) > 1.0 + tol.eq_abs:
            raise NotContraction(f"operator norm {la.opnorm(a):.6f} exceeds 1")
        self.a = a
        self.tol = tol
        self.dim = a.shape[0]
        self.defect_data = la.defect_of(a, tol)
        self.defect_data_star = la.defect_of(a, tol, adjoint=True)
        self.d_a = self.defect_data.op
        self.d_astar = self.defect_data_star.op
        self.defect_a = self.defect_data.space
        self.defect_astar = self.defect_data_star.space
        self._powers: dict[int, np.ndarray] = {0: la.eye(self.dim), 1: a}
        self._h_cache: dict[tuple[int, int], Subspace] = {}

    def power(self, n: int) -> np.ndarray:
        if n not in self._powers:
            self._powers[n] = self._powers[1] @ self.power(n - 1)
        return self._powers[n]

    def power_defect(self, n: int, star: bool = False) -> np.ndarray:
        """D_{A^n}, or D_{A*^n} when ``star`` is set."""
        return la.defect_of(self.power(n), self.tol, adjoint=star).op

    def h_subspace(self, n: int, m: int) -> Subspace:
        """H(n, m), with H(0, 0) the full space.

        H(n, 0) = ker D_{A^n} and H(0, m) = ker D_{A*^m} are the power
        kernels; every other entry intersects those two cached entries.
        """
        if n < 0 or m < 0:
            raise ValueError("indices must be nonnegative")
        key = (n, m)
        if key not in self._h_cache:
            if n == 0 and m == 0:
                space = la.full_space(self.dim)
            elif m == 0:
                space = la.defect_of(self.power(n), self.tol).kernel
            elif n == 0:
                space = la.defect_of(self.power(m), self.tol, adjoint=True).kernel
            else:
                space = la.subspace_intersect(
                    self.h_subspace(n, 0), self.h_subspace(0, m), self.tol
                )
            self._h_cache[key] = space
        return self._h_cache[key]

    def compress(self, n: int, m: int) -> np.ndarray:
        """Matrix of P(n, m) A restricted to H(n, m) in the stored basis."""
        w = self.h_subspace(n, m).basis
        return adj(w) @ self.a @ w

    def partial_product(self, n: int, m: int) -> np.ndarray:
        """Matrix of A(n, m) P(n+1, m) on H(n, m) in the stored basis."""
        w = self.h_subspace(n, m).basis
        q = self.h_subspace(n + 1, m).basis
        return adj(w) @ self.a @ q @ adj(q) @ w

    def is_cnu(self) -> bool:
        """No nontrivial reducing subspace on which A acts unitarily.

        Tests whether the columns of {A*^n D_A, A^m D_A*} for n, m < dim
        span the whole space; higher powers are redundant by
        Cayley-Hamilton.
        """
        if self.dim == 0:
            return True
        cols = []
        for k in range(self.dim):
            cols.append(adj(self.power(k)) @ self.d_a)
            cols.append(self.power(k) @ self.d_astar)
        stacked = np.hstack(cols)
        return la.range_basis(stacked, self.tol).dim == self.dim

    def canonical_split(self) -> tuple[Subspace, Subspace]:
        """(H0, H1): completely non-unitary part and unitary part.

        H1 is the intersection of all ker D_{A^n} /\\ ker D_{A*^n}; the
        kernel chains are nested, so depth dim suffices.
        """
        if self.dim == 0:
            return la.trivial_space(0), la.trivial_space(0)
        h1 = self.h_subspace(self.dim, self.dim)
        h0 = h1.complement(self.tol)
        return h0, h1

    def defect_profile(self, n_max: int) -> DefectProfile:
        """Defect numbers of A(0, n) and adjoint defect numbers of A(n, 0)."""
        if not self.is_cnu():
            raise NotCNU("defect profile requires a completely non-unitary contraction")
        delta = [self.defect_a.dim]
        delta_star = [self.defect_astar.dim]
        for n in range(1, n_max + 1):
            delta.append(la.defect_of(self.compress(0, n), self.tol).space.dim)
            delta_star.append(
                la.defect_of(self.compress(n, 0), self.tol, adjoint=True).space.dim
            )
        return DefectProfile(delta, delta_star)

    def is_c00(self) -> bool:
        """Strong convergence of both power sequences to zero.

        At finite dimension a completely non-unitary contraction has
        spectral radius below 1, so a radius test decides the class.
        """
        if not self.is_cnu():
            raise NotCNU("class test requires a completely non-unitary contraction")
        if self.dim == 0:
            return True
        radius = float(np.max(np.abs(np.linalg.eigvals(self.a))))
        return radius < 1.0 - self.tol.rank_rel
