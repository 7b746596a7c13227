"""Defect calculus for a single contraction.

For a square contraction A this module computes defect operators and
subspaces, the kernel lattice H(n, m) = ker D_{A^n} /\\ ker D_{A*^m}, the
compressions A(n, m) of A to those subspaces, the one-step partial
products, and the derived defect-number profile.

The lattice needs no power of A: I - A*^n A^n telescopes to
sum_{j<n} A*^j D_A^2 A^j, so ker D_{A^n} is the orthocomplement of the
block Krylov space K_n(A*, ran D_A), and ker D_{A*^m} that of
K_m(A, ran D_A*).  One block-Arnoldi basis per side gives every edge entry
as a column slice of that basis completed to a unitary, and each inner
entry is one step from its neighbour.  In a conservative colligation
ran D_A* = ran B and ran D_A = ran C*, so the same two bases span the
controllable and observable spaces that classify a system.
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


# (basis, dims) of a block Krylov basis, as block_arnoldi returns it
_Krylov = tuple[np.ndarray, list[int]]


class Contraction:
    """A square contraction with cached defect data.

    ``defect_data`` and ``defect_data_star`` hold the decompositions of D_A
    and D_A* (operator, pseudo-inverse, defect space and kernel); ``d_a``,
    ``d_astar``, ``defect_a`` and ``defect_astar`` are their operators and
    defect spaces.  Immutable after construction; per-(n, m) subspaces and
    compressions are memoized so that "the stored basis" is a well-defined
    notion.  The first lattice request builds two block-Arnoldi bases, one
    of K(A*, ran D_A) (the observability side) and one of K(A, ran D_A*)
    (the controllability side); a Contraction that never asks for the
    lattice does not build them.  A side whose Krylov space is not the
    whole space is completed to a unitary once, by the first edge entry
    that reads it.  A conservative system's classification reads the same
    two bases (:func:`~schurkit.systems.conservative_state`).
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
        self._krylov: list[_Krylov] | None = None

    def power(self, n: int) -> np.ndarray:
        """A^n; each missing power from the highest cached one up, as
        A @ A^{k-1}, in a loop: a first high power costs no stack depth."""
        for k in range(len(self._powers), n + 1):
            self._powers[k] = self._powers[1] @ self._powers[k - 1]
        return self._powers[n]

    def power_defect(self, n: int, star: bool = False) -> np.ndarray:
        """D_{A^n}, or D_{A*^n} when ``star`` is set."""
        return la.defect_of(self.power(n), self.tol, adjoint=star).op

    def h_subspace(self, n: int, m: int) -> Subspace:
        """H(n, m), with H(0, 0) the full space.

        H(n, 0) = K_n(A*, ran D_A)^perp is the completed observability basis
        past its first dim K_n columns, and H(0, m) the same slice of the
        completed controllability basis; both are stored as contiguous
        copies.  An inner entry is H(n, m-1) /\\ (ran Q_m)^perp, with Q_m the
        m-th controllability block: one SVD of W* Q_m for the basis W of
        H(n, m-1) (:func:`~schurkit.linalg.intersect_perp`), made in a loop from
        H(n, 0) up, not a recursion: a first H(d, d) costs no stack depth.
        """
        if n < 0 or m < 0:
            raise ValueError("indices must be nonnegative")
        if (n, m) not in self._h_cache:
            if n == 0 and m == 0:
                self._h_cache[n, m] = la.full_space(self.dim)
            elif n == 0 or m == 0:
                basis, dims = self._completed(0 if m == 0 else 1)
                cut = dims[min(n + m, len(dims) - 1)]
                self._h_cache[n, m] = Subspace(self.dim, np.ascontiguousarray(basis[:, cut:]))
            else:
                space = self.h_subspace(n, 0)
                basis, dims = self._bases()[1]
                for j in range(1, m + 1):
                    if (n, j) not in self._h_cache:
                        block = basis[:, dims[j - 1]:dims[j]] if j < len(dims) else basis[:, :0]
                        self._h_cache[n, j] = la.intersect_perp(space, block, self.tol)
                    space = self._h_cache[n, j]
        return self._h_cache[n, m]

    def _bases(self) -> list[_Krylov]:
        """The (basis, dims) pairs of :func:`~schurkit.linalg.block_arnoldi`
        for K(A*, ran D_A) and K(A, ran D_A*), built on first use: the
        leading ``dims[-1]`` columns of each basis span the Krylov space,
        and a side that :meth:`_completed` completed has d columns."""
        if self._krylov is None:
            self._krylov = [la.block_arnoldi(adj(self.a), self.defect_a.basis, self.tol),
                            la.block_arnoldi(self.a, self.defect_astar.basis, self.tol)]
        return self._krylov

    def _completed(self, side: int) -> _Krylov:
        """Side 0 (observability) or 1 (controllability) of :meth:`_bases`,
        completed to a unitary in place on first use by the complement of a
        Krylov space that is not the whole space.  The completed basis is
        column-major like the Arnoldi's, so its blocks keep their layout."""
        basis, dims = self._bases()[side]
        if basis.shape[1] < self.dim:
            full = np.empty((self.dim, self.dim), dtype=complex, order="F")
            full[:, :dims[-1]] = basis
            full[:, dims[-1]:] = Subspace(self.dim, basis).complement(self.tol).basis
            self._krylov[side] = full, dims
        return self._krylov[side]

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

        That subspace is H(dim, dim): the kernel chains are nested, so
        depth dim suffices.
        """
        return self.h_subspace(self.dim, self.dim).dim == 0

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
