"""Discrete-time linear systems and their transfer functions.

A system tau = {[D C; B A]; input, output, state} evolves

    h_{k+1} = A h_k + B xi_k,      sigma_k = C h_k + D xi_k,

and is passive / isometric / co-isometric / conservative according to the
class of its colligation matrix [D C; B A].  This module evaluates transfer
functions on arrays of points of the open unit disk, runs the time-domain
recursion, decides controllability / observability / simplicity, builds the
characteristic colligation of a contraction, whose transfer function is its
characteristic function, computes the defect functions of a simple
conservative system, and searches for state-space unitary similarities.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg as la
from .blockparam import BlockMatrix
from .contractions import Contraction
from .errors import (
    DimMismatch,
    NotSimpleConservative,
    OutsideDisk,
    RankInconsistency,
    ShapeMismatch,
)
from .linalg import DEFAULT_TOL, Subspace, Tolerance, adj


_DISK_RADII = (0.3, 0.6, 0.9)  # the default grid's radii, shared with the command line


def disk_grid(radii: Sequence[float] = _DISK_RADII) -> list[complex]:
    """Deterministic sampling grid inside the unit disk: the origin and 8
    equispaced points on each radius (25 points by default)."""
    pts: list[complex] = [0j]
    for r in radii:
        for k in range(8):
            pts.append(r * np.exp(2j * np.pi * k / 8))
    return pts


@dataclass(frozen=True)
class SampledFunction:
    """A matrix-valued function on the open unit disk.

    ``eval_fn`` maps a 1-D array of P points to the (P, out_dim, in_dim)
    stack of values; it may return a read-only view.  ``circle_fn``, when
    set, maps the oracle's circle, N points r e^{2 pi i j/N}, to their
    (N, out_dim, in_dim) stack of values, or to None when it cannot give
    them; the oracle's circle is then sampled through it instead of
    ``eval_fn`` (see :meth:`_on_circle`).  :meth:`DiscreteSystem.sampled`
    sets it to the DFT of the system's Markov coefficients, which gives
    None, and so leaves the circle to the solve, on a non-finite block or
    r||A|| >= 1 (see :func:`_circle_stack`).
    """

    in_dim: int
    out_dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    circle_fn: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None

    def on(self, pts) -> np.ndarray:
        """Values at a 1-D array of points as a (P, out_dim, in_dim) stack."""
        pts = self._points(pts)
        return self._checked(self.eval_fn(pts), len(pts))

    def _on_circle(self, points) -> np.ndarray:
        """Values at the oracle's circle ``points``, the N nodes r
        e^{2 pi i j/N}, j < N, as rounded to doubles: from ``circle_fn`` when
        it is set and gives them, otherwise as :meth:`on` gives them."""
        points = self._points(points)
        values = None if self.circle_fn is None else self.circle_fn(points)
        return self._checked(self.eval_fn(points) if values is None else values, len(points))

    @staticmethod
    def _points(pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 1:
            raise ShapeMismatch(f"points must form a 1-D array, got shape {pts.shape}")
        radius = float(np.max(np.abs(pts), initial=0.0))
        if not radius < 1.0:  # a NaN point fails this test too
            raise OutsideDisk(f"|lambda| = {radius:.6f} is not below 1")
        return pts

    def _checked(self, values, count: int) -> np.ndarray:
        values = np.asarray(values, dtype=complex)
        want = (count, self.out_dim, self.in_dim)
        if values.shape != want:
            raise ShapeMismatch(f"evaluator returned shape {values.shape}, declared {want}")
        return values

    def __call__(self, lam: complex) -> np.ndarray:
        """The value at one point, as a fresh matrix."""
        return self.on([lam])[0].copy()


def const_function(value: np.ndarray) -> SampledFunction:
    value = la.cmatrix(value)
    return SampledFunction(value.shape[1], value.shape[0],
                           lambda pts: np.broadcast_to(value, (len(pts),) + value.shape))


def grid_distance(f: SampledFunction | np.ndarray, g: SampledFunction | np.ndarray,
                  grid: Sequence[complex] | None = None) -> float:
    """Max spectral-norm deviation over the grid; inf on shape mismatch.

    ``f`` and ``g`` are functions, or their (P, out, in) stacks already
    sampled on the grid; (K, P, out, in) stacks give one distance per k.
    """
    pts = disk_grid() if grid is None else grid
    a, b = (x.on(pts) if isinstance(x, SampledFunction) else x for x in (f, g))
    return la.stack_matnorm_diff(a, b)


def resolvent_stack(a: np.ndarray, rhs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(I - lambda A)^{-1} R on a 1-D array of P points, by one stacked solve.

    ``a`` and ``rhs`` are matrices, giving a (P, s, k) stack, or (K, ...)
    stacks, giving (K, P, s, k).  The pencils I - lambda A are formed in
    place, in the one (..., P, s, s) array that the solve reads.
    """
    lam = pts[:, None, None]
    a, rhs = a[..., None, :, :], rhs[..., None, :, :]
    pencil = lam * a
    np.subtract(la.eye(a.shape[-1]), pencil, out=pencil)
    return la.solve_stack(pencil, rhs)


def transfer_stack(d: np.ndarray, c: np.ndarray, b: np.ndarray, a: np.ndarray,
                   pts: np.ndarray) -> np.ndarray:
    """Theta(lambda) = D + lambda C (I - lambda A)^{-1} B on a 1-D array of
    P points, by one stacked solve of I - lambda A.

    The blocks are matrices, giving a (P, out, in) stack, or (K, ...)
    stacks of the blocks of K systems, giving (K, P, out, in).
    """
    return transfer_of_resolvent(d, c, resolvent_stack(a, b, pts), pts)


def transfer_of_resolvent(d: np.ndarray, c: np.ndarray, x: np.ndarray,
                          pts: np.ndarray) -> np.ndarray:
    """D + lambda C X on P points, from the stack X of (I - lambda A)^{-1} B
    that :func:`resolvent_stack` returns.

    ``x`` must be contiguous: a strided ``x`` takes another BLAS path in
    ``C @ X``, and with it other last bits.
    """
    lam = pts[:, None, None]
    return d[..., None, :, :] + lam * (c[..., None, :, :] @ x)


# Relative size of the Markov tail that _circle_stack drops, the most terms
# it takes per circle point before it leaves the circle to the solve, and
# the largest relative distance of a point from its node that it corrects.
_TAIL = 2.0 ** -56
_TERMS_PER_POINT = 4
_NODE_SHIFT = 2.0 ** -40


@functools.lru_cache(maxsize=8)
def _node_shift(points: bytes) -> np.ndarray:
    """e_j = p_j / lambda_j - 1, read-only, for the circle points p_j whose
    complex128 bytes are ``points``: their relative distances from the
    nodes lambda_j = r e^{2 pi i j/N}, r = |p_0|, taken in long double.
    Kept per circle, for the few circles the oracle samples: the long-double
    nodes of N = 160 points take about 50 us, a quarter of the sampler's
    call on an (8, 1) system."""
    pts = np.frombuffer(points, dtype=complex)
    n = len(pts)
    nodes = np.longdouble(abs(pts[0])) * np.exp(
        2j * np.arccos(np.longdouble(-1)) * np.arange(n) / n)
    shift = (pts / nodes - 1).astype(complex)
    shift.flags.writeable = False
    return shift


def _circle_stack(d: np.ndarray, c: np.ndarray, b: np.ndarray, a: np.ndarray,
                  points: np.ndarray) -> np.ndarray | None:
    """Theta(lambda) = D + lambda C (I - lambda A)^{-1} B on a circle by one
    DFT of the Markov coefficients M_0 = D, M_k = C A^{k-1} B, instead of a
    solve per point; None, for the caller to solve, where it does not apply.

    ``points`` are the N nodes lambda_j = r w^j, w = e^{2 pi i/N}, j < N, as
    rounded to doubles, with r = |points[0]|.  At the nodes, Theta(lambda_j)
    = sum_k r^k M_k w^{jk}, and w^k is N-periodic, so folding r^k M_k mod N
    (exact) leaves a length-N DFT.  A point p_j = lambda_j (1 + e_j) is off
    its node by |e_j| ~ 1e-16, and the values are moved onto it to first
    order by e_j (lambda Theta')(lambda_j), a second DFT of k r^k M_k.  The
    oracle divides by the points and averages over them; fed the values at
    the nodes, its parameters of (40,1) seed 175 drifted 30-300 times as
    far from a classical reference.  The e_j are taken in long double, so
    a platform whose long double has no more bits than a double is solved.

    The blocks A^j B, j < K - 1, are built by doubling, [B] -> [B, AB] ->
    [B, AB, A^2 B, A^3 B] ..., squaring A each step.  In spectral norms the
    terms k >= K sum to at most ||C|| ||B|| r^K ||A||^{K-1} / (1 - r||A||),
    and K is the least count that puts this tail below 2^-56 max(1, ||C||
    ||B||).  Returns None when a block is not finite, when r||A|| >= 1 (no
    such K) or r = 0, when K > 4N, where the blocks would outgrow the solve's
    pencils (a contractive A needs K < 1.5 N on every circle of the
    oracle), or when a point is more than 2^-40 off its node.
    """
    n = len(points)
    r = abs(points[0]) if n else 0.0
    if (not r > 0.0 or np.finfo(np.longdouble).nmant <= np.finfo(float).nmant
            or not all(np.isfinite(x).all() for x in (d, c, b, a))):
        return None
    shift = _node_shift(points.tobytes())
    norm_a, gain = (np.linalg.norm(x, 2) for x in (a, c))
    gain *= np.linalg.norm(b, 2)
    ra = r * norm_a
    if not (ra < 1.0 and np.abs(shift).max() <= _NODE_SHIFT):
        return None
    cut = _TAIL * max(1.0, gain)
    head = gain * r / (1.0 - ra)  # the tail after K = 1 term
    terms = 1
    if head > cut:
        terms += int(np.ceil(np.log(cut / head) / np.log(ra))) if ra > 0.0 else 1
    if terms > _TERMS_PER_POINT * n:
        return None
    # [B, AB, ..., A^{j-1} B] side by side, so that each step is one product
    krylov, power, m = b, a, b.shape[1]
    while krylov.shape[1] < (terms - 1) * m:
        krylov = np.hstack([krylov, power @ krylov])
        power = power @ power
    markov = (c @ krylov[:, :(terms - 1) * m]).reshape(c.shape[0], terms - 1, m)
    series = np.zeros((-(-terms // n) * n,) + d.shape, dtype=complex)
    series[0] = d
    series[1:terms] = markov.transpose(1, 0, 2) * (r ** np.arange(1.0, terms))[:, None, None]
    # Theta and lambda Theta' at the nodes, from r^k M_k and k r^k M_k
    ks = np.arange(len(series), dtype=float)[:, None, None]
    folded = np.stack([series, ks * series]).reshape((2, -1, n) + d.shape).sum(1)
    at_nodes, slope = n * np.fft.ifft(folded, axis=1)
    return at_nodes + shift[:, None, None] * slope


@dataclass(frozen=True)
class SystemClassification:
    passive: bool
    isometric: bool
    coisometric: bool
    conservative: bool
    controllable: bool
    observable: bool
    simple: bool
    minimal: bool

    def as_dict(self) -> dict:
        return asdict(self)


class DiscreteSystem:
    """A discrete-time system with square state block."""

    def __init__(self, block: BlockMatrix, tol: Tolerance = DEFAULT_TOL):
        if block.state_in_dim != block.state_out_dim:
            raise ShapeMismatch("state block must be square for a discrete-time system")
        self.block = block
        self.tol = tol

    @property
    def d(self) -> np.ndarray:
        return self.block.d

    @property
    def c(self) -> np.ndarray:
        return self.block.c

    @property
    def b(self) -> np.ndarray:
        return self.block.b

    @property
    def a(self) -> np.ndarray:
        return self.block.a

    @property
    def in_dim(self) -> int:
        return self.block.in_dim

    @property
    def out_dim(self) -> int:
        return self.block.out_dim

    @property
    def state_dim(self) -> int:
        return self.block.state_in_dim

    def colligation(self) -> np.ndarray:
        return self.block.assemble()

    def is_passive(self) -> bool:
        return la.is_contraction(self.colligation(), self.tol)

    def is_conservative(self) -> bool:
        return la.is_unitary(self.colligation(), self.tol)

    def transfer(self, lam) -> np.ndarray:
        """Theta(lambda) = D + lambda C (I - lambda A)^{-1} B at one point,
        or the (P, out, in) stack over a 1-D array of points."""
        f = self.sampled()
        return f(lam) if np.ndim(lam) == 0 else f.on(lam)

    def sampled(self) -> SampledFunction:
        """The transfer function: solved at any point array, and sampled on
        the oracle's circle by one DFT of its Markov coefficients where
        :func:`_circle_stack` gives them, else solved there too."""
        return SampledFunction(self.in_dim, self.out_dim, self._transfer_stack,
                               functools.partial(_circle_stack, self.d, self.c, self.b, self.a))

    def _transfer_stack(self, pts: np.ndarray) -> np.ndarray:
        return transfer_stack(self.d, self.c, self.b, self.a, pts)

    def simulate(self, inputs: Sequence[np.ndarray], h0=None):
        """Run the recursion; returns (states, outputs) with len(states) =
        len(inputs) + 1."""
        if h0 is None:
            h = np.zeros(self.state_dim, dtype=complex)
        else:
            h = np.asarray(h0, dtype=complex).reshape(-1)
        if h.shape[0] != self.state_dim:
            raise ShapeMismatch(f"initial state has dim {h.shape[0]}, expected {self.state_dim}")
        states = [h]
        outputs = []
        for xi in inputs:
            xi = np.asarray(xi, dtype=complex).reshape(-1)
            if xi.shape[0] != self.in_dim:
                raise ShapeMismatch(f"input has dim {xi.shape[0]}, expected {self.in_dim}")
            outputs.append(self.c @ h + self.d @ xi)
            h = self.a @ h + self.b @ xi
            states.append(h)
        return states, outputs

    def controllable_subspace(self) -> Subspace:
        """Span of A^n B for n below the state dimension."""
        return _krylov_range(self.a, self.b, self.tol)

    def observable_subspace(self) -> Subspace:
        """Span of A*^n C* for n below the state dimension."""
        return _krylov_range(adj(self.a), adj(self.c), self.tol)

    def classify(self) -> SystemClassification:
        """Classification flags.

        A conservative system is classified on the block-Krylov bases of
        its state's :class:`Contraction`, which are cross-checked against
        the defect-kernel characterization of their complements; any other
        system on block-Krylov ranges started from ran B and ran C*.  See
        :func:`_classify`.
        """
        return _classify(self)[0]

    def is_simple_conservative(self) -> bool:
        cls = self.classify()
        return cls.conservative and cls.simple


def conservative_state(sys: DiscreteSystem):
    """(state, classification) of a simple conservative system: its state
    as a :class:`Contraction` at the system's tolerance, whose lattice the
    classification read, and its classification.

    Raises :class:`NotSimpleConservative` unless the system is conservative
    and simple.
    """
    cls, state = _classify(sys)
    if not (cls.conservative and cls.simple):
        raise NotSimpleConservative("this construction requires a simple conservative system")
    return state, cls


def _classify(sys: DiscreteSystem) -> tuple[SystemClassification, Optional[Contraction]]:
    """(classification, state) of a system; the state is the
    :class:`Contraction` of a conservative system's state matrix, which the
    classification read, and None for any other system.

    In a conservative colligation D_A*^2 = BB* and D_A^2 = C*C, so the
    controllable space K(A, B) and the observable space K(A*, C*) are
    K(A, ran D_A*) and K(A*, ran D_A): the leading ``dims[-1]`` columns of
    the two block-Arnoldi bases of the state's lattice, one Arnoldi run per
    side with the defect cut.  They are cross-checked against a second,
    independent route: ker D_{A*^d} and ker D_{A^d}, the kernels of
    I - A^d A^d* and I - A^d* A^d, must complement them.  For a span basis
    S and a kernel basis K of complementary dimensions,
    ||(I - P_S) - P_K|| = ||K* S||, so one small product replaces the two
    projectors.  Any other system is classified on :func:`_krylov_range`
    from ran B and ran C*.  The joint range of the two spaces is taken only
    when neither of them is the whole space.
    """
    tol = sys.tol
    full = sys.colligation()
    norm, iso_gap, coiso_gap = la._norm_and_gaps(full)
    passive = norm <= 1.0 + tol.eq_abs
    isometric = full.shape[1] <= full.shape[0] and iso_gap <= tol.eq_abs
    coisometric = full.shape[0] <= full.shape[1] and coiso_gap <= tol.eq_abs
    conservative = isometric and coisometric
    d = sys.state_dim
    state = None
    if conservative:
        state = Contraction(sys.a, tol)
        obs, ctrl = (Subspace(d, basis[:, :dims[-1]]) for basis, dims in state._bases())
    else:
        ctrl = sys.controllable_subspace()
        obs = sys.observable_subspace()
    controllable = ctrl.dim == d
    observable = obs.dim == d
    simple = (controllable or observable
              or la.range_basis(np.hstack([ctrl.basis, obs.basis]), tol).dim == d)
    if conservative and d > 0:
        power = np.linalg.matrix_power(sys.a, d)
        for span, adjoint in ((ctrl, True), (obs, False)):
            _, vecs, keep, _ = la._defect_decision(power, tol, adjoint)
            kernel = vecs[:, ~keep]
            if (kernel.shape[1] + span.dim != d
                    or la.opnorm(adj(kernel) @ span.basis) > 1e-7):
                raise RankInconsistency("Krylov and defect-kernel characterizations disagree")
    cls = SystemClassification(
        passive, isometric, coisometric, conservative,
        controllable, observable, simple, controllable and observable,
    )
    return cls, state


def _krylov_range(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> Subspace:
    """Span of A^n B over all n: the block-Arnoldi basis of K(A, ran B),
    which takes one factor of A per block, so no power of A is formed.
    Classifies the systems that are not conservative; a conservative
    system reads its state's lattice instead (:func:`_classify`)."""
    basis, _ = la.block_arnoldi(a, la.range_basis(b, tol).basis, tol)
    return Subspace(a.shape[0], basis)


def discrete_system(d, c, b, a, tol: Tolerance = DEFAULT_TOL) -> DiscreteSystem:
    return DiscreteSystem(
        BlockMatrix(la.cmatrix(d), la.cmatrix(c), la.cmatrix(b), la.cmatrix(a)), tol
    )


def _char_blocks(a: np.ndarray, d_a: np.ndarray, d_astar: np.ndarray, u: np.ndarray,
                 v: np.ndarray):
    """(D, C, B, A) = (-V* A U, V* D_A*, D_A U, A*): the blocks of the
    colligation [-A, D_A*; D_A, A*] restricted to the bases ``u`` and ``v``
    of the defect spaces of A and A*.  The arguments are matrices, or
    (K, ...) stacks for K contractions, giving stacked blocks."""
    return -adj(v) @ a @ u, adj(v) @ d_astar, d_a @ u, adj(a)


def char_colligation(a: Contraction) -> DiscreteSystem:
    """The conservative colligation [-A, D_A*; D_A, A*] restricted to the
    defect bases of A; its transfer function is the characteristic function
    of A, and it is simple exactly when A is completely non-unitary."""
    blocks = _char_blocks(a.a, a.d_a, a.d_astar, a.defect_a.basis, a.defect_astar.basis)
    return discrete_system(*blocks, a.tol)


def char_function(a: Contraction) -> SampledFunction:
    """Characteristic function of A in the defect bases of A and A*: the
    transfer function of :func:`char_colligation`,
    V* (-A U + lambda D_A* (I - lambda A*)^{-1} D_A U) with U and V the
    bases.  Its solve carries dim D_A columns, not the state dimension."""
    return char_colligation(a).sampled()


@dataclass(frozen=True)
class DefectFunctions:
    """Right and left defect functions with their sampling subspaces."""

    phi: SampledFunction
    psi: SampledFunction
    omega: Subspace
    omega_star: Subspace


def defect_functions(sys: DiscreteSystem) -> DefectFunctions:
    """Defect (spectral-factor) functions of a simple conservative system.

    phi(lambda) = P_Omega (I - lambda A)^{-1} B with
    Omega = (observable)^perp (-) A (observable)^perp, and
    psi(lambda) = C (I - lambda A)^{-1} restricted to
    Omega* = (controllable)^perp (-) A* (controllable)^perp.
    phi vanishes iff the system is observable, psi iff controllable.  The
    complements are H(d, 0) and H(0, d) of the state's lattice, whose two
    Krylov bases the classification read.  A is isometric on
    H(d, 0), which lies in ker D_A, and A* on H(0, d), so A W and A* W' have
    orthonormal columns for the bases W, W' of the two, and each subspace
    is one :func:`~schurkit.linalg.intersect_perp`.
    """
    state, _ = conservative_state(sys)
    d = sys.state_dim
    obs_perp, ctrl_perp = state.h_subspace(d, 0), state.h_subspace(0, d)
    omega = la.intersect_perp(obs_perp, sys.a @ obs_perp.basis, sys.tol)
    omega_star = la.intersect_perp(ctrl_perp, adj(sys.a) @ ctrl_perp.basis, sys.tol)

    def phi_eval(pts: np.ndarray) -> np.ndarray:
        return adj(omega.basis) @ resolvent_stack(sys.a, sys.b, pts)

    def psi_eval(pts: np.ndarray) -> np.ndarray:
        return sys.c @ resolvent_stack(sys.a, omega_star.basis, pts)

    return DefectFunctions(
        SampledFunction(sys.in_dim, omega.dim, phi_eval),
        SampledFunction(omega_star.dim, sys.out_dim, psi_eval),
        omega,
        omega_star,
    )


def intertwining_residual(s1: DiscreteSystem, s2: DiscreteSystem, u: np.ndarray) -> float:
    """Max residual of U A1 = A2 U, U B1 = B2, C1 = C2 U and unitarity of U.

    ``s1`` and ``s2`` are systems, or their (d, c, b, a) blocks stacked
    along a leading pair axis, which ``u`` then shares: a stack gives one
    residual per pair, bit for bit the one the pair's systems give.
    """
    (_, c1, b1, a1), (_, c2, b2, a2) = (
        (s.d, s.c, s.b, s.a) if isinstance(s, DiscreteSystem) else s for s in (s1, s2))
    worst = functools.reduce(np.maximum, (
        la.matnorm_diff(u @ a1, a2 @ u),
        la.matnorm_diff(u @ b1, b2),
        la.matnorm_diff(c1, c2 @ u),
        la.unitarity_residual(u),
    ))
    return float(worst) if u.ndim == 2 else worst


# Largest intertwining residual that certifies a unitary similarity.
_CERT_TOL = 1e-7


def unitarily_similar(s1: DiscreteSystem, s2: DiscreteSystem) -> Optional[np.ndarray]:
    """Search for a unitary U with U A1 = A2 U, U B1 = B2, C1 = C2 U.

    The intertwining equations are solved as one least-squares system and
    the solution is certified to ``_CERT_TOL``; a failed certificate is
    retried after polar projection onto the unitary group.  Completeness is
    guaranteed only for simple systems, where the intertwiner is unique.
    """
    if s1.in_dim != s2.in_dim or s1.out_dim != s2.out_dim:
        raise DimMismatch("systems must share input and output dimensions")
    d1, d2 = s1.state_dim, s2.state_dim
    if d1 != d2:
        return None
    if d1 == 0:
        u = la.zeros(0, 0)
        return u if la.matnorm_diff(s1.d, s2.d) <= _CERT_TOL else None
    i1, i2 = la.eye(d1), la.eye(d2)
    rows = [
        np.kron(s1.a.T, i2) - np.kron(i1, s2.a),
        np.kron(s1.b.T, i2),
        np.kron(i1, s2.c),
    ]
    rhs = np.concatenate([
        np.zeros(d1 * d2, dtype=complex),
        s2.b.flatten(order="F"),
        s1.c.flatten(order="F"),
    ])
    sol = np.linalg.lstsq(np.vstack(rows), rhs, rcond=None)[0]
    u = sol.reshape(d2, d1, order="F")
    if intertwining_residual(s1, s2, u) <= _CERT_TOL:
        return u
    uu, _, vh = np.linalg.svd(u)
    u_polar = uu @ vh
    if intertwining_residual(s1, s2, u_polar) <= _CERT_TOL:
        return u_polar
    return None


# Draws before random_conservative_system gives up.
_MAX_DRAWS = 64


def random_conservative_system(
    state_dim: int,
    io_dim: int,
    rng: np.random.Generator,
    tol: Tolerance = DEFAULT_TOL,
) -> DiscreteSystem:
    """Haar-random unitary colligation, rejection-sampled to be simple.

    Raises :class:`NotSimpleConservative` when no draw is simple, as with
    no input or output (io_dim = 0) on a nonzero state.
    """
    return _draw_simple_conservative(state_dim, io_dim, rng, tol)[0]


def _draw_simple_conservative(
    state_dim: int, io_dim: int, rng: np.random.Generator, tol: Tolerance
) -> tuple[DiscreteSystem, SystemClassification]:
    """The draw of :func:`random_conservative_system`, with the
    classification that accepted it."""
    for _ in range(_MAX_DRAWS):
        u = la.haar_unitary(io_dim + state_dim, rng)
        sys = discrete_system(
            u[:io_dim, :io_dim], u[:io_dim, io_dim:], u[io_dim:, :io_dim], u[io_dim:, io_dim:],
            tol,
        )
        cls = sys.classify()
        if cls.conservative and cls.simple:
            return sys, cls
    raise NotSimpleConservative(
        f"no simple conservative system of state dimension {state_dim} and io dimension "
        f"{io_dim} in {_MAX_DRAWS} draws")
