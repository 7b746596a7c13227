"""The Schur algorithm for matrix Schur-class functions, both ways.

Function level: peel off Gamma_n = Theta_n(0) and form the next iterate
through the Moebius parameter (the division-by-lambda route), evaluated on
whole arrays of points at once and read off one circle near the boundary.
Realization level: read every Gamma_n off a simple conservative realization
in closed form through nested defect pseudo-inverses, and assemble, for
each n, the whole family of conservative realizations of the n-th iterate
on the state spaces H(n-k, k).  The two routes are tied together by
:func:`verify_chain`, which aligns the defect bases recorded on each side
and reports residuals.

All parameter matrices are expressed in orthonormal defect bases produced
by :func:`~schurkit.linalg.defect_of`, once per parameter; a choice
sequence records those decompositions and the bases as absolute subspaces
of the input and output spaces, so that both sides stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .blockparam import _shmulyan, assemble_blocks
from .contractions import Contraction
from .errors import (
    InvalidSequence,
    NotContraction,
    RangeInclusionViolated,
    RankInconsistency,
    SchurkitError,
    ShapeMismatch,
    Terminated,
    UnitaryParameter,
    UnitaryTheta0,
)
from .linalg import DEFAULT_TOL, Subspace, Tolerance, adj
from .systems import (
    DiscreteSystem,
    SampledFunction,
    SystemClassification,
    _char_blocks,
    conservative_state,
    const_function,
    discrete_system,
    disk_grid,
    grid_distance,
    intertwining_residual,
    resolvent_stack,
    transfer_of_resolvent,
    transfer_stack,
    unitarily_similar,  # noqa: F401  re-exported: the independent similarity search
)

# Range-inclusion guard for the nested pseudo-inverse chains; violations of
# this size mean a rank decision went wrong, not rounding noise.
_RANGE_GUARD = 1e-6


def is_unitary_parameter(g: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Unitary test for outside input and the oracle: all singular values
    within 10*rank_rel of 1.  The realization route does not use it; it
    terminates on dim H(n, 0) = 0."""
    g = la.cmatrix(g)
    if g.shape[0] != g.shape[1]:
        return False
    if g.shape[0] == 0:
        return True
    s = np.linalg.svd(g, compute_uv=False)
    return bool(np.all(np.abs(s - 1.0) <= 10.0 * tol.rank_rel))


DefectPair = tuple[la.DefectData, la.DefectData]


def _defect_pair(g: np.ndarray, tol: Tolerance) -> DefectPair:
    """(D(g), D(g*)): the decompositions one Schur step is made of."""
    return la.defect_of(g, tol), la.defect_of(g, tol, adjoint=True)


# The oracle's circle rule and read-off disk (see _DividedEvaluator).
_MIN_RADIUS = 0.8
_GROWTH_BUDGET = 1e4
_ALIAS_BOUND = 3.2e-16
_READ_OFF_RADIUS = 0.65


def _oracle_circle(n_max: int) -> np.ndarray:
    """The N points of |w| = r that every divided level of an oracle run to
    ``n_max`` parameters samples (see :class:`_DividedEvaluator`)."""
    r = max(_MIN_RADIUS, _GROWTH_BUDGET ** (-1.0 / n_max)) if n_max > 0 else _MIN_RADIUS
    n = 8 * int(np.ceil(np.log(_ALIAS_BOUND) / np.log(r) / 8))
    return r * np.exp(2j * np.pi * np.arange(n) / n)


class _DividedEvaluator:
    """Array evaluator of D_g* (I - Theta(lam) g*)^{-1} (Theta(lam) - g) D_g^{-1},
    divided by lambda when ``divide`` is set, in the defect bases ``dom`` and
    ``cod`` of ``gamma``, so that unitary parts of gamma never enter a solve.

    A point's radius alone chooses its path.  A divided level samples the
    circle |w| = r at N points once, from the previous level's, reads points
    z inside the read-off disk |z| < 0.65 (0 included: the plain mean) off it
    by the trapezoidal Cauchy formula (1/N) sum_j f(w_j) w_j/(w_j - z), and
    divides at all others.  The circle is ``points``: :func:`schur_oracle`
    chooses it from its depth n_max and passes it to every level of the
    run, so that all of them share it, and any other function gets the
    circle of depth 0.  Rule: r is the smallest radius >= 0.8 with
    r^-n_max <= 1e4, and N the smallest multiple of 8 with r^N <= 3.2e-16;
    that is r = 0.8, N = 160 up to n_max = 41, and about r = 0.91, N = 376
    at n_max = 97.  Bounds: the Taylor coefficients of a
    Schur-class function have norm <= 1, so the mean aliases by about
    r^N / (1 - r^N) <= 3.2e-16 and the read-off on the 0.6 ring by
    (0.6/r)^N <= 1e-20; rounding grows like r^-n at level n, so by at most
    1e4 over the run.  The last array that sampled theta is kept as well,
    so that iterates sampled level by level on one grid sample each level
    once.
    """

    def __init__(self, theta: SampledFunction, gamma: np.ndarray, tol: Tolerance,
                 divide: bool, points: np.ndarray):
        self.defects = _defect_pair(gamma, tol)
        dd, dds = self.defects
        self.dom, self.cod = dd.space, dds.space
        self.theta, self.gamma, self.divide = theta, gamma, divide
        self.d_restr = adj(self.cod.basis) @ dds.op @ self.cod.basis
        self.j_restr = adj(self.dom.basis) @ dd.op_pinv @ self.dom.basis
        self.points = points
        self.circle: np.ndarray | None = None
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def _core(self, pts: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The value at ``pts`` from the stack ``t`` of theta there."""
        eb, fb, g = self.dom.basis, self.cod.basis, self.gamma
        pencil = adj(fb) @ (la.eye(g.shape[0]) - t @ adj(g)) @ fb
        num = adj(fb) @ (t - g) @ eb
        value = self.d_restr @ np.linalg.solve(pencil, num) @ self.j_restr
        return value / pts[:, None, None] if self.divide else value

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if np.array_equal(pts, self.points):
            if self.circle is None:
                self.circle = self._core(self.points, self.theta.on(self.points))
                self.circle.flags.writeable = False
            return self.circle
        if self.last is not None and np.array_equal(pts, self.last[0]):
            return self.last[1]
        inside = np.abs(pts) < (_READ_OFF_RADIUS if self.divide else 0.0)
        values = np.empty((pts.shape[0], self.cod.dim, self.dom.dim), dtype=complex)
        if inside.any():
            kernel = 1.0 / (1.0 - pts[inside, None] / self.points) / len(self.points)
            flat = kernel @ self(self.points).reshape(len(self.points), -1)
            values[inside] = flat.reshape((len(flat),) + values.shape[1:])
        if not inside.all():  # an array read off the circle alone is not kept
            values[~inside] = self._core(pts[~inside], self.theta.on(pts)[~inside])
            self.last = (pts.copy(), values)
        values.flags.writeable = False
        return values


def _divided_step(theta: SampledFunction, gamma: np.ndarray, tol: Tolerance,
                  divide: bool, points: np.ndarray | None = None) -> SampledFunction:
    """Common core of the Moebius parameter and the Schur iterate, sampling
    the circle ``points`` (default: the circle of depth 0)."""
    if points is None:
        points = _oracle_circle(0)
    evaluator = _DividedEvaluator(theta, gamma, tol, divide, points)
    return SampledFunction(evaluator.dom.dim, evaluator.cod.dim, evaluator)


def oracle_step(theta: SampledFunction, tol: Tolerance = DEFAULT_TOL, *,
                _circle: np.ndarray | None = None):
    """One function-level step: (Gamma_n, Theta_{n+1}), the iterate read off
    the circle of depth 0 unless :func:`schur_oracle` passes its own.

    Raises :class:`UnitaryParameter` when Theta(0) is unitary, i.e. the
    algorithm has terminated and no next iterate exists.
    """
    gamma = theta(0)
    if is_unitary_parameter(gamma, tol):
        raise UnitaryParameter("Theta(0) is unitary; the iteration has terminated")
    return gamma, _divided_step(theta, gamma, tol, True, _circle)


def moebius_parameter(theta: SampledFunction, tol: Tolerance = DEFAULT_TOL) -> SampledFunction:
    """The function Z with Theta = Theta(0) + D* Z (I + Theta(0)* Z)^{-1} D.

    Expressed in the defect bases of Theta(0); Z(0) = 0 exactly and
    ||Z(lambda)|| <= |lambda| on the disk.
    """
    return _divided_step(theta, theta(0), tol, divide=False)


def moebius_compose(gamma: np.ndarray, theta_next: SampledFunction,
                    tol: Tolerance = DEFAULT_TOL) -> SampledFunction:
    """Left inverse of :func:`oracle_step`:

    Theta(lam) = gamma + lam D_g* T(lam) (I + lam g* T(lam))^{-1} D_g,
    where T is ``theta_next`` expressed in the defect bases of ``gamma``.
    """
    gamma = la.cmatrix(gamma)
    if not la.is_contraction(gamma, tol):
        raise NotContraction("Schur parameter must be a contraction")
    return _compose(gamma, theta_next, *_defect_pair(gamma, tol))


def _compose(gamma: np.ndarray, theta_next: SampledFunction, dd: la.DefectData,
             dds: la.DefectData) -> SampledFunction:
    """:func:`moebius_compose` of a contraction with its defect pair."""
    e, f = dd.space, dds.space
    if (theta_next.in_dim, theta_next.out_dim) != (e.dim, f.dim):
        raise ShapeMismatch(
            f"iterate acts on {(theta_next.out_dim, theta_next.in_dim)}, defects of the "
            f"parameter have dims {(f.dim, e.dim)}"
        )

    def evaluate(pts: np.ndarray) -> np.ndarray:
        z = pts[:, None, None] * (f.basis @ theta_next.on(pts) @ adj(e.basis))
        return _shmulyan(gamma, dd.op, dds.op, z)

    return SampledFunction(gamma.shape[1], gamma.shape[0], evaluate)


@dataclass(frozen=True)
class ChoiceSequence:
    """A finite choice sequence with its recorded defect decompositions.

    ``gammas[0]`` maps the input space into the output space; for n >= 1,
    ``gammas[n]`` acts between the defect spaces of ``gammas[n-1]``, whose
    pair (D(Gamma_{n-1}), D(Gamma*_{n-1})) the route recorded, at ``tol``,
    as ``defects[n-1]``.  ``doms[n]`` and ``codoms[n]`` are the bases of
    that pair as absolute orthonormal bases (inside the input and output
    spaces).  ``terminated`` means the last parameter is unitary.
    """

    gammas: list[np.ndarray]
    doms: list[np.ndarray]
    codoms: list[np.ndarray]
    terminated: bool
    defects: list[DefectPair]
    tol: Tolerance

    def __len__(self) -> int:
        return len(self.gammas)

    def validate(self):
        """Check shapes against the recorded bases and pairs, and norms;
        nothing is decomposed."""
        tol = self.tol
        if not self.gammas:
            raise InvalidSequence("empty choice sequence")
        m = len(self.gammas)
        if len(self.doms) != m or len(self.codoms) != m or len(self.defects) != m - 1:
            raise InvalidSequence("basis lists must parallel the parameter list")
        recorded = [(dds.space.dim, dd.space.dim) for dd, dds in self.defects]
        for n, g in enumerate(self.gammas):
            bases = (self.codoms[n].shape[1], self.doms[n].shape[1])
            if g.shape != bases or (n > 0 and g.shape != recorded[n - 1]):
                raise InvalidSequence(f"parameter {n} of shape {g.shape} disagrees with its "
                                      f"bases {bases} or the recorded defect pair")
            if not la.is_contraction(g, tol):
                raise InvalidSequence(f"parameter {n} has norm > 1")
        if self.terminated and not is_unitary_parameter(self.gammas[-1], tol):
            raise InvalidSequence("terminated sequence must end in a unitary parameter")


def _absolute_bases(in_dim: int, out_dim: int, defects: list[DefectPair]):
    """(doms, codoms): the input and output spaces, then the defect spaces
    of each pair in turn, as absolute orthonormal bases."""
    doms, codoms = [la.eye(in_dim)], [la.eye(out_dim)]
    for dd, dds in defects:
        doms.append(doms[-1] @ dd.space.basis)
        codoms.append(codoms[-1] @ dds.space.basis)
    return doms, codoms


def _recorded(gammas: list[np.ndarray], defects: list[DefectPair], terminated: bool,
              tol: Tolerance) -> ChoiceSequence:
    """The sequence of ``gammas`` whose first parameters have the pairs ``defects``."""
    doms, codoms = _absolute_bases(gammas[0].shape[1], gammas[0].shape[0], defects)
    return ChoiceSequence(gammas, doms, codoms, terminated, defects, tol)


def choice_sequence(gammas, terminated: bool, tol: Tolerance = DEFAULT_TOL) -> ChoiceSequence:
    """Build a :class:`ChoiceSequence` from raw parameter matrices.

    Each ``gammas[n]`` (n >= 1) must already be expressed in the defect
    bases that :func:`~schurkit.linalg.defect_of` assigns to ``gammas[n-1]``
    and its adjoint; every parameter but the last is decomposed here, once.
    """
    gammas = [la.cmatrix(g) for g in gammas]
    if not gammas:
        raise InvalidSequence("empty choice sequence")
    seq = _recorded(gammas, [_defect_pair(g, tol) for g in gammas[:-1]], terminated, tol)
    seq.validate()
    return seq


def reconstruct(seq: ChoiceSequence) -> SampledFunction:
    """Fold a choice sequence back into a Schur-class function.

    Exact (on the grid) for terminated sequences; otherwise the tail is
    truncated with a vanishing next iterate.  Composes with the recorded
    defect pairs; only the last parameter of an unterminated sequence is
    decomposed, at ``seq.tol``.
    """
    seq.validate()
    defects, last = list(seq.defects), seq.gammas[-1]
    if seq.terminated:
        current = const_function(last)
    else:
        defects.append(_defect_pair(last, seq.tol))
        current = const_function(la.zeros(defects[-1][1].space.dim, defects[-1][0].space.dim))
    for gamma, (dd, dds) in reversed(list(zip(seq.gammas, defects))):
        current = _compose(gamma, current, dd, dds)
    return current


@dataclass(frozen=True)
class OracleChain:
    """Function-level side of the algorithm: parameters and iterates.

    ``doms[n]`` and ``codoms[n]`` are the bases of the input and output
    spaces of ``iterates[n]``.  ``breakdown`` is the step whose parameter
    or next iterate could not be formed; the run stops there, so the
    iterate of that step is kept but has no parameter.
    """

    params: ChoiceSequence
    iterates: list[SampledFunction]
    doms: list[np.ndarray]
    codoms: list[np.ndarray]
    breakdown: int | None = None


def schur_oracle(theta: SampledFunction, n_max: int,
                 tol: Tolerance = DEFAULT_TOL) -> OracleChain:
    """Run the function-level algorithm up to ``n_max`` parameters.

    Each parameter is the mean of its iterate's circle, which the depth
    ``n_max`` chooses (see :class:`_DividedEvaluator`).  A step fails when
    a rank decision breaks down, typically on a parameter at the edge of
    contractivity; the run then ends with the failing step in
    ``breakdown``.  The iterate after parameter ``n_max`` is not formed.
    """
    gammas: list[np.ndarray] = []
    defects: list[DefectPair] = []  # one per formed iterate
    iterates = [theta]
    terminated = False
    breakdown = None
    current, circle = theta, _oracle_circle(n_max)
    for n in range(n_max + 1):
        try:
            if n == n_max:
                gamma = current(0)
                terminated = is_unitary_parameter(gamma, tol)
            else:
                gamma, nxt = oracle_step(current, tol, _circle=circle)
        except UnitaryParameter:
            gamma, terminated = current(0), True
        except (SchurkitError, np.linalg.LinAlgError):
            breakdown = n
            break
        gammas.append(gamma)
        if terminated or n == n_max:
            break
        defects.append(nxt.eval_fn.defects)
        iterates.append(nxt)
        current = nxt
    doms, codoms = _absolute_bases(theta.in_dim, theta.out_dim, defects)
    m = len(gammas)  # defects has m entries after a breakdown, m - 1 otherwise
    params = ChoiceSequence(gammas, doms[:m], codoms[:m], terminated, defects[: m - 1], tol)
    return OracleChain(params, iterates, doms, codoms, breakdown)


class _RealizationChain:
    """Closed-form Schur parameters and iterate blocks of one system.

    Maintains, per step n, the composed defect pseudo-inverse chains

        M_n = D^{-1}(Gamma_{n-1}) ... D^{-1}(Gamma_0)   on the input side,
        N_n = D^{-1}(Gamma*_{n-1}) ... D^{-1}(Gamma*_0) on the output side,

    expressed in the accumulated defect bases (M_0 and N_0 are identities),
    together with the defect pair of each parameter.  Gamma_n is then

        N_n C A^{n-1} W (M_n B* W)*   with W a basis of H(n-1, 0).

    The n-th iterate is realized on H(n, 0), so Gamma_n is unitary exactly
    when H(n, 0) = {0}: the chain terminates on that rank decision of the
    lattice, and the defect of a terminal parameter is never taken.  Every
    rank decision is made at the system's tolerance.
    """

    def __init__(self, sys: DiscreteSystem):
        self.state, self.classification = conservative_state(sys)
        self.sys = sys
        self.gammas: list[np.ndarray] = [sys.d.copy()]
        self.defects: list[DefectPair] = []
        self.m_chains: list[np.ndarray] = [la.eye(sys.in_dim)]
        self.n_chains: list[np.ndarray] = [la.eye(sys.out_dim)]
        self.terminated = self.state.dim == 0
        if not self.terminated:
            self._push_defect_step(*_defect_pair(sys.d, sys.tol))

    def _push_defect_step(self, dd: la.DefectData, dds: la.DefectData):
        """Record the defect pair of the last parameter, D(Gamma_n) in
        ``dd`` and D(Gamma*_n) in ``dds``, and extend the chains by it."""
        self.defects.append((dd, dds))
        self.m_chains.append(adj(dd.space.basis) @ dd.op_pinv @ self.m_chains[-1])
        self.n_chains.append(adj(dds.space.basis) @ dds.op_pinv @ self.n_chains[-1])

    def last_n(self) -> int:
        return len(self.gammas) - 1

    def extend(self, n_max: int):
        """Compute parameters up to index ``n_max`` or termination."""
        while not self.terminated and self.last_n() < n_max:
            n = self.last_n() + 1
            w_prev = self.state.h_subspace(n - 1, 0).basis
            left = self.n_chains[n] @ self.sys.c @ self.state.power(n - 1) @ w_prev
            right = self.m_chains[n] @ adj(self.sys.b) @ w_prev
            gamma = left @ adj(right)
            self.gammas.append(gamma)
            if self.state.h_subspace(n, 0).dim == 0:
                self.terminated = True
                return
            dd, dds = _defect_pair(gamma, self.sys.tol)
            self._check_range_inclusions(n, dd, dds)
            self._push_defect_step(dd, dds)

    def _check_range_inclusions(self, n: int, dd: la.DefectData, dds: la.DefectData):
        """ran(M_n B* on H(n,0)) must lie in ran D(Gamma_n); likewise the
        output chain applied to C on H(0,n) in ran D(Gamma*_n)."""
        e, f = dd.space, dds.space
        w_n0 = self.state.h_subspace(n, 0).basis
        w_0n = self.state.h_subspace(0, n).basis
        x = self.m_chains[n] @ adj(self.sys.b) @ w_n0
        y = self.n_chains[n] @ self.sys.c @ w_0n
        res_b = la.opnorm(x - e.basis @ (adj(e.basis) @ x))
        res_c = la.opnorm(y - f.basis @ (adj(f.basis) @ y))
        if max(res_b, res_c) > _RANGE_GUARD:
            raise RangeInclusionViolated(
                f"step {n}: residuals ({res_b:.3e}, {res_c:.3e}) exceed {_RANGE_GUARD:.0e}"
            )

    def choice(self) -> ChoiceSequence:
        defects = self.defects[: len(self.gammas) - 1]
        return _recorded(self.gammas, defects, self.terminated, self.sys.tol)

    def family(self, n: int) -> list[DiscreteSystem]:
        """All realizations of the n-th iterate, state spaces H(n-k, k)."""
        if n < 1 or n > self.last_n():
            raise Terminated(f"iterate index {n} lies beyond the computed chain")
        w_n0 = self.state.h_subspace(n, 0).basis
        if w_n0.shape[1] == 0:
            raise Terminated(f"H({n},0) is trivial; the algorithm terminated at step {n}")
        gamma = self.gammas[n]
        # B of member k is W_k* A^k W_0 bstar*; the d x io factor is shared
        lifted = w_n0 @ adj(self.m_chains[n] @ adj(self.sys.b) @ w_n0)
        systems = []
        for k in range(n + 1):
            w_nk = self.state.h_subspace(n - k, k).basis
            if w_nk.shape[1] != w_n0.shape[1]:
                raise RankInconsistency(
                    f"dim H({n - k},{k}) = {w_nk.shape[1]} != dim H({n},0) = {w_n0.shape[1]}"
                )
            c_blk = self.n_chains[n] @ self.sys.c @ self.state.power(n - k) @ w_nk
            b_blk = adj(w_nk) @ (self.state.power(k) @ lifted)
            a_blk = adj(w_nk) @ self.sys.a @ w_nk
            systems.append(discrete_system(gamma, c_blk, b_blk, a_blk, self.sys.tol))
        return systems


def gamma_from_realization(sys: DiscreteSystem, n_max: int) -> ChoiceSequence:
    """Closed-form Schur parameters of the transfer function of ``sys``.

    Stops at termination, the first n with H(n, 0) = {0} (where Gamma_n is
    unitary), or after ``n_max`` steps.
    """
    chain = _RealizationChain(sys)
    chain.extend(n_max)
    return chain.choice()


def first_iterate_systems(sys: DiscreteSystem):
    """The three printed realizations attached to the first iterate.

    Returns (nu, zeta1, zeta2): nu realizes lambda * Theta_1 on the full
    state space; zeta1 and zeta2 realize Theta_1 on ker D_A* and ker D_A.
    """
    tol = sys.tol
    state, _ = conservative_state(sys)
    if state.dim == 0:
        raise UnitaryTheta0("Theta(0) is unitary; there is no first iterate")
    gamma0 = sys.d
    d0, d0s = _defect_pair(gamma0, tol)
    e0, f0 = d0.space, d0s.space
    w10 = state.h_subspace(1, 0).basis
    w01 = state.h_subspace(0, 1).basis
    dastar_pinv = state.defect_data_star.op_pinv
    c_chain = adj(f0.basis) @ d0s.op_pinv @ sys.c
    b_chain = dastar_pinv @ sys.b @ e0.basis
    nu = discrete_system(
        la.zeros(f0.dim, e0.dim),
        c_chain,
        b_chain,
        sys.a @ w10 @ adj(w10),
        tol,
    )
    gamma1 = adj(f0.basis) @ d0s.op_pinv @ sys.c @ sys.b @ d0.op_pinv @ e0.basis
    zeta1 = discrete_system(
        gamma1,
        c_chain @ w01,
        adj(w01) @ sys.a @ w10 @ adj(w10) @ b_chain,
        adj(w01) @ sys.a @ w01,
        tol,
    )
    zeta2 = discrete_system(
        gamma1,
        c_chain @ sys.a @ w10,
        adj(w10) @ b_chain,
        adj(w10) @ sys.a @ w10,
        tol,
    )
    return nu, zeta1, zeta2


def iterate_systems(sys: DiscreteSystem, n: int) -> list[DiscreteSystem]:
    """Realizations of the n-th iterate on the state spaces H(n-k, k).

    Raises :class:`Terminated` when the algorithm stops at or before n,
    i.e. when H(n, 0) is already trivial.
    """
    if n < 1:
        raise ValueError("iterate index must be positive")
    chain = _RealizationChain(sys)
    chain.extend(n)
    return chain.family(n)


@dataclass(frozen=True)
class SchurChain:
    """Everything the realization route produces for one source system."""

    source: DiscreteSystem
    state: Contraction  # the source state, whose lattice the chain reads
    classification: SystemClassification  # of the source, made on the input check
    params: ChoiceSequence
    h_chain: list[Subspace]
    families: list[list[DiscreteSystem]]  # families[j] realizes iterate j+1

    @property
    def termination_step(self) -> int | None:
        return len(self.params) - 1 if self.params.terminated else None


def build_chain(sys: DiscreteSystem, n_max: int | None = None) -> SchurChain:
    """Run the realization-level algorithm and collect iterate families.

    Parameters are computed up to ``n_max`` (default: state dimension + 1)
    or termination, the first n with H(n, 0) = {0}; ``families[n-1]``
    realizes the n-th iterate on the spaces H(n-k, k) for every step
    before termination.  Every rank decision is made at ``sys.tol``.
    """
    cap = sys.state_dim + 1 if n_max is None else n_max
    chain = _RealizationChain(sys)
    chain.extend(cap)
    last = chain.last_n()
    h_chain = [chain.state.h_subspace(n, 0) for n in range(last + 1)]
    families = []
    for n in range(1, last + 1):
        if chain.state.h_subspace(n, 0).dim == 0:
            break
        families.append(chain.family(n))
    return SchurChain(sys, chain.state, chain.classification, chain.choice(), h_chain,
                      families)


def _lattice_intertwiner(chain: SchurChain, j: int, k: int) -> np.ndarray:
    """U_k = W_{k+1}* A W_k: the compression of the source state A from
    H(j+1-k, k) to H(j-k, k+1), which maps the state space of
    ``chain.families[j][k]`` onto that of member k+1 and intertwines them.
    The W are the bases the chain's state stored when it built the family."""
    h = chain.state.h_subspace
    return adj(h(j - k, k + 1).basis) @ chain.source.a @ h(j + 1 - k, k).basis


# Residual thresholds used by verify_chain, keyed by residual kind.
CHAIN_THRESHOLDS = {
    "colligation_unitarity": 1e-9,
    "gamma": 1e-7,
    "alignment": 1e-7,
    "unitarity": 1e-9,
    "transfer_oracle": 1e-6,
    "transfer_across_k": 1e-7,
    "similarity": 1e-7,
    "pure_char": 1e-6,
    "h_monotone": 0.5,
    "termination_bound": 0.5,
    "shape": 0.5,
    "termination_match": 0.5,
    "oracle_breakdown": 0.0,  # recorded only as inf: any breakdown fails
}


@dataclass
class ChainReport:
    """Residual table from cross-verifying a chain; ``ok`` is the verdict,
    each residual against the threshold of its kind in CHAIN_THRESHOLDS."""

    residuals: dict[str, float] = field(default_factory=dict)

    def add(self, kind: str, detail: str, value: float):
        self.residuals[f"{kind}[{detail}]" if detail else kind] = float(value)

    def failures(self) -> dict[str, float]:
        out = {}
        for name, value in self.residuals.items():
            kind = name.split("[", 1)[0]
            if not (value <= CHAIN_THRESHOLDS[kind]):
                out[name] = value
        return out

    @property
    def ok(self) -> bool:
        return not self.failures()

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def verify_chain(chain: SchurChain, grid=None) -> ChainReport:
    """Cross-verify a realization chain against the function-level oracle.

    Residual groups: (a) parameters, realization versus oracle after basis
    alignment; (b) transfer functions of every iterate realization versus the
    oracle iterate, and across k; (c) unitary-similarity certificates across
    k; (d) characteristic function of the compressed state versus the pure
    part of the oracle iterate on the defect pair of its value at 0; (e)
    colligation unitarity and shape bookkeeping; (f) whether the oracle ends
    where the chain does, unitary at gamma's threshold exactly when it
    terminated.  Failures are reported, never raised; an oracle breakdown is
    reported as ``oracle_breakdown`` in place of (f), and the parameters and
    iterates the oracle did produce are compared as usual.

    The similarity certificate of members k and k+1 of family n is the
    lattice intertwiner U_k = W_{k+1}* A W_k, with W_k the stored basis of
    H(n-k, k) and A the source state: it is built from the source, not from
    the family blocks, so it certifies them rather than fits them.  Every
    rank decision and comparison is made at the source system's tolerance.

    Each family is checked as stacks of its members, one stack per state
    dimension (one in every correct chain), so that each kind of work is one
    stacked numpy call: one spectral-norm kernel call gives each member's
    unitarity and the colligation norms of the pure_char check, and one
    intertwining_residual call certifies the pairs of the stack; every other
    pair's similarity is inf.

    A family is verified at the cost of one member per run.  A run is a
    maximal sequence of consecutive members that are finite, fit the
    iterate's io dimensions, pass the pure_char filters (contractive
    colligation, definite defects), share D and are joined by finite
    certificates, in a family whose runs save more grid work than their
    bounds cost (:func:`_forms_runs`: (members - 1) state_dim^2 >= 256, or
    a matrix-valued iterate and 3 or more members); a correct such family
    is one run, and in any other every member is measured.  Measured, per
    member and pair: unitarity and similarity; for the first member of each
    run, its anchor, and for every member outside a run: transfer_oracle
    and pure_char, from one solve of I - lambda A per point shared by the
    transfer and the characteristic function, and transfer_across_k of a
    pair that a run does not join (plus the drift of member k when it is
    not an anchor).  Bounded, for every other member: transfer_oracle,
    transfer_across_k and pure_char are the anchor's
    measured value plus proven terms from the certificates, the colligation
    norms and the member's defect decompositions, each with the rounding
    term 16 eps (state_dim + io) rho^2 per member compared, rho = 1/(1 -
    |lambda| nu) (see :func:`_pure_char_residual`).  A bound is at least the
    value measuring its member would give, and it is reported only when it
    passes its threshold: a family with a bound past its threshold, as at
    grid radii near 1, where rho reaches 1e3, is measured member by member
    instead.  So the verdict is the one measuring every member gives.

    A member whose state dimension differs from its neighbours' is
    reported, not raised: the similarities that pair it are inf.  So is a
    member whose input or output dimension differs from the iterate's: its
    transfer_oracle, pure_char and similarities are inf, as is every
    transfer_across_k that pairs it.  A member whose blocks are not all finite
    is reported the same way, and its unitarity is inf too: no numpy kernel
    sees its blocks, since LAPACK does not converge on them.
    """
    tol = chain.source.tol
    pts = np.asarray(disk_grid() if grid is None else grid, dtype=complex)
    report = ChainReport()

    report.add("colligation_unitarity", "", la.unitarity_residual(chain.source.colligation()))

    seq = chain.params
    try:
        seq.validate()
        shape_bad = 0.0
    except InvalidSequence:
        shape_bad = 1.0
    report.add("shape", "", shape_bad)

    dims = [s.dim for s in chain.h_chain]
    monotone = all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))
    report.add("h_monotone", "", 0.0 if monotone else 1.0)
    if seq.terminated:
        report.add(
            "termination_bound",
            "",
            0.0 if len(seq) - 1 <= chain.source.state_dim else 1.0,
        )

    oracle = schur_oracle(chain.source.sampled(), len(seq) - 1, tol)
    if oracle.breakdown is not None:
        report.add("oracle_breakdown", str(oracle.breakdown), float("inf"))
    else:
        # at gamma's scale: next to a parameter of norm near 1 the function
        # route loses more digits than is_unitary_parameter's band allows
        unitary = la.unitarity_residual(oracle.params.gammas[-1]) <= CHAIN_THRESHOLDS["gamma"]
        agree = len(oracle.params) == len(seq) and unitary == seq.terminated
        report.add("termination_match", "", 0.0 if agree else 1.0)
    # (omega, psi) per step: the oracle's input and output bases in the
    # chain's.  An invalid sequence may have fewer bases than parameters;
    # shape reports it, and only the steps with bases are compared
    n_bases = min(len(seq.doms), len(seq.codoms), len(oracle.doms))
    aligners = [(adj(seq.doms[n]) @ oracle.doms[n], adj(seq.codoms[n]) @ oracle.codoms[n])
                for n in range(n_bases)]
    for n in range(min(len(seq), n_bases, len(oracle.params))):
        omega, psi = aligners[n]
        report.add("alignment", str(n), max(la._isometry_gap(omega), la._isometry_gap(psi)))
        report.add(
            "gamma", str(n),
            la.matnorm_diff(seq.gammas[n], psi @ oracle.params.gammas[n] @ adj(omega)),
        )

    for idx, family in enumerate(chain.families):
        n = idx + 1
        if n >= n_bases:
            break
        omega, psi = aligners[n]
        theta_o = oracle.iterates[n]
        aligned = psi @ theta_o.on(pts) @ adj(omega)
        try:
            pair = _defect_pair(psi @ theta_o(0) @ adj(omega), tol)
        except SchurkitError:
            pair = None
        finite = np.array([_is_finite(s) for s in family])
        fits = finite & np.array([(s.out_dim, s.in_dim) == aligned.shape[1:] for s in family])
        intertwiners = [_lattice_intertwiner(chain, idx, k) for k in range(len(family) - 1)]
        unitarity = np.full(len(family), np.inf)
        similarity = np.full(len(intertwiners), np.inf)
        stacks = []  # the stacks whose io dimensions are the iterate's
        for members, blocks in _state_groups(family, finite):
            norms, iso_gap, coiso_gap = la._norm_and_gaps(assemble_blocks(*blocks))
            unitarity[members] = np.maximum(iso_gap, coiso_gap)
            # the pairs (k, k+1) of this group whose intertwiner maps its state
            # space to itself, as positions i of k in the group
            firsts = np.array([i for i in range(len(members) - 1)
                               if members[i + 1] == members[i] + 1
                               and intertwiners[members[i]].shape == blocks[3].shape[1:]],
                              dtype=int)
            links = np.full(len(members) - 1, np.inf)
            if firsts.size:
                ks = members[firsts]
                links[firsts] = similarity[ks] = intertwining_residual(
                    tuple(x[firsts] for x in blocks), tuple(x[firsts + 1] for x in blocks),
                    np.array([intertwiners[k] for k in ks]))
            if fits[members[0]]:
                stacks.append((members, blocks, norms, links))
        to_oracle, across_k, pure, measured = _family_transfers(
            stacks, fits, pair, aligned, pts, tol, runs=True)
        if not measured.all() and _bound_fails(to_oracle, across_k, pure, measured, fits):
            # a bound that would fail is replaced by the measurement
            to_oracle, across_k, pure, _ = _family_transfers(
                stacks, fits, pair, aligned, pts, tol, runs=False)
        for k in range(len(family)):
            report.add("unitarity", f"{n},{k}", unitarity[k])
            report.add("transfer_oracle", f"{n},{k}", to_oracle[k])
            report.add("pure_char", f"{n},{k}", pure[k])
        for k in range(len(family) - 1):
            report.add("transfer_across_k", f"{n},{k}", across_k[k])
            report.add("similarity", f"{n},{k}", similarity[k])
    return report


def _family_transfers(stacks, fits: np.ndarray, pair: DefectPair | None,
                      aligned: np.ndarray, pts: np.ndarray, tol: Tolerance, runs: bool):
    """(transfer_oracle, transfer_across_k, pure_char, measured) of a family
    whose members ``fits`` selects are stacked in ``stacks`` as (members,
    blocks, norms, links); members join runs only when ``runs`` is set, and
    ``measured`` marks the members whose transfer_oracle and pure_char are
    measured rather than bounded."""
    transfers = np.zeros((len(fits),) + aligned.shape, dtype=complex)
    pure = np.full(len(fits), np.inf)
    # per member its run's anchor and the bound on its distance to it,
    # per pair the bound on its distance when both lie in one run
    anchor = np.arange(len(fits))
    drift = np.zeros(len(fits))
    step = np.full(len(fits) - 1, np.nan)
    for members, blocks, norms, links in stacks:
        transfers[members], pure[members], at, drift[members], steps = (
            _pure_char_residual(blocks, norms, links, pair, aligned, pts, tol, runs))
        anchor[members] = members[at]
        joined = ~np.isnan(steps)
        step[members[:-1][joined]] = steps[joined]
    measured = anchor == np.arange(len(fits))
    if measured.all():
        # no runs: every member is measured
        to_oracle = grid_distance(transfers, np.broadcast_to(aligned, transfers.shape), pts)
        across_k = grid_distance(transfers[:-1], transfers[1:], pts)
    else:
        to_oracle, across_k = _run_distances(transfers, aligned, anchor, drift, step, pts)
    to_oracle[~fits] = np.inf
    across_k[~(fits[:-1] & fits[1:])] = np.inf
    return to_oracle, across_k, pure, measured


def _bound_fails(to_oracle: np.ndarray, across_k: np.ndarray, pure: np.ndarray,
                 measured: np.ndarray, fits: np.ndarray) -> bool:
    """Whether a bound of :func:`_family_transfers` exceeds its threshold:
    the transfer_oracle or pure_char of a member not ``measured``, or the
    transfer_across_k of a pair of members that ``fits`` selects and that
    are not both measured."""
    bounded = ~(measured[:-1] & measured[1:]) & fits[:-1] & fits[1:]
    return not ((to_oracle[~measured] <= CHAIN_THRESHOLDS["transfer_oracle"]).all()
                and (pure[~measured] <= CHAIN_THRESHOLDS["pure_char"]).all()
                and (across_k[bounded] <= CHAIN_THRESHOLDS["transfer_across_k"]).all())


def _run_distances(transfers: np.ndarray, aligned: np.ndarray, anchor: np.ndarray,
                   drift: np.ndarray, step: np.ndarray, pts: np.ndarray):
    """(transfer_oracle, transfer_across_k) of a family with runs, from the
    anchors' transfer functions, each member's ``anchor`` and ``drift`` and the
    ``step`` bounds of the pairs that a run joins (nan for the others)."""
    measured = anchor == np.arange(len(anchor))
    to_oracle = np.empty(len(anchor))
    to_oracle[measured] = grid_distance(
        transfers[measured], np.broadcast_to(aligned, transfers[measured].shape), pts)
    to_oracle = to_oracle[anchor] + drift
    # a pair split between runs: its anchors' distance plus the drift of k
    # (member k+1 starts a run, so it is its own anchor)
    across_k = step.copy()
    split = np.flatnonzero(np.isnan(step))
    if split.size:
        across_k[split] = grid_distance(transfers[anchor[split]], transfers[split + 1],
                                        pts) + drift[split]
    return to_oracle, across_k


def _index_groups(keys) -> list[np.ndarray]:
    """Positions of equal keys, one array per distinct key, in order of
    first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [np.array(g) for g in groups.values()]


def _is_finite(s: DiscreteSystem) -> bool:
    return all(np.isfinite(getattr(s.block, blk)).all() for blk in "dcba")


def _state_groups(family: list[DiscreteSystem], finite: np.ndarray):
    """The members of ``family`` that ``finite`` selects, grouped by state,
    input and output dimension: per group the member positions and the
    (d, c, b, a) blocks stacked along a leading member axis."""
    keys = [(s.state_dim, s.in_dim, s.out_dim) if ok else None
            for s, ok in zip(family, finite)]
    for members in _index_groups(keys):
        if keys[members[0]] is not None:
            yield members, tuple(np.array([getattr(family[i].block, blk) for i in members])
                                 for blk in "dcba")


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack: upper bounds of the spectral norms at
    no spectral kernel call."""
    return np.linalg.norm(m, axis=(-2, -1))


# Constant of the rounding term of the anchor bounds, and the least work
# (members - 1) state_dim^2 that runs must skip (see _forms_runs).
_ROUNDING = 16.0
_RUN_WORK = 256


def _forms_runs(state_dim: int, members: int, scalar: bool) -> bool:
    """Whether a stack of ``members`` family members on ``state_dim``
    dimensions, of scalar transfer functions when ``scalar`` is set, joins
    runs: when the grid work the runs skip pays for their bounds' few dozen
    small numpy calls.  A member skipped saves its solves of I - lambda A,
    and for a matrix-valued iterate also its norm kernel call per point;
    timed per family on one BLAS thread, runs cost 3-38% more on scalar
    families with (members - 1) state_dim^2 < 256 (every family of the
    scalar d <= 10 chains) and on matrix-valued ones of 2 members up to 10
    dimensions, and save 2-66% on the others measured."""
    return (members - 1) * state_dim**2 >= _RUN_WORK or (not scalar and members >= 3)


def _pure_char_residual(blocks, norms: np.ndarray, links: np.ndarray,
                        pair: DefectPair | None, theta: np.ndarray, pts: np.ndarray,
                        tol: Tolerance, runs: bool):
    """Transfer functions and pure_char residuals of a stack of family
    members whose io dimensions are the iterate's, measured on the grid for
    one member per run and bounded for the others.

    ``blocks`` are the members' stacked (d, c, b, a), ``norms`` the norms
    nu of their [D C; B A] and ``links[i]`` the similarity certificate s of
    members i and i+1 (inf when none); ``theta`` is the iterate's stack on
    ``pts`` and ``pair`` the defect pair of its value at 0, None when either
    failed.  Returns (transfers, residuals, anchors, drifts, steps): per
    member its transfer function on ``pts`` (0 but for anchors), its
    pure_char residual, the position of its run's anchor and a bound on
    max |T - T_anchor| over the grid; per pair (i, i+1) of one run a bound
    on max |T_i - T_{i+1}|, nan for a pair split between runs.

    Runs.  A member is eligible when its colligation is a contraction (nu
    <= 1 + eq_abs) and both defect eigenvalue sets lie above -eq_abs; a
    run is a maximal sequence of eligible members, each joined to the next
    by a finite certificate and an equal D; every other member is a run of
    its own.  Only the stacks that :func:`_forms_runs` selects, with
    ``runs`` set, join runs at all.  The first member of a run, its anchor,
    is measured: its transfer function and the characteristic function of
    its state share one solve of I - lambda A.  Anchors are stacked by the
    ranks of D_A and D_A* so that their defect bases stack, and each rank
    group makes one solve against [B | D_A* U]; its first io columns give
    the transfer functions, the others the characteristic functions.  The
    residual compares the pure part of the iterate with K phi M, phi the
    characteristic function of A* (V* (-A* U + lambda D_A R D_A* U), the
    transfer function of the colligation :func:`~schurkit.systems._char_blocks`
    gives, whose state block is A) and K = C D_A^+ V, M = U* D_A*^+ B, with
    U and V bases of the defect spaces of A* and A.  A member's residual is
    inf when ``pair`` is None or it is not eligible; such an anchor's
    transfer function comes from a solve against B alone.

    Bounds.  With R = (I - lambda A)^{-1}, rho = 1/(1 - |lambda| nu) (inf
    when |lambda| nu >= 1) and E_A = U A_i - A_{i+1} U, E_B = U B_i - B_{i+1},
    E_C = C_i - C_{i+1} U, all of norm <= s_i, the exact identity
    T_i - T_{i+1} = lambda [E_C R_i B_i + lambda C_{i+1} R_{i+1} E_A R_i B_i
    + C_{i+1} R_{i+1} E_B] gives |T_i - T_{i+1}| <= b_i = |lambda| s_i
    (rho_i nu_i + |lambda| nu_{i+1} rho_{i+1} rho_i nu_i + nu_{i+1} rho_{i+1}),
    since nu bounds ||A||, ||B|| and ||C||.  With P_A = VV*, P_A* = UU* and
    c = D + C D_A^+ A* D_A*^+ B, T - K phi M - c = lambda C (R - P_A R P_A*) B
    exactly, of norm <= r = |lambda| rho nu (||C - C P_A|| + ||B - P_A* B||).
    So member j of the run of anchor a has drift max over the grid of
    sum_{a <= i < j} b_i + t_a + t_j, and pure_char(j) <= pure_char(a) +
    max (drift terms + r_a + r_j) + ||F* (c_j - c_a) E||, with E and F the
    bases of ``pair``; the norms of r and of the constants are Frobenius
    norms, which bound the spectral ones.  Every term grows with |lambda|,
    so each maximum over the grid is taken at its largest |lambda|.  The
    rounding term t = 16 eps (state_dim + io) rho^2 bounds the rounding of
    one member's measured transfer function and of the bound's own
    products, so a bound is at least the measurement also where a
    certificate is exactly 0.  A non-anchor takes its stacked defect eighs
    and O(d^2 io) products, and no solve on the grid.
    """
    d, c, b, a = blocks
    transfers = np.zeros((len(d),) + theta.shape, dtype=complex)
    resid = np.full(len(d), np.inf)
    contractive = np.flatnonzero(norms <= 1.0 + tol.eq_abs)
    a_star = adj(a[contractive])
    # D_A* and D_A: the defect and the adjoint defect of A*
    w_as, vecs_as, keep_as, low_as = la._defect_decision(a_star, tol, adjoint=False)
    w_a, vecs_a, keep_a, low_a = la._defect_decision(a_star, tol, adjoint=True)
    definite = np.flatnonzero(np.minimum(low_a, low_as) >= -tol.eq_abs)
    joined = np.zeros(len(d) - 1, dtype=bool)
    if runs and _forms_runs(a.shape[-1], len(d), c.shape[-2] * b.shape[-1] == 1):
        eligible = np.zeros(len(d), dtype=bool)
        eligible[contractive[definite]] = True
        joined = (eligible[:-1] & eligible[1:] & np.isfinite(links)
                  & (d[:-1] == d[1:]).all(axis=(-2, -1)))
    is_anchor = np.concatenate([[True], ~joined])
    anchors = np.maximum.accumulate(np.where(is_anchor, np.arange(len(d)), 0))
    unsolved = is_anchor.copy()
    if pair is not None:
        ep, fp = pair[0].space.basis, pair[1].space.basis
        target = adj(fp) @ theta @ ep
        ranks = zip(keep_a[definite].sum(-1), keep_as[definite].sum(-1))
        for sel in (definite[g] for g in _index_groups(ranks)):
            sel = sel[is_anchor[contractive[sel]]]
            if not sel.size:
                continue
            members = contractive[sel]
            op_as, pinv_as = la._defect_ops(w_as[sel], vecs_as[sel], keep_as[sel])
            op_a, pinv_a = la._defect_ops(w_a[sel], vecs_a[sel], keep_a[sel])
            basis_a = la.defect_basis(vecs_a[sel], keep_a[sel[0]])
            basis_as = la.defect_basis(vecs_as[sel], keep_as[sel[0]])
            d_char, c_char, b_char, _ = _char_blocks(a_star[sel], op_as, op_a,
                                                     basis_as, basis_a)
            rhs = np.concatenate([b[members], b_char], -1)
            x_b, x_char = (np.ascontiguousarray(x) for x in np.split(
                resolvent_stack(a[members], rhs, pts), [b.shape[-1]], -1))
            transfers[members] = transfer_of_resolvent(d[members], c[members], x_b, pts)
            phi = transfer_of_resolvent(d_char, c_char, x_char, pts)
            k = c[members] @ pinv_a @ basis_a
            m = adj(basis_as) @ pinv_as @ b[members]
            model = adj(fp) @ (k[:, None] @ phi @ m[:, None]) @ ep
            resid[members] = la.stack_matnorm_diff(np.broadcast_to(target, model.shape),
                                                   model)
            unsolved[members] = False
    if unsolved.any():
        transfers[unsolved] = transfer_stack(*(x[unsolved] for x in blocks), pts)
    drifts = np.zeros(len(d))
    steps = np.full(len(d) - 1, np.nan)
    if not joined.any():
        return transfers, resid, anchors, drifts, steps
    # every term grows with |lambda|, so its largest value on the grid is
    # its value at the largest |lambda|
    lam = np.abs(pts).max(initial=0.0)
    rho = np.full(len(d), np.inf)
    inside = lam * norms < 1.0
    rho[inside] = 1.0 / (1.0 - lam * norms[inside])
    nr = norms * rho
    t = _ROUNDING * np.finfo(float).eps * (a.shape[-1] + max(b.shape[-1], c.shape[-2])) * rho**2
    i = np.flatnonzero(joined)
    pairs = np.zeros(len(d) - 1)
    pairs[i] = lam * links[i] * (nr[i] + lam * nr[i + 1] * nr[i] + nr[i + 1])
    steps[i] = np.nan_to_num(pairs[i] + t[i] + t[i + 1], nan=np.inf)
    cum = np.concatenate([[0.0], np.cumsum(pairs)])
    member = np.flatnonzero(~is_anchor)
    own = anchors[member]
    excess = np.nan_to_num(cum[member] - cum[own] + t[own] + t[member], nan=np.inf)
    drifts[member] = excess
    if pair is None:
        return transfers, resid, anchors, drifts, steps
    # the constant c and the defect parts r of the members of runs
    pos = np.full(len(d), -1)
    pos[contractive] = np.arange(len(contractive))
    runs = np.flatnonzero(~is_anchor | np.append(joined, False))
    q = pos[runs]
    # in the eigenbases, at O(d^2 io) each: C V, V_* B, C D_A^+ and D_A*^+ B
    cv = c[runs] @ vecs_a[q]
    vb = adj(vecs_as[q]) @ b[runs]
    inv_a = keep_a[q] / np.sqrt(np.where(keep_a[q], w_a[q], 1.0))
    inv_as = keep_as[q] / np.sqrt(np.where(keep_as[q], w_as[q], 1.0))
    const = d[runs] + ((cv * inv_a[:, None, :]) @ adj(vecs_a[q])) @ a_star[q] @ (
        vecs_as[q] @ (vb * inv_as[:, :, None]))
    off = (_frobenius(c[runs] - (cv * keep_a[q][:, None, :]) @ adj(vecs_a[q]))
           + _frobenius(b[runs] - vecs_as[q] @ (vb * keep_as[q][:, :, None])))
    r = np.zeros(len(d))
    r[runs] = lam * nr[runs] * off
    at = np.full(len(d), -1)
    at[runs] = np.arange(len(runs))
    shift = _frobenius(adj(fp) @ (const[at[member]] - const[at[own]]) @ ep)
    resid[member] = resid[own] + np.nan_to_num(excess + r[own] + r[member], nan=np.inf) + shift
    return transfers, resid, anchors, drifts, steps
