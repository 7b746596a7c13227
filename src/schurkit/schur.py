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


def _defect_bases(g: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(E, F): the bases of the defect spaces of g and g*, from the two rank
    decisions of :func:`_defect_pair` without its defect operators.  Raises
    as :func:`~schurkit.linalg.defect_of` does on a non-contraction."""
    e, f = (la.defect_basis(*la._checked_decision(g, tol, adjoint)[1:])
            for adjoint in (False, True))
    return e, f


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


def _in_bases(m: np.ndarray, rows: Subspace, cols: Subspace) -> np.ndarray:
    """F* M E, per matrix of a stack, for the bases F of ``rows`` and E of
    ``cols``, two defect spaces.  A full defect space has the identity basis
    (see :func:`~schurkit.linalg.defect_basis`), whose product is skipped.
    For a finite M the values are the same.  An entry inf of M stays as it
    is, where the product would spread nan (inf * 0) over the rest of its
    column or row; the result is non-finite either way."""
    if rows.dim < rows.ambient_dim:
        m = adj(rows.basis) @ m
    if cols.dim < cols.ambient_dim:
        m = m @ cols.basis
    return m


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
    1e4 over the run.

    A level asks theta only for the points it divides at, |z| >= 0.65 (every
    point when it does not divide), and keeps the last array of them with
    its values, so that iterates sampled level by level on one grid solve
    each level there once, and the source function is sampled only on the
    circle, at 0 and at the grid's points outside the read-off disk.

    The circle is taken through theta's circle sampler where it has one
    (:meth:`~schurkit.systems.SampledFunction._on_circle`), which a
    realized source, Theta = D + lambda C (I - lambda A)^{-1} B, has: its
    values there are one length-N DFT of the Markov coefficients C A^{k-1}
    B, scaled by r^k and folded mod N, summed up to the least K whose tail
    ||C|| ||B|| r^K ||A||^{K-1} / (1 - r||A||) is below 2^-56 max(1, ||C||
    ||B||), and moved to first order from the DFT's nodes onto the rounded
    points (see :func:`~schurkit.systems._circle_stack`).  A source with a
    non-finite block, r||A|| >= 1 or K > 4N is solved on the circle, as
    every other point of the source and every iterate past the first are.
    """

    def __init__(self, theta: SampledFunction, gamma: np.ndarray, tol: Tolerance,
                 divide: bool, points: np.ndarray):
        self.defects = _defect_pair(gamma, tol)
        dd, dds = self.defects
        self.dom, self.cod = dd.space, dds.space
        self.theta, self.gamma, self.divide = theta, gamma, divide
        self.d_restr = _in_bases(dds.op, self.cod, self.cod)
        self.j_restr = _in_bases(dd.op_pinv, self.dom, self.dom)
        self.points = points
        self.circle: np.ndarray | None = None
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def _core(self, pts: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The value at ``pts`` from the stack ``t`` of theta there."""
        g = self.gamma
        pencil = _in_bases(la.eye(g.shape[0]) - t @ adj(g), self.cod, self.cod)
        num = _in_bases(t - g, self.cod, self.dom)
        value = self.d_restr @ np.linalg.solve(pencil, num) @ self.j_restr
        return value / pts[:, None, None] if self.divide else value

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if np.array_equal(pts, self.points):
            if self.circle is None:
                self.circle = self._core(self.points, self.theta._on_circle(self.points))
                self.circle.flags.writeable = False
            return self.circle
        inside = np.abs(pts) < (_READ_OFF_RADIUS if self.divide else 0.0)
        values = np.empty((pts.shape[0], self.cod.dim, self.dom.dim), dtype=complex)
        if inside.any():
            kernel = 1.0 / (1.0 - pts[inside, None] / self.points) / len(self.points)
            flat = kernel @ self(self.points).reshape(len(self.points), -1)
            values[inside] = flat.reshape((len(flat),) + values.shape[1:])
        if not inside.all():
            outer = pts[~inside]
            if self.last is None or not np.array_equal(outer, self.last[0]):
                self.last = (outer, self._core(outer, self.theta.on(outer)))
            values[~inside] = self.last[1]
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
    part of the oracle iterate on the defect spaces of its value at 0 and
    of that value's adjoint, of which only the bases are taken; (e)
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

    Every member's unitarity and every pair's similarity are measured, and
    the transfer residuals and pure_char of a family in one of two ways.
    As one run: when the family is one stack of finite members with the
    iterate's io dimensions, :func:`_forms_runs` selects it ((members - 1)
    state_dim^2 >= 256, or a matrix-valued iterate and 3 or more members),
    the oracle's value at 0 has defect bases (it is finite and its defects
    are definite), and every member has a
    contractive colligation, definite defects, a finite certificate to the
    next member and an equal D, member 0 is measured and the others are
    bounded from it (see :func:`_pure_char_residual`).  A bound is at least
    the value measuring its member would give, and a family with a bound
    past its threshold has its other members measured too.  Otherwise,
    every member is measured, from one solve of I - lambda A per point
    shared by its transfer function and its characteristic function.  So
    the verdict is the one measuring every member gives.

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
            bases = _defect_bases(psi @ theta_o(0) @ adj(omega), tol)
        except SchurkitError:
            bases = None
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
        to_oracle, across_k, pure = _family_transfers(stacks, fits, bases, aligned, pts, tol)
        for k in range(len(family)):
            report.add("unitarity", f"{n},{k}", unitarity[k])
            report.add("transfer_oracle", f"{n},{k}", to_oracle[k])
            report.add("pure_char", f"{n},{k}", pure[k])
        for k in range(len(family) - 1):
            report.add("transfer_across_k", f"{n},{k}", across_k[k])
            report.add("similarity", f"{n},{k}", similarity[k])
    return report


def _family_transfers(stacks, fits: np.ndarray, bases: tuple | None,
                      aligned: np.ndarray, pts: np.ndarray, tol: Tolerance):
    """(transfer_oracle, transfer_across_k, pure_char) of a family whose members
    ``fits`` selects are stacked in ``stacks`` as (members, blocks, norms,
    links); only a family that is one stack of all its members can be a run."""
    transfers = np.zeros((len(fits),) + aligned.shape, dtype=complex)
    pure = np.full(len(fits), np.inf)
    whole = len(stacks) == 1 and len(stacks[0][0]) == len(fits)
    for members, blocks, norms, links in stacks:
        transfers[members], pure[members], bounds = _pure_char_residual(
            blocks, norms, links if whole else None, bases, aligned, pts, tol)
        if bounds is not None:
            return *bounds, pure
    to_oracle = grid_distance(transfers, np.broadcast_to(aligned, transfers.shape), pts)
    across_k = grid_distance(transfers[:-1], transfers[1:], pts)
    to_oracle[~fits] = np.inf
    across_k[~(fits[:-1] & fits[1:])] = np.inf
    return to_oracle, across_k, pure


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
# (members - 1) state_dim^2 that a run must skip (see _forms_runs).
_ROUNDING = 16.0
_RUN_WORK = 256


def _forms_runs(state_dim: int, members: int, scalar: bool) -> bool:
    """Whether a stack of ``members`` family members on ``state_dim``
    dimensions, of scalar transfer functions when ``scalar`` is set, may be
    one run: when the grid work the run skips pays for its bounds' few dozen
    small numpy calls.  A member skipped saves its solves of I - lambda A,
    and for a matrix-valued iterate also its norm kernel call per point;
    timed per family on one BLAS thread, runs cost 3-38% more on scalar
    families with (members - 1) state_dim^2 < 256 (every family of the
    scalar d <= 10 chains) and on matrix-valued ones of 2 members up to 10
    dimensions, and save 2-66% on the others measured."""
    return (members - 1) * state_dim**2 >= _RUN_WORK or (not scalar and members >= 3)


def _pure_char_residual(blocks, norms: np.ndarray, links: np.ndarray | None,
                        bases: tuple | None, theta: np.ndarray, pts: np.ndarray,
                        tol: Tolerance):
    """Transfer functions and pure_char residuals of a stack of family
    members whose io dimensions are the iterate's.

    ``blocks`` are the members' stacked (d, c, b, a), ``norms`` the norms
    nu of their [D C; B A] and ``links[i]`` the similarity certificate s of
    members i and i+1, None when the stack is not its whole family;
    ``theta`` is the iterate's stack on ``pts`` and ``bases`` the bases
    (E, F) of the defect spaces of its value at 0 and of that value's
    adjoint, None when either failed.  Returns (transfers,
    residuals, bounds): per member its transfer function on ``pts`` and its
    pure_char residual, and the (transfer_oracle, transfer_across_k) of a
    run, None when every member is measured.

    A member is measured when its transfer function and the characteristic
    function phi of A* (the transfer function of the colligation
    :func:`~schurkit.systems._char_blocks` gives, whose state block is A)
    share one solve of I - lambda A against [B | D_A* U], stacked by the
    ranks of D_A and D_A*; its residual compares the pure part of the
    iterate with K phi M, K = C D_A^+ V and M = U* D_A*^+ B, with U and V
    bases of the defect spaces of A* and A.  The residual is inf when
    ``bases`` is None or the member is not eligible: a contractive
    colligation (nu <= 1 + eq_abs) and both defect eigenvalue sets above
    -eq_abs; such a member is solved against B alone.

    The stack is one run when ``links`` and ``bases`` are given,
    :func:`_forms_runs` selects it, and every member is eligible, has a
    finite certificate to the next and member 0's D.  Only member 0, the
    anchor, is then solved, and the others are bounded.  With R = (I -
    lambda A)^{-1}, rho = 1/(1 - |lambda| nu) (inf when |lambda| nu >= 1)
    and E_A = U A_i - A_{i+1} U, E_B = U B_i - B_{i+1}, E_C = C_i - C_{i+1}
    U, all of norm <= s_i, the identity T_i - T_{i+1} = lambda [E_C R_i B_i
    + lambda C_{i+1} R_{i+1} E_A R_i B_i + C_{i+1} R_{i+1} E_B] gives
    |T_i - T_{i+1}| <= b_i = |lambda| s_i (rho_i nu_i + |lambda| nu_{i+1}
    rho_{i+1} rho_i nu_i + nu_{i+1} rho_{i+1}).  With P_A = VV*, P_A* = UU*
    and c = D + C D_A^+ A* D_A*^+ B, T - K phi M - c = lambda C (R - P_A R
    P_A*) B, of norm <= r = |lambda| rho nu (||C - C P_A|| + ||B - P_A* B||).
    So member j drifts from the anchor by at most sum_{i < j} b_i + t_0 +
    t_j, and pure_char(j) <= pure_char(0) + drift + r_0 + r_j + ||F* (c_j -
    c_0) E||, with (E, F) = ``bases``, in Frobenius norms, which bound
    the spectral ones; each term is taken at the grid's largest |lambda|,
    where it is largest.  The rounding term t = 16 eps (state_dim + io) rho^2
    keeps a bound at least the measurement also where a certificate is 0.
    If any bound is past its threshold, as at grid radii near 1, where rho
    reaches 1e3, the other members are solved as well, and every member is
    measured.
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
    if bases is not None:
        ep, fp = bases
        target = adj(fp) @ theta @ ep

    def measure(part: slice):
        # the members ``part`` selects: the eligible ones in one solve per
        # rank group against [B | D_A* U], the others against B alone
        unsolved = np.zeros(len(d), dtype=bool)
        unsolved[part] = True
        if bases is not None:
            ranks = zip(keep_a[definite].sum(-1), keep_as[definite].sum(-1))
            for sel in (definite[g] for g in _index_groups(ranks)):
                sel = sel[unsolved[contractive[sel]]]
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

    if not (links is not None and bases is not None and len(definite) == len(d)
            and _forms_runs(a.shape[-1], len(d), c.shape[-2] * b.shape[-1] == 1)
            and np.isfinite(links).all() and (d[:-1] == d[1:]).all()):
        measure(slice(None))
        return transfers, resid, None
    measure(slice(0, 1))
    # the bounds of the others, each term at the grid's largest |lambda|
    lam = np.abs(pts).max(initial=0.0)
    rho = np.full(len(d), np.inf)
    inside = lam * norms < 1.0
    rho[inside] = 1.0 / (1.0 - lam * norms[inside])
    nr = norms * rho
    t = _ROUNDING * np.finfo(float).eps * (a.shape[-1] + max(b.shape[-1], c.shape[-2])) * rho**2
    steps = lam * links * (nr[:-1] + lam * nr[1:] * nr[:-1] + nr[1:])
    across_k = np.nan_to_num(steps + t[:-1] + t[1:], nan=np.inf)
    drift = np.nan_to_num(np.cumsum(steps) + t[0] + t[1:], nan=np.inf)
    # the constant c and the defect part r of each member, in the
    # eigenbases at O(d^2 io) each: C V, V_* B, C D_A^+ and D_A*^+ B
    cv = c @ vecs_a
    vb = adj(vecs_as) @ b
    inv_a = keep_a / np.sqrt(np.where(keep_a, w_a, 1.0))
    inv_as = keep_as / np.sqrt(np.where(keep_as, w_as, 1.0))
    const = d + ((cv * inv_a[:, None, :]) @ adj(vecs_a)) @ a_star @ (
        vecs_as @ (vb * inv_as[:, :, None]))
    r = lam * nr * (_frobenius(c - (cv * keep_a[:, None, :]) @ adj(vecs_a))
                    + _frobenius(b - vecs_as @ (vb * keep_as[:, :, None])))
    shift = _frobenius(adj(fp) @ (const[1:] - const[0]) @ ep)
    pure = resid[0] + np.nan_to_num(drift + r[0] + r[1:], nan=np.inf) + shift
    to_oracle = grid_distance(transfers[:1], np.broadcast_to(theta, transfers[:1].shape),
                              pts) + np.concatenate([[0.0], drift])
    if ((to_oracle[1:] <= CHAIN_THRESHOLDS["transfer_oracle"]).all()
            and (pure <= CHAIN_THRESHOLDS["pure_char"]).all()
            and (across_k <= CHAIN_THRESHOLDS["transfer_across_k"]).all()):
        resid[1:] = pure
        return transfers, resid, (to_oracle, across_k)
    measure(slice(1, None))
    return transfers, resid, None
