"""Dense complex linear algebra with explicit rank decisions.

All matrices are 2-D ``numpy`` arrays of ``complex128``; zero-dimensional
shapes such as ``(p, 0)`` are legal everywhere and behave like the empty
operator between the corresponding spaces.  The norm and defect helpers
also take stacks ``(..., rows, cols)`` and then answer per matrix; numpy's
stacked kernels return, bit for bit, what they return for each matrix.
Every rank decision in the
package funnels through one relative cutoff, ``Tolerance.rank_rel``:
singular values of a matrix are cut at ``rank_rel`` times the largest one,
while defects and intersections are decided on a squared scale by one
function, which cuts the eigenvalues of I - X*X; an intersection is the
adjoint defect decision of G = W_S* W_O, whose eigenvalues are squared
sines of principal angles.  Block Krylov bases and intersections with the
complement of a span make the same squared-scale cut on squared singular
values.  Every approximate comparison goes through one absolute tolerance
(``Tolerance.eq_abs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatch, IndefiniteBeyondTolerance, NotContraction


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs shared by the whole package.

    rank_rel : relative singular-value cutoff for rank decisions
    eq_abs   : absolute tolerance for approximate equality tests
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError("rank_rel must lie in (0, 1)")
        if self.eq_abs <= 0.0:
            raise ValueError("eq_abs must be positive")


DEFAULT_TOL = Tolerance()


def cmatrix(data, rows=None, cols=None) -> np.ndarray:
    """Coerce ``data`` to a 2-D complex matrix.

    ``rows``/``cols`` are required only when ``data`` is empty and the
    shape cannot be inferred.
    """
    a = np.asarray(data, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and cols is not None and a.size == 0:
        a = a.reshape(rows, cols)
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=complex)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-2, -1)


# Largest entry moduli for which _gram_eigvalsh skips its scaling.
_UNSCALED = (2.0 ** -200, 2.0 ** 200)


def _gram_eigvalsh(m: np.ndarray):
    """The one spectral kernel of the norm helpers: ``(w, e)``, per matrix
    of a stack, the ascending eigenvalues ``w`` of the smaller Gram matrix
    of 2^-e M (M*M when M has no more columns than rows, MM* otherwise).

    The exponent e is the ``frexp`` exponent of the largest entry modulus,
    or of 2^-1000 when that is larger, so that 2^-e stays finite; it brings
    the entries below 1 and the largest (past 2^-1000) to at least 1/2.
    Scaling by a power of two is exact, and it keeps norms from 1e-300 to
    1e300 from underflowing or overflowing in the Gram.  A stack whose
    matrices all have their largest entry modulus in [2^-200, 2^200] is not
    scaled (e = 0): the entries of such a matrix's Gram lie within 2^-400
    to n 2^400, where eigvalsh neither underflows nor rescales, so it
    returns the same values, up to the exact factor 4^e, as for the scaled
    matrix.  So a matrix of a stack gets what it gets alone, scaled or not,
    and a stack inside the window makes none of the scaling calls; a single
    matrix is tested as a Python float, at no numpy call.
    The larger Gram has the eigenvalues of the smaller one and
    |rows - cols| zeros.  ||M||^2 = 4^e max w.
    """
    top = np.abs(m).max(axis=(-2, -1), initial=2.0 ** -1000)
    low, high = _UNSCALED
    if (low <= float(top) <= high if top.ndim == 0
            else low <= top.min(initial=high) and top.max(initial=low) <= high):
        e = 0
    else:
        _, e = np.frexp(top)
        m = m * np.ldexp(1.0, -e)[..., None, None]
    gram = adj(m) @ m if m.shape[-1] <= m.shape[-2] else m @ adj(m)
    return np.linalg.eigvalsh(gram), e


def _gram_norm(w: np.ndarray, e: np.ndarray):
    """||M|| from the kernel's ``(w, e)``: 2^e sqrt(max w), 0 when empty."""
    if not w.shape[-1]:
        return np.zeros(w.shape[:-1])
    return np.ldexp(np.sqrt(w[..., -1]), e)


def _gram_gap(w: np.ndarray, e: np.ndarray, padded: bool):
    """||G - I|| for the Gram G whose eigenvalues are 4^e ``w``: the larger
    of 4^e max w - 1 and 1 - 4^e min w, 0 when empty; with ``padded``, for
    the larger Gram, whose extra zero eigenvalues make it at least 1."""
    gap = np.zeros(w.shape[:-1])
    if w.shape[-1]:
        gap = np.maximum(np.ldexp(w[..., -1], 2 * e) - 1.0, 1.0 - np.ldexp(w[..., 0], 2 * e))
    return np.maximum(gap, 1.0) if padded else gap


def _as_result(m: np.ndarray, values):
    """A float for a matrix, the array of per-matrix values for a stack."""
    return float(values) if m.ndim == 2 else values


def opnorm(m: np.ndarray):
    """Operator (spectral) norm; 0 for empty matrices.  A float for a
    matrix, an array of norms for a stack.

    The square root of the largest eigenvalue of the smaller Gram matrix,
    from :func:`_gram_eigvalsh`, since ||M||^2 = lambda_max(M*M).  On the
    stacks of small matrices that the verifier measures, a stacked
    ``eigvalsh`` costs about half a stacked SVD.  Each matrix of a stack
    gets, bit for bit, the norm it gets alone.
    """
    return _as_result(m, _gram_norm(*_gram_eigvalsh(m)))


def matnorm_diff(a: np.ndarray, b: np.ndarray):
    """Spectral norm of a - b, per matrix for stacks; infinity when shapes
    differ."""
    if a.shape != b.shape:
        return float("inf")
    return opnorm(a - b)


def stack_matnorm_diff(a: np.ndarray, b: np.ndarray):
    """Largest spectral norm of a[..., i, :, :] - b[..., i, :, :] over the
    point axis i of two (..., P, rows, cols) stacks: a float for (P, rows,
    cols) stacks, one value per leading index otherwise.  Infinity when
    shapes differ, 0 for an empty point axis."""
    if a.shape != b.shape:
        return float("inf")
    worst = matnorm_diff(a, b).max(axis=-1, initial=0.0)
    return float(worst) if a.ndim == 3 else worst


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] x[i] = b[i] for a stack ``a`` (..., n, n); ``b``, one
    (..., n, k) right-hand side, is broadcast against the leading axes.

    ``b`` is broadcast explicitly: numpy before 2.0 reads a 2-D ``b`` next
    to a 3-D ``a`` as a stack of vectors.
    """
    return np.linalg.solve(a, np.broadcast_to(b, a.shape[:-1] + b.shape[-1:]))


def _isometry_gap(m: np.ndarray):
    """||M*M - I||, per matrix for a stack; 0 exactly when M is an isometry.
    At least 1 when M has more columns than rows."""
    return _as_result(m, _gram_gap(*_gram_eigvalsh(m), m.shape[-1] > m.shape[-2]))


def unitarity_residual(m: np.ndarray):
    """max(||M*M - I||, ||MM* - I||); 0 exactly when M is unitary.  Per
    matrix for a stack.  Both Grams share the eigenvalues of the smaller
    one, so one kernel call gives it: at least 1 unless M is square."""
    return _as_result(m, _gram_gap(*_gram_eigvalsh(m), m.shape[-1] != m.shape[-2]))


def _norm_and_gaps(m: np.ndarray):
    """(||M||, ||M*M - I||, ||MM* - I||), per matrix for a stack, from one
    kernel call: what contractivity, isometry and co-isometry are decided on."""
    w, e = _gram_eigvalsh(m)
    rows, cols = m.shape[-2:]
    return tuple(_as_result(m, x) for x in (
        _gram_norm(w, e), _gram_gap(w, e, cols > rows), _gram_gap(w, e, rows > cols)))


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^d stored as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, k)`` with ``basis* basis = I_k``;
    ``k = 0`` encodes the trivial subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ adj(self.basis)

    def complement(self, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        return kernel_basis(adj(self.basis), tol)

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        resid = other.basis - self.projector() @ other.basis
        return opnorm(resid) <= tol.eq_abs


def subspace(basis, ambient_dim=None) -> Subspace:
    """Wrap an orthonormal-column matrix as a :class:`Subspace`.

    Raises ``ValueError`` when the columns are not orthonormal to 1e-12.
    """
    b = cmatrix(basis, rows=ambient_dim, cols=0)
    d = b.shape[0] if ambient_dim is None else ambient_dim
    if b.shape[0] != d:
        raise AmbientMismatch(f"basis rows {b.shape[0]} != ambient {d}")
    if _isometry_gap(b) > 1e-12:
        raise ValueError("basis columns are not orthonormal")
    return Subspace(d, b)


def full_space(d: int) -> Subspace:
    return Subspace(d, eye(d))


def trivial_space(d: int) -> Subspace:
    return Subspace(d, zeros(d, 0))


@dataclass(frozen=True)
class DefectData:
    """Defect operator of a contraction with one shared rank decision.

    ``op`` is the PSD square root of I - X*X (or I - XX*), ``op_pinv`` its
    Moore-Penrose inverse on exactly the kept directions, ``space`` the
    defect subspace (ran op) and ``kernel`` its orthocomplement (ker op).
    """

    op: np.ndarray
    op_pinv: np.ndarray
    space: Subspace
    kernel: Subspace


def _defect_decision(x: np.ndarray, tol: Tolerance, adjoint: bool):
    """The squared-scale rank decision on I - X*X (I - XX* with
    ``adjoint``), per matrix of a stack ``x``: ``(w, vecs, keep, lowest)``,
    the eigenvalues in ascending order clipped at 0, their eigenvectors, the
    mask of the kept ones (always a suffix), and the lowest eigenvalue
    capped at 0, below -eq_abs when X is no contraction."""
    n = x.shape[-2] if adjoint else x.shape[-1]
    h = eye(n) - (x @ adj(x) if adjoint else adj(x) @ x)
    h = (h + adj(h)) / 2.0
    w, v = np.linalg.eigh(h)
    lowest = w.min(axis=-1, initial=0.0)
    w = np.clip(w, 0.0, None)
    return w, v, _squared_keep(w, tol), lowest


def _squared_keep(w: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The squared-scale cut: the mask of the values of ``w`` (per matrix
    of a stack, along the last axis), each a squared quantity in [0, 1] up
    to rounding, that exceed rank_rel * max(1, largest)."""
    return w > tol.rank_rel * np.maximum(1.0, w.max(axis=-1, initial=0.0, keepdims=True))


def _checked_decision(x: np.ndarray, tol: Tolerance, adjoint: bool):
    """The rank decision ``(w, vecs, keep)`` of :func:`_defect_decision` on
    one matrix ``x``, made only for a contraction: raises
    :class:`NotContraction` on a non-finite entry and
    :class:`IndefiniteBeyondTolerance` on a defect eigenvalue below -eq_abs."""
    if not np.isfinite(x).all():
        raise NotContraction("matrix has a non-finite entry; not a contraction")
    w, v, keep, lowest = _defect_decision(x, tol, adjoint)
    if lowest < -tol.eq_abs:
        raise IndefiniteBeyondTolerance(
            f"defect eigenvalue {lowest:.3e} < -eq_abs; not a contraction"
        )
    return w, v, keep


def _defect_ops(w: np.ndarray, v: np.ndarray, keep: np.ndarray):
    """(op, op_pinv): the defect operators and their pseudo-inverses from
    the decision ``(w, v, keep)`` of :func:`_defect_decision`."""
    s = np.where(keep, np.sqrt(w), 0.0)[..., None, :]
    op = (v * s) @ adj(v)
    op = (op + adj(op)) / 2.0
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep[..., None, :])
    op_pinv = (v * inv) @ adj(v)
    op_pinv = (op_pinv + adj(op_pinv)) / 2.0
    return op, op_pinv


def defect_basis(vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the defect space: the columns of ``vecs`` that
    ``keep``, one mask shared by a stack, selects; a full defect space is
    canonicalized to the identity basis.

    The columns are a column-major copy, as fancy indexing makes them.  The
    layout of a basis picks the BLAS path of the products it enters, and
    with it their last bits, so stacks and single matrices share it.
    """
    return eye(keep.size) if keep.all() else vecs[..., keep]


def defect_of(x: np.ndarray, tol: Tolerance = DEFAULT_TOL, adjoint: bool = False) -> DefectData:
    """Defect data of a contraction, decided on the squared defect.

    The rank call is made on the eigenvalues of I - X*X, whose rounding
    noise is of machine-epsilon size; deciding on the square-root scale
    would amplify that noise to its square root and swallow genuine kernel
    directions.  Eigenvalues at or below rank_rel times max(1, largest)
    (the defect spectrum lives in [0, 1]) are treated as exact zeros, so
    ``op`` vanishes on the kernel and ``op @ op_pinv`` is the projector onto
    the defect space.  A matrix with a non-finite entry is no contraction.
    """
    x = cmatrix(x)
    n = x.shape[0] if adjoint else x.shape[1]
    w, v, keep = _checked_decision(x, tol, adjoint)
    op, op_pinv = _defect_ops(w, v, keep)
    k = int(np.sum(keep))
    space = Subspace(n, defect_basis(v, keep))
    if k == 0:
        kernel = full_space(n)
    elif k == n:
        kernel = trivial_space(n)
    else:
        kernel = Subspace(n, v[:, ~keep])
    return DefectData(op, op_pinv, space, kernel)


def numerical_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank from a descending singular-value array."""
    if s.size == 0 or s[0] <= tol.eq_abs:
        return 0
    return int(np.sum(s > tol.rank_rel * s[0]))


def kernel_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical null space of ``m``.

    Right singular vectors whose singular value falls at or below the rank
    cutoff; all of them when the whole matrix is negligible.  A full kernel
    is canonicalized to the identity basis.
    """
    m = cmatrix(m)
    n = m.shape[1]
    if n == 0:
        return trivial_space(0)
    if m.shape[0] == 0:
        return full_space(n)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    r = numerical_rank(s, tol)
    if r == 0:
        return full_space(n)
    return Subspace(n, adj(vh[r:]))


def range_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical column space of ``m``.

    Complements :func:`kernel_basis`: ranks add up to the column count.  A
    full range is canonicalized to the identity basis, which keeps defect
    bases stable across equal-rank recomputations.
    """
    m = cmatrix(m)
    d = m.shape[0]
    if d == 0 or m.shape[1] == 0:
        return trivial_space(d)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = numerical_rank(s, tol)
    if r == d:
        return full_space(d)
    return Subspace(d, u[:, :r])


def subspace_intersect(u: Subspace, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Decided inside the smaller subspace S, against the other one O: with
    G = W_S* W_O, the eigenvalues of I - G G* are the squared sines of the
    principal angles between S and O, and the eigenvectors that the adjoint
    defect decision of G (the one of :func:`defect_of`) drops span the
    intersection; its cut rank_rel * max(1, largest) is rank_rel here.  The
    cost is one m x m eigendecomposition with m = min(dim U, dim V).
    """
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch(f"ambient {u.ambient_dim} != {v.ambient_dim}")
    d = u.ambient_dim
    small, other = (u, v) if u.dim <= v.dim else (v, u)
    if small.dim == 0:
        return trivial_space(d)
    _, vecs, keep, _ = _defect_decision(adj(small.basis) @ other.basis, tol, adjoint=True)
    k = int(np.sum(~keep))
    if k == 0:
        return trivial_space(d)
    if k == d:
        return full_space(d)
    return Subspace(d, small.basis @ vecs[:, ~keep])


def block_arnoldi(x: np.ndarray, start: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, list[int]]:
    """Nested orthonormal bases of the block Krylov spaces
    K_n = span{S, XS, ..., X^{n-1} S} of a square matrix X and a matrix S
    with orthonormal columns.

    Returns ``(basis, dims)``: the first ``dims[n]`` columns of ``basis``
    span K_n, for n below ``len(dims)``; ``dims[0] = 0`` and the last entry
    is the dimension of the whole Krylov space, the column count of
    ``basis``.  The columns are a column-major slice, so that every block
    is a contiguous column range.  Each new block is X times the newest
    block, projected off the basis by two Gram-Schmidt passes; its thin SVD
    keeps the left singular vectors whose squared singular values pass the
    squared-scale cut of the defect decisions (the values are at most 1
    when X is a contraction, as in the lattice), and the space is exhausted
    at the first empty block.
    Each block takes one factor of X, so no power of X is formed.
    """
    d = x.shape[0]
    basis = np.empty((d, d), dtype=complex, order="F")  # columns filled block by block
    dims = [0]
    block = start
    while block.shape[1]:
        top = dims[-1] + block.shape[1]
        basis[:, dims[-1]:top] = block
        dims.append(top)
        if top == d:
            break
        q = basis[:, :top]
        z = x @ block
        for _ in range(2):
            z = z - q @ (adj(q) @ z)
        u, s, _ = np.linalg.svd(z, full_matrices=False)
        block = u[:, : np.count_nonzero(_squared_keep(s * s, tol))]
    return basis[:, : dims[-1]], dims


def intersect_perp(u: Subspace, q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """U /\\ (ran Q)^perp for a matrix Q with orthonormal columns.

    With W the basis of U, the squared singular values of Y = W* Q are the
    squared cosines of the principal angles between U and ran Q; the rank r
    of Y is decided on them by the squared-scale cut of the defect
    decisions, and the left singular vectors of Y past the first r give the
    intersection as W U[:, r:].  The cost is one m x cols(Q) SVD with
    m = dim U, and one product.
    """
    if u.dim == 0 or q.shape[1] == 0:
        return u
    vecs, s, _ = np.linalg.svd(adj(u.basis) @ q, full_matrices=True)
    r = np.count_nonzero(_squared_keep(s * s, tol))
    return u if r == 0 else Subspace(u.ambient_dim, u.basis @ vecs[:, r:])


def subspace_eq(u: Subspace, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Basis-free equality via projector distance."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatch(f"ambient {u.ambient_dim} != {v.ambient_dim}")
    return matnorm_diff(u.projector(), v.projector()) <= tol.eq_abs


def image_subspace(m: np.ndarray, u: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The subspace m(U) as a numerical range."""
    return range_basis(cmatrix(m) @ u.basis, tol)


def is_contraction(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return opnorm(cmatrix(m)) <= 1.0 + tol.eq_abs


def is_isometry(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = cmatrix(m)
    return m.shape[1] <= m.shape[0] and _isometry_gap(m) <= tol.eq_abs


def is_coisometry(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return is_isometry(adj(cmatrix(m)), tol)


def is_unitary(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True for square matrices with M*M = MM* = I; a 0x0 matrix is unitary."""
    m = cmatrix(m)
    return m.shape[0] == m.shape[1] and unitarity_residual(m) <= tol.eq_abs


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    if n == 0:
        return zeros(0, 0)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to ``{"rows": r, "cols": c, "data": [[re, im], ...]}``."""
    m = cmatrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)
