"""Parametrizations of contractive 2x2 block operator matrices.

A block matrix

    T = [ D  C ]   maps  input (+) state-domain  ->  output (+) state-codomain
        [ B  A ]

is a contraction exactly when its blocks can be written through two
equivalent sets of contractive parameters: (K, M, X) anchored at the
lower-right block A, or (F, G, L) anchored at the upper-left block D.
Both directions are implemented here, together with the isometry and
co-isometry criteria expressed in the parameters, the identities linking
the two parametrizations of a unitary matrix, the block Moebius map
anchored at D, and the Shmul'yan fractional-linear transform of a
contraction, at one argument or a stack of them.

Parameter matrices are always expressed in the orthonormal defect bases
computed by :func:`~schurkit.linalg.defect_of`; ambient versions are
obtained by conjugating with those bases.  A parameter set keeps the four
defect decompositions it was built with, and nothing decomposes them
again.  The (F, G, L) form is computed as the (K, M, X) form of the block
matrix with D and A exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg as la
from .errors import NotContraction, NotUnitary, RankInconsistency, ShapeMismatch, SingularPencil
from .linalg import DEFAULT_TOL, DefectData, Tolerance, adj


@dataclass(frozen=True)
class BlockMatrix:
    """2x2 block matrix with explicit (possibly zero) space dimensions."""

    d: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        if self.d.shape[0] != self.c.shape[0] or self.b.shape[0] != self.a.shape[0]:
            raise ShapeMismatch("row blocks disagree")
        if self.d.shape[1] != self.b.shape[1] or self.c.shape[1] != self.a.shape[1]:
            raise ShapeMismatch("column blocks disagree")

    @property
    def in_dim(self) -> int:
        return self.d.shape[1]

    @property
    def out_dim(self) -> int:
        return self.d.shape[0]

    @property
    def state_in_dim(self) -> int:
        return self.a.shape[1]

    @property
    def state_out_dim(self) -> int:
        return self.a.shape[0]

    def assemble(self) -> np.ndarray:
        return assemble_blocks(self.d, self.c, self.b, self.a)

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(adj(self.d), adj(self.b), adj(self.c), adj(self.a))


def assemble_blocks(d: np.ndarray, c: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """[D C; B A] from its blocks; blocks stacked along leading axes give
    the stack of the assembled matrices."""
    return np.concatenate([np.concatenate([d, c], -1), np.concatenate([b, a], -1)], -2)


def block_matrix(d, c, b, a) -> BlockMatrix:
    return BlockMatrix(la.cmatrix(d), la.cmatrix(c), la.cmatrix(b), la.cmatrix(a))


def split_blocks(t: np.ndarray, out_dim: int, in_dim: int) -> BlockMatrix:
    """Cut a full matrix into blocks with the given upper-left shape."""
    t = la.cmatrix(t)
    return BlockMatrix(
        t[:out_dim, :in_dim], t[:out_dim, in_dim:], t[out_dim:, :in_dim], t[out_dim:, in_dim:]
    )


@dataclass(frozen=True)
class KMXParams:
    """Parameters anchored at the state block A.

    ``k`` maps the defect space of A into the output space, ``m`` maps the
    input space into the defect space of A*, and ``x`` couples the defect
    space of M to that of K*.  All three are contractions, expressed in the
    bases of the recorded decompositions D(A), D(A*), D(M) and D(K*).
    """

    a: np.ndarray
    k: np.ndarray
    m: np.ndarray
    x: np.ndarray
    da: DefectData
    dastar: DefectData
    dm: DefectData
    dkstar: DefectData


@dataclass(frozen=True)
class FGLParams:
    """Parameters anchored at the feedthrough block D (mirror of KMX)."""

    d: np.ndarray
    f: np.ndarray
    g: np.ndarray
    l: np.ndarray
    dd: DefectData
    ddstar: DefectData
    dg: DefectData
    dfstar: DefectData


def _require_contraction(m: np.ndarray, name: str, tol: Tolerance):
    if not la.is_contraction(m, tol):
        raise NotContraction(f"{name} has norm {la.opnorm(m):.6f} > 1")


# Names the error messages give to (anchor, left, right, coupling) and to
# the block the coupling reproduces.  The FGL form is the KMX form of the
# swapped block [A B; C D], reported under its own names.
_KMX_NAMES = ("A", "K", "M", "X", "feedthrough")
_FGL_NAMES = ("D", "F", "G", "L", "state")


def _swap(t: BlockMatrix) -> BlockMatrix:
    """[D C; B A] -> [A B; C D]: exchanges the roles of D and A."""
    return BlockMatrix(t.a, t.b, t.c, t.d)


def _mirror(p, cls):
    """The same eight fields, by position, as a KMXParams or an FGLParams."""
    return cls(*(getattr(p, f.name) for f in fields(p)))


def _params(a, k, m, x, tol: Tolerance, names) -> KMXParams:
    a, k, m, x = map(la.cmatrix, (a, k, m, x))
    na, nk, nm, nx, _ = names
    for mat, name in ((a, na), (k, nk), (m, nm), (x, nx)):
        _require_contraction(mat, name, tol)
    da = la.defect_of(a, tol)
    dastar = la.defect_of(a, tol, adjoint=True)
    if k.shape[1] != da.space.dim:
        raise ShapeMismatch(f"{nk} has {k.shape[1]} columns, defect space of {na} has dim "
                            f"{da.space.dim}")
    if m.shape[0] != dastar.space.dim:
        raise ShapeMismatch(f"{nm} has {m.shape[0]} rows, defect space of {na}* has dim "
                            f"{dastar.space.dim}")
    dm = la.defect_of(m, tol)
    dks = la.defect_of(k, tol, adjoint=True)
    want = (dks.space.dim, dm.space.dim)
    if x.shape != want:
        raise ShapeMismatch(f"{nx} has shape {x.shape}, expected {want}")
    return KMXParams(a, k, m, x, da, dastar, dm, dks)


def kmx_params(a, k, m, x, tol: Tolerance = DEFAULT_TOL) -> KMXParams:
    """Validate raw (A, K, M, X) matrices and attach their decompositions."""
    return _params(a, k, m, x, tol, _KMX_NAMES)


def assemble_kmx(p: KMXParams, tol: Tolerance = DEFAULT_TOL) -> BlockMatrix:
    """Build the contraction determined by (A, K, M, X)."""
    ua, uas = p.da.space.basis, p.dastar.space.basis
    c = p.k @ (adj(ua) @ p.da.op)
    b = p.dastar.op @ (uas @ p.m)
    astar_restr = adj(ua) @ adj(p.a) @ uas
    x_amb = p.dkstar.space.basis @ p.x @ adj(p.dm.space.basis)
    d = -p.k @ astar_restr @ p.m + p.dkstar.op @ x_amb @ p.dm.op
    t = BlockMatrix(d, c, b, p.a)
    _require_contraction(t.assemble(), "assembled block matrix", tol)
    return t


def _decompose(t: BlockMatrix, tol: Tolerance, names) -> KMXParams:
    _require_contraction(t.assemble(), "block matrix", tol)
    a = t.a
    da = la.defect_of(a, tol)
    dastar = la.defect_of(a, tol, adjoint=True)
    ua, uas = da.space, dastar.space
    k = t.c @ da.op_pinv @ ua.basis
    m = adj(uas.basis) @ dastar.op_pinv @ t.b
    resid = t.d + k @ (adj(ua.basis) @ adj(a) @ uas.basis) @ m
    dm = la.defect_of(m, tol)
    dks = la.defect_of(k, tol, adjoint=True)
    em, fk = dm.space, dks.space
    x = adj(fk.basis) @ dks.op_pinv @ resid @ dm.op_pinv @ em.basis
    x_amb = fk.basis @ x @ adj(em.basis)
    if la.matnorm_diff(dks.op @ x_amb @ dm.op, resid) > tol.eq_abs:
        raise NotContraction(f"no contractive {names[3]} reproduces the {names[4]} block")
    return KMXParams(a, k, m, x, da, dastar, dm, dks)


def decompose_kmx(t: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> KMXParams:
    """Recover (K, M, X) from a contraction; pseudo-inverses implement the
    restriction to the defect spaces."""
    return _decompose(t, tol, _KMX_NAMES)


def fgl_params(d, f, g, l, tol: Tolerance = DEFAULT_TOL) -> FGLParams:
    """Validate raw (D, F, G, L) matrices and attach their decompositions."""
    return _mirror(_params(d, f, g, l, tol, _FGL_NAMES), FGLParams)


def assemble_fgl(p: FGLParams, tol: Tolerance = DEFAULT_TOL) -> BlockMatrix:
    """Build the contraction determined by (D, F, G, L)."""
    return _swap(assemble_kmx(_mirror(p, KMXParams), tol))


def decompose_fgl(t: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> FGLParams:
    """Recover (F, G, L) from a contraction."""
    return _mirror(_decompose(_swap(t), tol, _FGL_NAMES), FGLParams)


@dataclass(frozen=True)
class IsoFlags:
    """Isometry classification with the raw parameter-product residuals."""

    isometric: bool
    coisometric: bool
    unitary: bool
    residuals: dict


def iso_criteria(t: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> IsoFlags:
    """Classify T through the parameter products and cross-check directly.

    T is isometric iff D_K D_A = 0 and D_X D_M = 0; co-isometric iff
    D_M* D_A* = 0 and D_X* D_K* = 0.  The direct Gram tests must agree
    with the products; disagreement signals inconsistent rank decisions.
    """
    p = decompose_kmx(t, tol)
    dk = la.defect_of(p.k, tol).op
    dmstar = la.defect_of(p.m, tol, adjoint=True).op
    dx = la.defect_of(p.x, tol).op
    dxstar = la.defect_of(p.x, tol, adjoint=True).op
    residuals = {
        "dk_da": la.opnorm(dk @ (adj(p.da.space.basis) @ p.da.op)),
        "dx_dm": la.opnorm(dx @ (adj(p.dm.space.basis) @ p.dm.op)),
        "dmstar_dastar": la.opnorm(dmstar @ (adj(p.dastar.space.basis) @ p.dastar.op)),
        "dxstar_dkstar": la.opnorm(dxstar @ (adj(p.dkstar.space.basis) @ p.dkstar.op)),
    }
    iso = residuals["dk_da"] <= tol.eq_abs and residuals["dx_dm"] <= tol.eq_abs
    coiso = (
        residuals["dmstar_dastar"] <= tol.eq_abs and residuals["dxstar_dkstar"] <= tol.eq_abs
    )
    full = t.assemble()
    direct_iso = la.is_isometry(full, tol)
    direct_coiso = la.is_coisometry(full, tol)
    if iso != direct_iso or coiso != direct_coiso:
        raise RankInconsistency(
            f"parameter criteria {(iso, coiso)} disagree with Gram tests "
            f"{(direct_iso, direct_coiso)}"
        )
    return IsoFlags(iso, coiso, iso and coiso, residuals)


def unitary_link(t: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Residuals of the identities tying the two parametrizations of a
    unitary block matrix.

    Returned keys: defect space of D versus ran M*, defect space of D*
    versus ran K, F* versus M* compressed to the defect space of A*, G
    versus K compressed to the defect space of A, and L versus the
    restriction of A to ker D_A.  The convention L = A* restricted to
    ker D_A* is reached by calling this on ``t.adjoint()``.
    """
    full = t.assemble()
    if not la.is_unitary(full, tol):
        raise NotUnitary("unitary_link requires a unitary block matrix")
    kmx = decompose_kmx(t, tol)
    fgl = decompose_fgl(t, tol)
    m_amb = kmx.dastar.space.basis @ kmx.m
    k_amb = kmx.k @ adj(kmx.da.space.basis)
    ran_mstar = la.range_basis(adj(m_amb), tol)
    ran_k = la.range_basis(k_amb, tol)
    f_amb = fgl.f @ adj(fgl.dd.space.basis)
    g_amb = fgl.ddstar.space.basis @ fgl.g
    l_amb = fgl.dfstar.space.basis @ fgl.l @ adj(fgl.dg.space.basis)
    p_ker = kmx.da.kernel.projector()
    return {
        "dd_vs_ran_mstar": la.matnorm_diff(fgl.dd.space.projector(), ran_mstar.projector()),
        "ddstar_vs_ran_k": la.matnorm_diff(fgl.ddstar.space.projector(), ran_k.projector()),
        "fstar_vs_mstar": la.matnorm_diff(adj(f_amb), adj(m_amb)),
        "g_vs_k": la.matnorm_diff(g_amb, k_amb),
        "l_vs_a_on_ker": la.matnorm_diff(l_amb, t.a @ p_ker),
    }


def moebius_map(d: np.ndarray, q: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> BlockMatrix:
    """Block Moebius transform anchored at the contraction ``d``.

    ``q`` must have a vanishing upper-left block and act between the defect
    spaces of d: input = defect of D (+) state, output = defect of D* (+)
    state-codomain.  The result has blocks
    [D, D_D* G; F D_D, S - F D* G] and shares q's contraction /
    isometry / co-isometry class.
    """
    d = la.cmatrix(d)
    _require_contraction(d, "D", tol)
    dd = la.defect_of(d, tol)
    dds = la.defect_of(d, tol, adjoint=True)
    ed, fds = dd.space, dds.space
    if q.in_dim != ed.dim or q.out_dim != fds.dim:
        raise ShapeMismatch(
            f"Q acts on spaces of dim {(q.out_dim, q.in_dim)}, defects of D have "
            f"dims {(fds.dim, ed.dim)}"
        )
    if la.opnorm(q.d) > tol.eq_abs:
        raise ShapeMismatch("upper-left block of Q must vanish")
    c = dds.op @ fds.basis @ q.c
    b = q.b @ (adj(ed.basis) @ dd.op)
    dstar_restr = adj(ed.basis) @ adj(d) @ fds.basis
    a = q.a - q.b @ dstar_restr @ q.c
    return BlockMatrix(d, c, b, a)


def _shmulyan(t: np.ndarray, dt: np.ndarray, dts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """T + D_T* Z (I + T* Z)^{-1} D_T, from the defect operators ``dt`` and
    ``dts`` of T and T*; ``z`` is a matrix, or a stack along leading axes
    that every other argument broadcasts against, giving the stack of
    images."""
    pencil = la.eye(t.shape[-1]) + adj(t) @ z
    return t + dts @ z @ la.solve_stack(pencil, dt)


def shmulyan_transform(t: np.ndarray, z: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fractional-linear image Q = T + D_T* Z (I + T* Z)^{-1} D_T.

    ``z`` is an ambient matrix of the same shape as ``t`` supported on the
    defect spaces (rows of Z* in ran D_T, columns in ran D_T*).  Requires
    -1 outside the spectrum of T*Z, which one SVD of I + T*Z tests.  The
    map itself is the one :func:`~schurkit.schur.moebius_compose` applies
    on point stacks.
    """
    t, z = la.cmatrix(t), la.cmatrix(z)
    if t.shape != z.shape:
        raise ShapeMismatch(f"T has shape {t.shape}, Z has shape {z.shape}")
    _require_contraction(t, "T", tol)
    _require_contraction(z, "Z", tol)
    cols = t.shape[1]
    pencil = la.eye(cols) + adj(t) @ z
    if cols and np.linalg.svd(pencil, compute_uv=False)[-1] <= tol.eq_abs:
        raise SingularPencil("-1 is an eigenvalue of T*Z")
    return _shmulyan(t, la.defect_of(t, tol).op, la.defect_of(t, tol, adjoint=True).op, z)
