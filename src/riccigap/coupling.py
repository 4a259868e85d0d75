"""Closed-form optimal couplings of centered Gaussians.

The minimized quantity is E[D_ij X^i Y^j] over joint laws of X ~ N(0, A)
and Y ~ N(0, B); the minimum is -tr sqrt(A D B D^T) and is achieved by an
explicit cross-covariance.  Feasibility of a cross-covariance C means the
block matrix [[A, C], [C^T, B]] is positive semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NegativeSpectrumError,
    NotDiagonalizableError,
    SingularDiffusionError,
)
from .manifolds import DistanceJet

_RANK_TOL = 1e-9  # numerical rank cutoff, relative to largest singular value
_EPS = np.finfo(float).eps
_EPS2 = _EPS ** 2
_JACOBI_SWEEPS = 30  # a guard: every stack tried, random or built to be hard, needed <= 7


def _as_matrix(m, name="matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} has non-finite entries")
    return a


def check_sym_psd(m, name="matrix", sym_tol=1e-12, neg_tol=1e-10) -> np.ndarray:
    """Validate a symmetric PSD matrix; returns the symmetrized copy."""
    a = _as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square")
    scale = max(float(np.abs(a).max()), 1.0)
    if np.abs(a - a.T).max() > sym_tol * scale:
        raise InputError(f"{name} is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    if w.min() < -neg_tol * scale:
        raise NegativeSpectrumError(f"{name} has eigenvalue {w.min():.3e} below -{neg_tol:.0e}")
    return a


def sym_psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by eigendecomposition (negativity clipped)."""
    a = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def psd_sqrt(m, neg_tol: float = 1e-6) -> np.ndarray:
    """Square root of a diagonalizable matrix with nonnegative eigenvalues.

    Returns the unique diagonalizable R with nonnegative eigenvalues and
    R @ R = m.  Symmetric input takes the eigh path; otherwise a general
    eigendecomposition is used and validated.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError("psd_sqrt needs a square matrix")
    scale = max(float(np.abs(a).max()), 1.0)
    if np.abs(a - a.T).max() <= 1e-12 * scale:
        w = np.linalg.eigvalsh(0.5 * (a + a.T))
        if w.min() < -neg_tol * scale:
            raise NegativeSpectrumError(f"eigenvalue {w.min():.3e} below tolerance")
        return sym_psd_sqrt(a)
    w, v = np.linalg.eig(a)
    if np.abs(w.imag).max() > 1e-8 * scale or w.real.min() < -neg_tol * scale:
        raise NegativeSpectrumError("matrix has eigenvalues off the nonnegative real axis")
    w = np.clip(w.real, 0.0, None)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NotDiagonalizableError("eigenvector matrix is singular") from exc
    r = (v * np.sqrt(w)) @ vinv
    r = r.real
    if np.abs(r @ r - a).max() > 1e-8 * scale:
        raise NotDiagonalizableError("defective structure beyond tolerance")
    return r


def _rounding_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root with the eigenvalues at rounding level (at
    most 100 n eps of the largest) set to zero."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.where(w > 100 * len(w) * _EPS * max(w[-1], 0.0), w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def tr_sqrt_sandwich(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(a d b d^T) for PSD a, b: the sum of the singular values of
    sqrt(a) @ d @ sqrt(b).

    The singular-value route keeps full absolute precision (the eigenvalues
    of the product lose half the digits near rank deficiency).  It is valid
    for singular a and b because eigenvalues at rounding level are dropped
    before the roots are taken: the root of a rounding-size eigenvalue of a
    singular a would move the value by ~sqrt(eps).  Every larger eigenvalue
    is kept, so an ill-conditioned a or b is not truncated.
    """
    return float(np.linalg.svd(_rounding_sqrt(a) @ d @ _rounding_sqrt(b), compute_uv=False).sum())


@dataclass(frozen=True, eq=False)
class CouplingCovariance:
    """A cross-covariance with its feasibility certificate.

    value is the achieved cost <D, C> when a cost tensor was involved in the
    construction (nan for plain feasible samples).
    """

    C: np.ndarray
    value: float
    feasible: bool
    min_eigenvalue: float


def coupling_cost(C: np.ndarray, D: np.ndarray) -> float:
    """Cost <D, C> = E[D_ij X^i Y^j] of the Gaussian coupling with covariance C."""
    return float(np.sum(np.asarray(C) * np.asarray(D)))


def feasibility_check(A, B, C) -> tuple[bool, float]:
    """Whether [[A, C], [C^T, B]] is PSD; returns (ok, smallest eigenvalue)."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    C = _as_matrix(C, "C")
    if C.shape != (A.shape[0], B.shape[0]):
        raise InputError("C has inconsistent shape")
    ok, lam = _feasibility(A, B, C[None])
    return bool(ok[0]), float(lam[0])


def _feasibility(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """feasibility_check on each matrix of a (count, n1, n2) stack C, with
    A and B already validated: one stacked eigvalsh, and the tolerance
    -1e-9 max(max|block|, 1) per sample."""
    n1 = A.shape[0]
    blk = np.empty((len(C), n1 + B.shape[0], n1 + B.shape[0]))
    blk[:, :n1, :n1] = A
    blk[:, :n1, n1:] = C
    blk[:, n1:, :n1] = C.transpose(0, 2, 1)
    blk[:, n1:, n1:] = B
    lam = np.linalg.eigvalsh(0.5 * (blk + blk.transpose(0, 2, 1))).min(axis=1)
    scale = np.maximum(np.abs(blk).max(axis=(1, 2)), 1.0)
    return lam >= -1e-9 * scale, lam


def min_coupling_value(A, D, B) -> float:
    """Minimum of E[D_ij X^i Y^j] over couplings of N(0,A) and N(0,B):
    -tr sqrt(A D B D^T)."""
    A = check_sym_psd(A, "A")
    B = check_sym_psd(B, "B")
    D = _as_matrix(D, "D")
    if D.shape != (A.shape[0], B.shape[0]):
        raise InputError("D has inconsistent shape")
    return -tr_sqrt_sandwich(A, D, B)


def _psd_factor(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank-revealing factor M' with M' I M'^T = mat; also returns the left
    inverse and the numerical rank."""
    w, v = np.linalg.eigh(mat)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    tol = _RANK_TOL * max(w[0], 0.0) if w.size else 0.0
    r = int(np.sum(w > tol))
    wr = w[:r]
    fac = v[:, :r] * np.sqrt(wr)
    left_inv = (v[:, :r] / np.sqrt(wr)).T if r else np.zeros((0, mat.shape[0]))
    return fac, left_inv, r


def c0_covariance(A, D, B) -> CouplingCovariance:
    """The minimal-rank optimal cross-covariance C0.

    Constructed by reducing to identity marginals with rank factors of A and
    B, diagonalizing the reduced cost by SVD, and putting -1 on the positive
    singular directions (zero elsewhere).
    """
    A = check_sym_psd(A, "A")
    B = check_sym_psd(B, "B")
    D = _as_matrix(D, "D")
    if D.shape != (A.shape[0], B.shape[0]):
        raise InputError("D has inconsistent shape")
    Af, _, ra = _psd_factor(A)
    Bf, _, rb = _psd_factor(B)
    if ra == 0 or rb == 0:
        C = np.zeros((A.shape[0], B.shape[0]))
        return CouplingCovariance(C=C, value=0.0, feasible=True, min_eigenvalue=0.0)
    Dp = Af.T @ D @ Bf
    U, s, Vt = np.linalg.svd(Dp)
    tol = _RANK_TOL * (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol))
    Cp = -U[:, :r] @ Vt[:r, :]
    C = Af @ Cp @ Bf.T
    value = -float(s[:r].sum())
    ok, lam = feasibility_check(A, B, C)
    return CouplingCovariance(C=C, value=value, feasible=ok, min_eigenvalue=lam)


def sample_feasible(A, B, count: int, seed: int,
                    include_extremal: bool = True) -> list[CouplingCovariance]:
    """Deterministic random feasible cross-covariances C = A' C' B'^T with
    operator norm of C' at most 1 (test oracle for optimality).

    The first samples are extremal (C' orthogonal-like, all singular values
    equal to 1) when include_extremal is set and count allows.
    """
    A = check_sym_psd(A, "A")
    B = check_sym_psd(B, "B")
    stack = sample_feasible_array(A, B, count, seed, include_extremal)
    oks, lams = _feasibility(A, B, stack)
    return [CouplingCovariance(C=C, value=math.nan, feasible=bool(ok), min_eigenvalue=float(lam))
            for C, ok, lam in zip(stack, oks.tolist(), lams.tolist())]


def _top_gram(R: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of R_k R_k^T for each matrix of a stack R of shape
    (count, r, s) with 1 <= r <= s.

    The r(r+1)/2 Gram entries are held as (count,) arrays, scaled by a power
    of two that puts the largest diagonal entry in [1/2, 1), and
    diagonalised all at once by cyclic Jacobi sweeps.  The sweeps stop when
    every off-diagonal entry satisfies g_pq^2 <= eps^2 |g_pp g_qq|, which
    gives the eigenvalues of a positive semidefinite matrix to high relative
    accuracy (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  The
    scaling keeps the squares from overflowing, and an entry whose square
    underflows is below 1e-154 of the top eigenvalue.  The absolute value is
    there because the rounded Gram matrix of a rank-deficient R can have a
    diagonal entry of -eps size.
    """
    r = R.shape[1]
    g = [[None] * r for _ in range(r)]  # g[p][q] is g[q][p]: one array per entry
    for p in range(r):
        for q in range(p, r):
            g[p][q] = g[q][p] = np.einsum("kb,kb->k", R[:, p], R[:, q])
    _, exponent = np.frexp(np.max([g[p][p] for p in range(r)], axis=0))
    for p in range(r):
        for q in range(p, r):
            g[p][q] = g[q][p] = np.ldexp(g[p][q], -exponent)
    pairs = [(p, q) for p in range(r) for q in range(p + 1, r)]
    for _ in range(_JACOBI_SWEEPS):
        if not any(np.any(g[p][q] * g[p][q] > _EPS2 * np.abs(g[p][p] * g[q][q]))
                   for p, q in pairs):
            break
        for p, q in pairs:
            app, aqq, apq = g[p][p], g[q][q], g[p][q]
            d = aqq - app
            # tan of the rotation that annihilates apq, |t| <= 1 (Golub & Van Loan's
            # 2-by-2 symmetric Schur decomposition, without its overflow-prone ratio).
            # An entry that already passes the stop test is not rotated: within a
            # cluster of equal eigenvalues its rotation would be ~45 degrees and
            # would spread rounding errors back over the other entries.
            big = apq * apq > _EPS2 * np.abs(app * aqq)
            den = d + np.copysign(np.sqrt(d * d + 4.0 * apq * apq), d)
            t = np.divide(2.0 * apq, den, out=np.zeros_like(den), where=big)
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            g[p][p] = app - t * apq
            g[q][q] = aqq + t * apq
            g[p][q] = g[q][p] = np.zeros_like(apq)
            for o in range(r):
                if o != p and o != q:
                    op, oq = g[o][p], g[o][q]
                    g[o][p] = g[p][o] = c * op - sn * oq
                    g[o][q] = g[q][o] = sn * op + c * oq
    return np.ldexp(np.max([g[p][p] for p in range(r)], axis=0), exponent)


def sample_feasible_array(A, B, count: int, seed: int,
                          include_extremal: bool = True) -> np.ndarray:
    """Vectorized variant of sample_feasible: (count, n1, n2) array of
    feasible cross-covariances, feasible by construction.

    Each sample is C = A' C' B'^T, with A' and B' rank factors of A and B
    (A' A'^T = A) and C' = U raw / ||raw||_2: raw has i.i.d. standard normal
    entries, ||raw||_2 is its operator norm and U is uniform on [0, 1].  When
    include_extremal is set, the first min(count, 4) samples are replaced by
    extremal ones, C' with every singular value 1.  ||raw||_2 is the square
    root of the top eigenvalue of the smaller Gram matrix of raw (size r, the
    smaller rank), from Jacobi sweeps run on all samples at once (see
    _top_gram).  With a zero marginal the only feasible cross-covariance is
    0, and every sample is 0.
    """
    if count < 0:
        raise InputError("count must be nonnegative")
    A = check_sym_psd(A, "A")
    B = check_sym_psd(B, "B")
    n1, n2 = A.shape[0], B.shape[0]
    Af, _, ra = _psd_factor(A)
    Bf, _, rb = _psd_factor(B)
    if ra == 0 or rb == 0:
        return np.zeros((count, n1, n2))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), 0x5EED],
                                                            dtype=np.uint64)))
    raw = rng.standard_normal((count, ra, rb))
    top = np.sqrt(_top_gram(raw if ra <= rb else raw.transpose(0, 2, 1)))
    radii = rng.uniform(0.0, 1.0, size=count)
    scale = np.where(top > 0, radii / np.where(top > 0, top, 1.0), 0.0)
    Cp = raw * scale[:, None, None]
    if include_extremal:
        k = min(count, 4)
        for i in range(k):
            if ra >= rb:
                q, _ = np.linalg.qr(rng.standard_normal((ra, ra)))
                Cp[i] = q[:, :rb]
            else:
                q, _ = np.linalg.qr(rng.standard_normal((rb, rb)))
                Cp[i] = q[:ra, :]
    return np.einsum("ia,kab,jb->kij", Af, Cp, Bf, optimize=True)


def extremal_covariances(A_x, A_y, jet: DistanceJet) -> tuple[CouplingCovariance, CouplingCovariance]:
    """The two extremal optimal covariances C+ and C- for the distance cost
    q12 between tangent Gaussians N(0, A_x) and N(0, A_y).

    A_x and A_y are matrices in the jet's adapted frames and must be
    invertible.  C+ extends parallel-transport coupling, C- reflection
    coupling.
    """
    A_x = check_sym_psd(A_x, "A_x")
    A_y = check_sym_psd(A_y, "A_y")
    n = jet.manifold.dim
    if A_x.shape[0] != n or A_y.shape[0] != n:
        raise InputError("covariances must match the manifold dimension")
    wx = np.linalg.eigvalsh(A_x)
    wy = np.linalg.eigvalsh(A_y)
    if wx.min() <= _RANK_TOL * max(wx.max(), 1.0) or wy.min() <= _RANK_TOL * max(wy.max(), 1.0):
        raise SingularDiffusionError("extremal covariances need invertible diffusion tensors")
    q12 = jet.q12
    M = A_x @ q12 @ A_y @ q12.T
    # sqrt(M) through the symmetric similarity by sqrt(A_x)
    gx = sym_psd_sqrt(A_x)
    gx_inv = np.linalg.inv(gx)
    root = gx @ sym_psd_sqrt(gx @ q12 @ A_y @ q12.T @ gx) @ gx_inv
    p = np.linalg.pinv(M, rcond=_RANK_TOL) @ (A_x @ q12 @ A_y)
    base = -root @ p
    e1 = np.zeros(n)
    e1[0] = 1.0
    denom = math.sqrt(float(np.linalg.solve(A_x, e1)[0] * np.linalg.solve(A_y, e1)[0]))
    rank_one = np.outer(e1, e1) / denom
    out = []
    for sign in (+1.0, -1.0):
        C = base + sign * rank_one
        ok, lam = feasibility_check(A_x, A_y, C)
        out.append(CouplingCovariance(C=C, value=coupling_cost(C, q12), feasible=ok,
                                      min_eigenvalue=lam))
    return out[0], out[1]
