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


def tr_sqrt_sandwich(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(a d b d^T) for PSD a, b: the sum of the singular values of
    sqrt(a) @ d @ sqrt(b).

    The singular-value route keeps full absolute precision (the eigenvalues
    of the product lose half the digits near rank deficiency) and is valid
    for singular a and b.
    """
    return float(np.linalg.svd(sym_psd_sqrt(a) @ d @ sym_psd_sqrt(b), compute_uv=False).sum())


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
    blk = np.block([[A, C], [C.T, B]])
    lam = float(np.linalg.eigvalsh(0.5 * (blk + blk.T)).min())
    scale = max(float(np.abs(blk).max()), 1.0)
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
    if count < 0:
        raise InputError("count must be nonnegative")
    if count == 0:
        return []
    stack = sample_feasible_array(A, B, count, seed, include_extremal)
    out = []
    for C in stack:
        ok, lam = feasibility_check(A, B, C)
        out.append(CouplingCovariance(C=C, value=math.nan, feasible=ok, min_eigenvalue=lam))
    return out


def sample_feasible_array(A, B, count: int, seed: int,
                          include_extremal: bool = True) -> np.ndarray:
    """Vectorized variant of sample_feasible: (count, n1, n2) array of
    feasible cross-covariances, feasible by construction."""
    A = check_sym_psd(A, "A")
    B = check_sym_psd(B, "B")
    n1, n2 = A.shape[0], B.shape[0]
    Af, _, ra = _psd_factor(A)
    Bf, _, rb = _psd_factor(B)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), 0x5EED],
                                                            dtype=np.uint64)))
    raw = rng.standard_normal((count, ra, rb))
    # operator norms: top eigenvalue of the small Gram matrix (batched)
    if ra <= rb:
        gram = np.einsum("kab,kcb->kac", raw, raw)
    else:
        gram = np.einsum("kab,kac->kbc", raw, raw)
    top = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
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
