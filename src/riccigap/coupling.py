"""Closed-form optimal couplings of centered Gaussians.

The minimized quantity is E[D_ij X^i Y^j] over joint laws of X ~ N(0, A)
and Y ~ N(0, B); the minimum is -tr sqrt(A D B D^T) and is achieved by an
explicit cross-covariance.  Feasibility of a cross-covariance C means the
block matrix [[A, C], [C^T, B]] is positive semidefinite.  The minimal-rank
optimizer C0 is built once (_c0), from the SVD of the cost reduced by rank
factors of A and B, and the extremal optimizers of the distance cost are
C+- = C0 +- a rank-one term (Olkin & Pukelsheim, Linear Algebra Appl. 48, 1982).

One rule says what is rounding noise: of n eigenvalues (or C0's n singular
values), those negative or at most 100 n eps of the largest are zero
(_rounding_cut).  Every square root, rank factor and rank cut reads it;
_RANK_TOL only decides whether a diffusion tensor is invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NegativeSpectrumError, SingularDiffusionError
from .manifolds import DistanceJet, _philox

_RANK_TOL = 1e-9  # a diffusion tensor that must be invertible is singular when its smallest
                  # eigenvalue is at most _RANK_TOL max(largest, 1) (_check_invertible)
_EPS = np.finfo(float).eps
_EPS2 = _EPS ** 2
_JACOBI_SWEEPS = 30  # a guard per block: every stack tried, random or built to be hard, needed <= 7
_JACOBI_BLOCK = 8192  # matrices per Jacobi block and per sandwich block; 2^12-2^14 time alike


def _as_matrix(m, name="matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} has non-finite entries")
    return a


def _rounding_cut(w: np.ndarray) -> np.ndarray:
    """The n values w with those at most 100 n eps of the largest set to zero."""
    return np.where(w > 100 * len(w) * _EPS * max(w.max(), 0.0), w, 0.0)


def _sym_psd(m, name="matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a symmetric PSD matrix (asymmetry <= 1e-12 and eigenvalues >=
    -1e-10, relative to max(max|m|, 1)); returns the symmetrized copy and
    its eigenvalues (ascending, after _rounding_cut) and eigenvectors."""
    a = _as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square")
    scale = max(float(np.abs(a).max()), 1.0)
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise InputError(f"{name} is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(a)
    if w.min() < -1e-10 * scale:
        raise NegativeSpectrumError(f"{name} has eigenvalue {w.min():.3e} below -1e-10")
    return a, _rounding_cut(w), v


def _check_invertible(w: np.ndarray):
    """Raise SingularDiffusionError if a diffusion tensor's eigenvalues w fail _RANK_TOL's test."""
    if w.min() <= _RANK_TOL * max(w.max(), 1.0):
        raise SingularDiffusionError("the diffusion tensor must have full rank")


def sym_psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of the symmetric part of m, with the
    eigenvalues at rounding level set to zero (_rounding_cut): the root of
    one would be noise of size ~sqrt(eps) in a singular direction."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v * np.sqrt(_rounding_cut(w))) @ v.T


def tr_sqrt_sandwich(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(a d b d^T) for PSD a, b: the sum of the singular values of
    sqrt(a) @ d @ sqrt(b), which keeps full absolute precision (the
    eigenvalues of the product lose half the digits near rank deficiency).
    The roots are sym_psd_sqrt's, with the eigenvalues at rounding level
    dropped: the root of one of a singular a would move the value by
    ~sqrt(eps).  An ill-conditioned a or b keeps every larger eigenvalue.
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
    A = _sym_psd(A, "A")[0]
    B = _sym_psd(B, "B")[0]
    D = _as_matrix(D, "D")
    if D.shape != (A.shape[0], B.shape[0]):
        raise InputError("D has inconsistent shape")
    return -tr_sqrt_sandwich(A, D, B)


def _psd_factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rank-revealing factor F with F F^T = v diag(w) v^T from _sym_psd's
    eigenpairs: one column sqrt(w) v for each nonzero w, in decreasing
    order of w.  Its column count is the numerical rank."""
    return (v[:, ::-1] * np.sqrt(w[::-1]))[:, :np.count_nonzero(w)]


def _c0(Af: np.ndarray, D: np.ndarray, Bf: np.ndarray) -> tuple[np.ndarray, float]:
    """C0 for rank factors Af, Bf of nonzero marginals, and its cost: with
    U s V^T the SVD of the cost Af^T D Bf reduced to identity marginals,
    C0 = -Af U_r V_r^T Bf^T puts -1 on the r singular directions the
    rounding cut keeps (zero elsewhere), and <D, C0> = -(s_1 + ... + s_r)."""
    U, s, Vt = np.linalg.svd(Af.T @ D @ Bf)
    r = np.count_nonzero(_rounding_cut(s))
    return Af @ (-U[:, :r] @ Vt[:r, :]) @ Bf.T, -float(s[:r].sum())


def c0_covariance(A, D, B) -> CouplingCovariance:
    """The minimal-rank optimal cross-covariance C0, with its cost and its
    feasibility certificate: the SVD construction of _c0, which also gives
    extremal_covariances its C0."""
    A, wa, va = _sym_psd(A, "A")
    B, wb, vb = _sym_psd(B, "B")
    D = _as_matrix(D, "D")
    if D.shape != (A.shape[0], B.shape[0]):
        raise InputError("D has inconsistent shape")
    Af = _psd_factor(wa, va)
    Bf = _psd_factor(wb, vb)
    if Af.shape[1] == 0 or Bf.shape[1] == 0:
        return CouplingCovariance(np.zeros((A.shape[0], B.shape[0])), 0.0, True, 0.0)
    C, value = _c0(Af, D, Bf)
    return CouplingCovariance(C, value, *feasibility_check(A, B, C))


def _top_gram(R: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of R_k R_k^T for each matrix of a stack R of shape
    (count, r, s) with 1 <= r <= s.

    In blocks of _JACOBI_BLOCK matrices, the r(r+1)/2 Gram entries are rows
    of one buffer, scaled by a power of two that puts each largest diagonal
    entry in [1/2, 1), and diagonalised by cyclic Jacobi sweeps that write
    into those rows and six scratch rows.  A block's sweeps stop when every
    off-diagonal entry satisfies g_pq^2 <= eps^2 |g_pp g_qq|, which gives
    the eigenvalues of a positive semidefinite matrix to high relative
    accuracy (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  A
    matrix past this test is not rotated again (t = 0, c = 1, sn = 0 keep
    its diagonal bit for bit), so blocking changes no bits.  The scaling
    keeps the squares from overflowing, and an entry whose square underflows
    is below 1e-154 of the top eigenvalue.  The absolute value is there
    because the rounded Gram matrix of a rank-deficient R can have a
    diagonal entry of -eps size.
    """
    count, r = R.shape[0], R.shape[1]
    pairs = [(p, q) for p in range(r) for q in range(p + 1, r)]
    top = np.empty(count)
    rows = np.empty((r * (r + 1) // 2 + 6, min(count, _JACOBI_BLOCK)))
    for lo in range(0, count, _JACOBI_BLOCK):
        block = R[lo:lo + _JACOBI_BLOCK]
        n = len(block)
        free, big = iter(rows[:, :n]), np.empty(n, dtype=bool)
        g = [[None] * r for _ in range(r)]  # g[p][q] is g[q][p]: one row per entry
        for p in range(r):
            for q in range(p, r):
                g[p][q] = g[q][p] = np.einsum("kb,kb->k", block[:, p], block[:, q], out=next(free))
        d, den, t, c, sn, w = free
        _, exponent = np.frexp(np.max([g[p][p] for p in range(r)], axis=0))
        np.ldexp(rows[:-6, :n], -exponent, out=rows[:-6, :n])
        for _ in range(_JACOBI_SWEEPS):
            if not any(np.any(g[p][q] * g[p][q] > _EPS2 * np.abs(g[p][p] * g[q][q]))
                       for p, q in pairs):
                break
            for p, q in pairs:
                app, aqq, apq = g[p][p], g[q][q], g[p][q]
                # tan of the rotation that annihilates apq, |t| <= 1 (Golub & Van Loan's
                # 2-by-2 symmetric Schur decomposition, without its overflow-prone ratio):
                # t = 2 apq / (d + sign(d) sqrt(d d + (4 apq) apq)), d = aqq - app.
                # An entry that already passes the stop test is not rotated: within a
                # cluster of equal eigenvalues its rotation would be ~45 degrees and
                # would spread rounding errors back over the other entries.
                np.multiply(app, aqq, out=den)
                np.multiply(_EPS2, np.abs(den, out=den), out=den)
                np.greater(np.multiply(apq, apq, out=w), den, out=big)
                np.subtract(aqq, app, out=d)
                np.multiply(np.multiply(4.0, apq, out=w), apq, out=w)
                np.add(np.multiply(d, d, out=den), w, out=den)
                np.copysign(np.sqrt(den, out=den), d, out=den)
                den += d
                t.fill(0.0)
                np.divide(np.multiply(2.0, apq, out=w), den, out=t, where=big)
                np.add(1.0, np.multiply(t, t, out=c), out=c)  # c = 1 / sqrt(1 + t t), sn = t c
                np.divide(1.0, np.sqrt(c, out=c), out=c)
                np.multiply(t, c, out=sn)
                app -= np.multiply(t, apq, out=w)
                aqq += w
                apq.fill(0.0)
                for o in range(r):
                    if o != p and o != q:
                        op, oq = g[o][p], g[o][q]
                        np.multiply(sn, op, out=w)  # (op, oq) = (c op - sn oq, sn op + c oq)
                        op *= c
                        op -= np.multiply(sn, oq, out=d)
                        oq *= c
                        oq += w
        np.ldexp(np.max([g[p][p] for p in range(r)], axis=0), exponent, out=top[lo:lo + n])
    return top


def sample_feasible_array(A, B, count: int, seed: int) -> np.ndarray:
    """Deterministic random feasible cross-covariances, a (count, n1, n2)
    array, feasible by construction (the test oracle for optimality).

    Each sample is C = A' C' B'^T, with A' and B' rank factors of A and B
    (A' A'^T = A) and C' = U raw / ||raw||_2: raw has i.i.d. standard normal
    entries, ||raw||_2 is its operator norm and U is uniform on [0, 1].  The
    first min(count, 4) samples are replaced by extremal ones, C' with every
    singular value 1.  ||raw||_2 is the square root of the top eigenvalue of
    the smaller Gram matrix of raw (size r, the smaller rank), from Jacobi
    sweeps (see _top_gram).  With a zero marginal the only feasible
    cross-covariance is 0, and every sample is 0.  All draws come first
    (raw, U, the extremal factors); then each block of _JACOBI_BLOCK samples
    is scaled into C' in place and sandwiched on the whole stack's einsum
    path, into one output with the axis order of the first block's result:
    the bits and layout of one einsum call.  The last block takes the tail
    (BLAS may round a tiny product otherwise).
    """
    if count < 0:
        raise InputError("count must be nonnegative")
    A, wa, va = _sym_psd(A, "A")
    B, wb, vb = _sym_psd(B, "B")
    n1, n2 = A.shape[0], B.shape[0]
    Af = _psd_factor(wa, va)
    Bf = _psd_factor(wb, vb)
    ra, rb = Af.shape[1], Bf.shape[1]
    if ra == 0 or rb == 0:
        return np.zeros((count, n1, n2))
    rng = _philox(seed, 0x5EED)
    raw = rng.standard_normal((count, ra, rb))
    top = np.sqrt(_top_gram(raw if ra <= rb else raw.transpose(0, 2, 1)))
    scale = np.where(top > 0, rng.uniform(0.0, 1.0, size=count) / np.where(top > 0, top, 1.0), 0.0)
    for i in range(min(count, 4)):
        q, _ = np.linalg.qr(rng.standard_normal((max(ra, rb),) * 2))
        raw[i], scale[i] = q[:ra, :rb], 1.0  # an extremal sample: scaling by 1 keeps its bits
    path = np.einsum_path("ia,kab,jb->kij", Af, raw, Bf, optimize=True)[0]
    edges = [i * _JACOBI_BLOCK for i in range(max(count // _JACOBI_BLOCK, 1))] + [count]
    for lo, hi in zip(edges, edges[1:]):
        raw[lo:hi] *= scale[lo:hi, None, None]
        part = np.einsum("ia,kab,jb->kij", Af, raw[lo:hi], Bf, optimize=path)
        if hi - lo == count:
            return part
        if lo == 0:
            out = np.empty_like(part, shape=(count, n1, n2))
        out[lo:hi] = part
    return out


def extremal_covariances(A_x, A_y, jet: DistanceJet) -> tuple[CouplingCovariance, CouplingCovariance]:
    """The two extremal optimal covariances C+ and C- for the distance cost
    q12 between tangent Gaussians N(0, A_x) and N(0, A_y).

    A_x and A_y are matrices in the jet's adapted frames and must be
    invertible.  C+ extends parallel-transport coupling, C- reflection
    coupling: C+- = C0 +- e1 e1^T / sqrt((A_x^{-1})_11 (A_y^{-1})_11), where
    C0 is c0_covariance's for the cost q12, from the same SVD (_c0).
    """
    A_x, wx, vx = _sym_psd(A_x, "A_x")
    A_y, wy, vy = _sym_psd(A_y, "A_y")
    n = jet.manifold.dim
    if A_x.shape[0] != n or A_y.shape[0] != n:
        raise InputError("covariances must match the manifold dimension")
    _check_invertible(wx)
    _check_invertible(wy)
    q12 = jet.q12
    c0, _ = _c0(_psd_factor(wx, vx), q12, _psd_factor(wy, vy))
    rank_one = np.zeros((n, n))
    rank_one[0, 0] = 1.0 / math.sqrt((vx[0] ** 2 @ (1.0 / wx)) * (vy[0] ** 2 @ (1.0 / wy)))
    return tuple(CouplingCovariance(C, coupling_cost(C, q12), *feasibility_check(A_x, A_y, C))
                 for C in (c0 + rank_one, c0 - rank_one))
