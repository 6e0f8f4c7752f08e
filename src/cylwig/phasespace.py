"""The Wigner map on the discrete cylinder and its inverse.

Forward maps
------------
For a density operator with elements ``rho_mn`` on a window, the Wigner
function at integer row ``l`` and angle ``phi`` is the finite sum

    W(l, phi) = (1/2pi)   sum_{m+n = 2l}  rho_mn e^{i(m-n)phi}
              + (1/2pi^2) sum_{m+n odd}   rho_mn e^{i(m-n)phi}
                          (-1)^(s-l) / (s - l + 1/2),      s = (m+n-1)/2.

The weight of ``rho_mn`` depends only on the row ``l`` and on ``t = m + n``:
it is the row kernel ``G[l, t]``.  With the operator in sum/difference
coordinates, ``R[t, d] = rho_mn`` for ``d = m - n``, the map reads
``W = G @ R @ E`` with ``E[d, phi] = e^{i d phi}``; it is block-diagonal in
the harmonic ``d``.  The point kernel, the closed-form tail and both inverses
are built on the same ``G``.

Only the odd columns of ``G`` are stored: the Cauchy block
``K = G[:, odd t]``, shape ``(rows, span)``, which spreads each odd ``t``
over every row.  An even column is the constant ``1/2pi`` on the one row
``t/2``; it is never stored, and each consumer adds it on the window rows.
That constant is why an OAM eigenstate's grid is ``delta_{l,l0}/2pi >= 0``.

``G`` is real and so is ``W``, so the map is computed real-first, from the
harmonics ``d >= 0`` only.  ``Re(z e^{-i d phi}) = Re(conj(z) e^{i d phi})``
folds harmonic ``-d`` onto ``d``: with ``P[m+n, m-n] = rho_mn + conj(rho_nm)``
for ``m > n`` and ``rho_mm`` for ``d = 0``, ``X = Re(R @ E) = Re(P @ E)``,
shape ``(2*span + 1, n_phi)``.  On the uniform nodes that sum over ``d`` is
a discrete Fourier transform: one real inverse FFT per row ``t`` (``irfft``),
with the sign ``(-1)^d`` of the first node ``phi_0 = -pi`` and the factor
``1/2`` of the conjugate harmonic that ``irfft`` adds applied beforehand.  Then
``W = K @ X[odd t]``, one GEMM, plus ``X[even t] / 2pi`` added onto the
window rows.  The tail is ``(1/2pi - K.sum(0)) @ X[odd t]``.  The fold takes
both triangles, so it is exact for any operator, and the imaginary part of
the map is the real part for ``-i`` times the operator.

Both inverses start from ``B = (G^T W) @ E^H / n_phi`` for ``d >= 0``, the
angle harmonics of ``G^T W``: ``K^T W`` for the odd ``t`` and the window
rows of ``W`` over ``2pi`` for the even ones, then one real FFT per row
(``rfft``) with the odd ``d`` negated.  ``G^T W`` is real, so harmonic ``-d``
is the conjugate of ``d``:
element ``(m, n)`` is ``B[m+n, |m-n|]``, conjugated where ``m < n``.  The
columns of one harmonic share the parity of ``d``, and over all rows such
columns are orthogonal, ``sum_j 1/((j + 1/2)(j + k + 1/2)) = pi^2 delta_k0``,
so their Gram matrix is ``I/4pi^2``.  The literal inverse is ``4pi^2 B``.
Least squares keeps the stored rows' Gram matrix ``G^T G``.  For an even
``d`` that is exactly ``I/4pi^2`` (the constant on distinct window rows),
so least squares is the literal inverse there, bit for bit.  For an odd
``d`` the stored rows miss those beyond ``|l| = l_max + P``, which carry
``sum 1/l^2 = O(1/P)`` of each entry; that is the literal inverse's error,
and least squares corrects it by solving the block's normal equations.  The
odd ``d`` block uses the columns ``k`` of ``K`` with
``|2k + 1 - span| <= span - d``: the blocks are nested and centred.  With the
columns in centre-out order each block is a leading block of ``K[:, order]``,
so its triangular factor is the leading block of one QR factor ``Rq``, and
every odd ``d`` is solved at once by one forward and one back substitution.
At one row of margin on each side, the least ``_inverse`` accepts (more rows
only add to ``K^T K``), ``2pi sigma_min(K) > 0.4`` and every pivot of ``Rq``
exceeds 0.9 of the largest (tested at spans 0 to 64, 256 and 1024), so
every block has full column rank.

``wigner_from_oam`` evaluates exactly this; ``wigner_from_angle`` evaluates
the equivalent angle-representation integral

    W(l, phi) = (1/2pi) int psi(phi + u/2) conj(psi(phi - u/2)) e^{-i l u} du

from separable samples: ``psi`` is a finite sum of exponentials, so
``psi(phi_j +- u_k) = sum_l terms[j, l] e^{+-i l u_k}`` with
``terms[j, l] = c_l e^{i l phi_j} / sqrt(2pi)``, two complex GEMMs; the
harmonics of the product over ``u`` meet closed-form integrals over the half
period.  It uses no ``G`` and no ``(t, d)`` coordinates, so the two paths
share no index bookkeeping and cross-validate each other.  Both maps share
one preamble, whose memory estimate bounds the peak of either.

Rows beyond the source window carry only the odd part, whose ``1/l`` tails
are the reason for the padding parameter ``P``: marginals in angle and
overlaps converge like ``O(1/P)`` as the stored range grows, while the OAM
marginal and total normalization are exact at any padding.
``angle_marginal_tail`` computes the dropped tail in closed form.  The
``1/l`` coefficient of odd harmonic ``d`` is proportional to the alternating
sum ``sum_k (-1)^k rho_{k+d,k}``; where it vanishes for every odd ``d`` (as
for coherent states, whose Gaussian profile is symmetric about an integer)
the rows fall off like ``1/l^2`` and overlaps of two such operators converge
like ``O(1/P^3)``.
"""

from __future__ import annotations

import itertools
import os
import stat
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    BandLimitError,
    RealnessError,
    ReconstructionError,
    _check_budget,
)
from .states import TWO_PI, AngleGrid, DensityMatrix, OamWindow, PureState

__all__ = [
    "WignerGrid",
    "kernel_matrix",
    "wigner_from_oam",
    "wigner_from_angle",
    "marginal_angle",
    "marginal_oam",
    "angle_marginal_tail",
    "overlap",
    "ReconstructionResult",
    "reconstruct_density",
    "star_product",
    "default_angle_grid",
    "default_pad",
    "write_wigner",
    "read_wigner",
]

IMAG_TOL = 1e-11
RESIDUAL_WARNING = 1e-6


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner values on rows ``l_lo..l_hi`` times an angle grid.

    The rows cover the source window and ``pad`` is the number of rows they
    add on its narrower side, ``min(l_min - l_lo, l_hi - l_max) >= 0``.
    ``values`` are copied, except that the module's own builders pass
    ``_fresh=True`` with a float64 array that nothing else refers to, which
    the grid freezes and keeps.
    """

    l_lo: int
    l_hi: int
    grid: AngleGrid
    values: np.ndarray = field(repr=False)
    source_window: OamWindow
    pad: int
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool):
        lo, hi = self.source_window.l_min, self.source_window.l_max
        margin = min(lo - self.l_lo, self.l_hi - hi)
        if margin < 0 or self.pad != margin:
            fit = f"pad it by {margin}" if margin >= 0 else f"miss it (margin {margin})"
            raise ValueError(
                f"pad {self.pad} does not match the rows: [{self.l_lo}, {self.l_hi}] "
                f"about source window [{lo}, {hi}] {fit}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_rows, self.grid.n_phi):
            raise ValueError(
                f"expected shape {(self.n_rows, self.grid.n_phi)}, got {vals.shape}"
            )
        if not _fresh:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return self.l_hi - self.l_lo + 1

    def rows(self) -> np.ndarray:
        return np.arange(self.l_lo, self.l_hi + 1)

    def row_index(self, l: int) -> int:
        if not self.l_lo <= l <= self.l_hi:
            raise ValueError(f"row l={l} outside [{self.l_lo}, {self.l_hi}]")
        return l - self.l_lo

    def row(self, l: int) -> np.ndarray:
        return self.values[self.row_index(l)]


def default_angle_grid(window: OamWindow) -> AngleGrid:
    """Default resolution 4*span + 4: alias-free with margin for any harmonic
    the window can produce."""
    return AngleGrid(4 * window.span + 4)


def default_pad(window: OamWindow) -> int:
    """Default row padding 8*span, controlling the odd-part 1/l tails."""
    return 8 * window.span


def _stored_rows(window: OamWindow, l_pad: int, grid: AngleGrid) -> tuple[int, int]:
    """Rows ``l_lo, l_hi`` that a forward map stores, as Python ints, once
    the checks both maps share pass: ``l_pad >= 0``, the band limit (which
    keeps every harmonic ``d <= span`` below the FFT's Nyquist column
    ``n_phi/2``), and the memory budget.

    With ``n_t = 2*span + 1`` harmonics, the estimate bounds the peak of
    either map: ``2 * rows * (n_phi + n_t)`` floats for the grid, its copy
    into the WignerGrid (or the imaginary grid) and the per-row weights (the
    Cauchy block or the half-period integrals and their index arithmetic),
    plus ``6 * (n_t + 1) * n_phi`` for the per-angle arrays (the folded
    harmonics and the angle sums of the inverse FFT, or the complex
    wavefunction samples and their harmonics, the larger).
    """
    if l_pad < 0:
        raise ValueError(f"l_pad must be >= 0, got {l_pad}")
    span = window.span
    if grid.n_phi <= 2 * span + 2:
        raise BandLimitError(
            f"n_phi={grid.n_phi} cannot hold the band limit of window "
            f"[{window.l_min}, {window.l_max}]; need n_phi > {2 * span + 2}"
        )
    l_lo, l_hi = int(window.l_min - l_pad), int(window.l_max + l_pad)
    n_t = 2 * span + 1
    _check_budget(
        "Wigner map",
        2 * (l_hi - l_lo + 1) * (grid.n_phi + n_t) + 6 * (n_t + 1) * grid.n_phi,
    )
    return l_lo, l_hi


def _row_kernel(window: OamWindow, rows: np.ndarray) -> np.ndarray:
    """Odd columns of the row kernel ``G[l, t]``, the weight of every
    ``rho_mn`` with ``m + n = t`` in row ``l``: the Cauchy block
    ``K[i, k] = G[rows[i], 2*l_min + 1 + 2k]`` for consecutive ascending
    ``rows``, shape (n_rows, span).

    The weight ``(-1)^j / (j + 1/2) / 2pi^2`` with ``j = (t-1)/2 - l``
    depends on ``j`` alone, so it is evaluated once per ``j`` and laid out as
    a Toeplitz block.  The even columns of ``G`` are not stored: column
    ``t = 2l`` is the constant ``1/2pi`` on row ``l`` and zero elsewhere, which
    every consumer adds on the window rows itself.  Each column of ``G``, odd
    or even, sums to ``1/2pi`` over all rows.
    """
    span, n_rows = window.span, len(rows)
    if not span:  # no odd t, and the view below would start before cauchy
        return np.zeros((n_rows, 0))
    j = np.arange(window.l_max - 1 - rows[0], window.l_min - 1 - rows[-1], -1)
    cauchy = (1.0 - 2.0 * (j & 1)) / (j + 0.5) / (2.0 * np.pi**2)
    # row i, column k: j = l_min + k - rows[i], which is cauchy[span - 1 + i - k],
    # read through a view of cauchy with strides of +1 and -1 elements and
    # copied to a C-contiguous block for BLAS
    step = cauchy.itemsize
    return np.ndarray(
        (n_rows, span), float, cauchy, step * (span - 1), (step, -step)
    ).copy()


def _sum_diff_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum/difference coordinates ``(t, d) = (i + j, i - j)`` of each element
    ``(i, j)`` of a ``size x size`` operator, with ``i`` and ``j`` counted
    from the window's first harmonic."""
    i = np.arange(size)
    return i[:, None] + i[None, :], i[:, None] - i[None, :]


def _folded_harmonics(A: np.ndarray, grid: AngleGrid) -> np.ndarray:
    """Half spectrum ``P``, shape (..., 2*span + 1, n_phi//2 + 1), of an
    operator or a stack of operators ``A``, whose real inverse FFT along the
    last axis is ``X = Re(R(A) @ E)``: row ``t`` of ``X`` is the real angle
    dependence that every ``rho_mn`` with ``m + n = t`` contributes.

    ``Re(z e^{-i d phi}) = Re(conj(z) e^{i d phi})``, so harmonic ``-d`` folds
    onto ``d``: ``P[m+n, m-n] = A_mn + conj(A_nm)`` for ``m > n`` and ``A_mm``
    for ``d = 0``.  Both triangles enter, so this holds for any ``A``, not
    only a Hermitian one.  On the nodes ``phi_j = -pi + 2pi j/n_phi``,
    ``e^{i d phi_j} = (-1)^d e^{2pi i d j/n_phi}``, and ``irfft`` adds the
    conjugate of every harmonic ``d >= 1``, so the scatter writes
    ``(-1)^d P / 2`` there (the imaginary part of the ``d = 0`` column is
    dropped by ``irfft``, as ``Re`` asks).
    """
    size = A.shape[-1]
    i = np.arange(size)
    m, n = np.nonzero(i[:, None] > i)
    P = np.zeros(A.shape[:-2] + (2 * size - 1, grid.n_phi // 2 + 1), dtype=complex)
    P[..., m + n, m - n] = (A[..., m, n] + A[..., n, m].conj()) * (0.5 - ((m - n) & 1))
    P[..., ::2, 0] = A.diagonal(axis1=-2, axis2=-1)
    return P


def _wigner_of_operator(
    A: np.ndarray, window: OamWindow, l_lo: int, l_hi: int, grid: AngleGrid
) -> np.ndarray:
    """Real Wigner values ``G @ X`` of an operator, or of each operator of a
    stack, on the window, with ``X = Re(R(A) @ E)``, for rows ``l_lo..l_hi``
    covering the window.

    That is the real part of ``G @ R(A) @ E`` (all of it for a Hermitian
    ``A``; the imaginary part is the real part for ``-iA``): one GEMM of the
    Cauchy block with the odd rows of ``X``, plus the even rows times the
    constant ``1/2pi``, row ``t`` added onto window row ``t/2``.
    """
    K = _row_kernel(window, np.arange(l_lo, l_hi + 1))
    X = np.fft.irfft(_folded_harmonics(A, grid), grid.n_phi, norm="forward")
    values = K @ X[..., 1::2, :]
    lo = window.l_min - l_lo
    values[..., lo : lo + window.size, :] += X[..., ::2, :] * (1.0 / TWO_PI)
    return values


def _check_real(imag: np.ndarray, what: str) -> None:
    """Refuse a grid that must be real whose imaginary part exceeds IMAG_TOL."""
    # max |imag| from two reductions: no grid-sized temporary
    imag_max = max(float(imag.max()), -float(imag.min())) if imag.size else 0.0
    if imag_max > IMAG_TOL:
        raise RealnessError(
            f"{what} has imaginary part {imag_max:.3e} > {IMAG_TOL:.0e}"
        )


def kernel_matrix(l: int, phi: float, window: OamWindow) -> np.ndarray:
    """Point operator ``w(l, phi)`` as a read-only complex matrix over the
    window, element ``(m, n)`` being ``<m|w(l,phi)|n>``.

    ``Tr[rho w(l,phi)]`` reproduces ``W(l,phi)``; kernels are Hermitian
    (``G[l, t]`` is real, ``t = m + n`` symmetric and ``d = m - n``
    antisymmetric) and covariant under displacements.
    """
    g = np.zeros(2 * window.span + 1)  # the row G[l, t]
    g[1::2] = _row_kernel(window, np.array([l]))[0]
    if window.l_min <= l <= window.l_max:
        g[2 * (l - window.l_min)] = 1.0 / TWO_PI
    t, d = _sum_diff_index(window.size)
    elements = g[t] * np.exp(-1j * d * phi)
    elements.flags.writeable = False
    return elements


def wigner_from_oam(
    source: PureState | DensityMatrix, l_pad: int, grid: AngleGrid
) -> WignerGrid:
    """Forward map from the OAM basis, of a density matrix or of a pure
    state's ``|psi><psi|``, the outer product ``c c^*`` of its coefficients:
    the exact finite double sum.  Stores rows ``l_min - l_pad .. l_max + l_pad``.
    """
    l_lo, l_hi = _stored_rows(source.window, l_pad, grid)
    A = (np.outer(source.coefficients, source.coefficients.conj())
         if isinstance(source, PureState) else source.elements)
    values = _wigner_of_operator(A, source.window, l_lo, l_hi, grid)
    return WignerGrid(l_lo, l_hi, grid, values, source.window, l_pad, _fresh=True)


def _half_period_integral(k: np.ndarray) -> np.ndarray:
    """Exact ``int_{-pi/2}^{pi/2} e^{i k u} du`` for integer ``k``.

    pi at k = 0, zero for even k, ``2 (-1)^((|k|-1)/2) / |k|`` for odd k;
    the even-k zeros are exact by construction (parity, not floating sine).
    """
    k = np.asarray(k)
    out = np.zeros(k.shape, dtype=float)
    out[k == 0] = np.pi
    odd = (k % 2) != 0
    ka = np.abs(k[odd])
    out[odd] = 2.0 * (1.0 - 2.0 * (((ka - 1) // 2) & 1)) / ka
    return out


def wigner_from_angle(psi: PureState, l_pad: int, grid: AngleGrid) -> WignerGrid:
    """Forward map through the angle representation.

    Builds ``Q(phi, u) = psi(phi+u) conj(psi(phi-u))`` on the grid angles
    and ``n_u`` uniform shifts from separable samples: each shifted
    wavefunction is ``terms @ shift`` (or ``shift`` conjugated), with
    ``terms[j, l] = c_l e^{i l phi_j} / sqrt(2pi)`` and
    ``shift[l, k] = e^{i l u_k}``, so no array has more than two axes.  It
    extracts the harmonics of ``Q`` in ``u`` and combines them with
    closed-form half-period integrals, in one real GEMM for the grid and one
    for the imaginary grid, which must vanish.  Agrees with
    :func:`wigner_from_oam` pointwise to ~1e-15 at window +-64; the two
    paths share no index conventions, and this one does not use ``G``.
    """
    window = psi.window
    l_lo, l_hi = _stored_rows(window, l_pad, grid)
    n_u = max(4, 2 * window.span + 2)
    u = AngleGrid(n_u).nodes
    ls = window.values()
    ks = np.arange(2 * window.l_min, 2 * window.l_max + 1)
    sig = _half_period_integral(ks[None, :] - 2 * np.arange(l_lo, l_hi + 1)[:, None])
    # psi(phi_j + u_k) = sum_l terms[j, l] shift[l, k], and psi(phi_j - u_k)
    # the same with shift conjugated: Q = psi(phi + u) conj(psi(phi - u))
    terms = np.exp(1j * np.outer(grid.nodes, ls)) * (psi.coefficients / np.sqrt(TWO_PI))
    shift = np.exp(1j * np.outer(ls, u))
    q_samples = terms @ shift
    q_samples *= terms.conj() @ shift
    # harmonics of Q over u: Q = sum_k q_k(phi) e^{i k u}, over pi
    q = q_samples @ (np.exp(-1j * np.outer(u, ks)) / (n_u * np.pi))
    values = sig @ q.real.T
    _check_real(sig @ q.imag.T, "Wigner grid")
    return WignerGrid(l_lo, l_hi, grid, values, window, l_pad, _fresh=True)


def marginal_angle(W: WignerGrid) -> np.ndarray:
    """Sum of the stored rows at each node: approaches ``<phi|rho|phi>`` up
    to the documented odd-part tail (see :func:`angle_marginal_tail`)."""
    return W.values.sum(axis=0)


def marginal_oam(W: WignerGrid) -> np.ndarray:
    """Angle integral per stored row; exact populations ``<l|rho|l>``."""
    return W.grid.spacing * W.values.sum(axis=1)


def angle_marginal_tail(rho: DensityMatrix, W: WignerGrid) -> np.ndarray:
    """Exact ``sum_{l not stored} W(l, phi_j)`` for the grid's angle nodes.

    Every column of the row kernel sums to ``1/2pi`` over all rows;
    subtracting the stored rows' sums leaves the tail in closed form.  The
    even columns lie wholly on the stored window rows, so only the odd ones
    leave a tail.  The inverse FFT is linear, so the weighted sum of the odd
    rows is taken on their harmonics and transformed once.  Adding this to
    :func:`marginal_angle` recovers the angle marginal identity to machine
    precision at any padding.
    """
    window = rho.window
    if W.l_lo > window.l_min or W.l_hi < window.l_max:
        raise ValueError("stored rows must cover the source window")
    weight = 1.0 / TWO_PI - _row_kernel(window, W.rows()).sum(axis=0)
    P = _folded_harmonics(rho.elements, W.grid)
    return np.fft.irfft(weight @ P[1::2], W.grid.n_phi, norm="forward")


def overlap(W_rho: WignerGrid, W_sigma: WignerGrid) -> float:
    """Traciality functional ``2 pi sum_l int W_rho W_sigma dphi``.

    Equals ``Tr(rho sigma)`` up to the stored-row truncation; the constant
    2 pi is fixed by the delta-state purity ``overlap(W_delta, W_delta) = 1``.
    The truncation error beyond ``|l| = l_max + P`` is ``O(1/P)`` in general
    and ``O(1/P^3)`` when both operators have vanishing alternating sums
    ``sum_k (-1)^k rho_{k+d,k}`` for every odd harmonic ``d`` (coherent
    states, for example): their rows then fall off like ``1/l^2`` instead of
    ``1/l``.
    """
    if W_rho.grid.n_phi != W_sigma.grid.n_phi:
        raise ValueError(
            f"incompatible angle grids: {W_rho.grid.n_phi} vs {W_sigma.grid.n_phi}"
        )
    lo = max(W_rho.l_lo, W_sigma.l_lo)
    hi = min(W_rho.l_hi, W_sigma.l_hi)
    if lo > hi:
        return 0.0
    a = W_rho.values[lo - W_rho.l_lo : hi - W_rho.l_lo + 1]
    b = W_sigma.values[lo - W_sigma.l_lo : hi - W_sigma.l_lo + 1]
    return float(TWO_PI * W_rho.grid.spacing * np.sum(a * b))


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered operator plus diagnostics.

    ``matrix`` is Hermitian as built (element ``(m, n)`` is the conjugate of
    ``(n, m)``, the diagonal real) and trace-renormalized; ``residual`` is the
    max-abs mismatch of the forward map against the input grid; ``status``
    is "warning" when the residual exceeds ``RESIDUAL_WARNING`` (expected for
    the literal inverse at modest padding, whose odd elements carry O(1/P)
    error).
    """

    window: OamWindow
    matrix: np.ndarray = field(repr=False)
    residual: float

    @property
    def status(self) -> str:
        return "warning" if self.residual > RESIDUAL_WARNING else "ok"

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.window, self.matrix)


def _inverse(W: WignerGrid, window: OamWindow, method: str) -> np.ndarray:
    """The operator on ``window`` that ``W`` maps from, trace-normalized, by
    ``method`` (see :func:`reconstruct_density`, which adds the residual).

    Both inverses come from one ``B = (G^T W) @ E^H / n_phi`` over
    ``d >= 0``: ``G^T W`` real-first, then one real FFT per row, as
    ``e^{-i d phi_j} = (-1)^d e^{-2pi i d j/n_phi}`` on the nodes.
    ``literal`` is ``4 pi^2 B``; ``lstsq`` solves the odd harmonics' normal
    equations from one QR of ``K``.  Element ``(m, n)`` is ``R[m+n, |m-n|]``,
    conjugated where ``m < n``: ``G^T W`` is real, so harmonic ``-d`` is the
    conjugate of ``d``, and the matrix is Hermitian as built."""
    span = window.span
    if W.grid.n_phi <= 2 * span:
        raise ReconstructionError(
            f"n_phi={W.grid.n_phi} cannot resolve window span {span}; "
            f"need n_phi > {2 * span}"
        )
    margin = min(window.l_min - W.l_lo, W.l_hi - window.l_max)
    if margin < 1:
        raise ReconstructionError(
            "stored rows must pad the target window by at least one row "
            f"on each side (margin {margin})"
        )
    if method not in ("lstsq", "literal"):
        raise ValueError(f"unknown reconstruction method {method!r}")
    K = _row_kernel(window, W.rows())
    lo = window.l_min - W.l_lo
    GtW = np.empty((2 * span + 1, W.grid.n_phi))
    GtW[1::2] = K.T @ W.values
    GtW[::2] = W.values[lo : lo + window.size] * (1.0 / TWO_PI)
    B = np.fft.rfft(GtW, norm="forward")[:, : span + 1]
    B[:, 1::2] *= -1.0  # e^{-i d phi_j} = (-1)^d e^{-2pi i d j/n_phi}
    R = 4.0 * np.pi**2 * B
    if method == "lstsq" and span:
        # centre-out, odd d's columns |2k+1 - span| <= span - d lead K[:, order] and Rq
        order = np.argsort(np.abs(2 * np.arange(span) + 1 - span), kind="stable")
        Rq = np.linalg.qr(K[:, order], mode="r")
        ts, ds = 2 * order[:, None] + 1, np.arange(1, span + 1, 2)
        # solve pivots no row of an upper triangle, so it substitutes: Rq^T y = b is
        # solved reversed, and y[:n] sees b[:n] only; y past each block is zeroed
        y = np.linalg.solve(Rq.T[::-1, ::-1], B[ts[::-1], ds].view(float))[::-1]
        y[np.arange(span)[:, None] > span - ds.repeat(2)] = 0.0
        R[ts, ds] = np.linalg.solve(Rq, y).view(complex)
    t, d = _sum_diff_index(window.size)
    M = R[t, np.abs(d)]
    raw = np.where(d < 0, M.conj(), M)
    trace = float(np.trace(raw).real)
    if abs(trace) < 1e-9:
        raise ReconstructionError(f"recovered operator has near-zero trace {trace}")
    return raw / trace


def reconstruct_density(
    W: WignerGrid, window: OamWindow, method: str = "lstsq"
) -> ReconstructionResult:
    """Invert the Wigner map over the stored grid.

    ``method="lstsq"`` fits the forward map to the grid in least squares:
    exact (to roundoff) whenever the grid resolves the map, which needs
    ``n_phi > 2*span`` and at least one padding row on each side.  With
    ``n_phi > 2*span`` the harmonics are orthogonal on the grid, so the fit
    splits into one system per harmonic ``d`` over the ``t = m + n`` of the
    d-th diagonal, solved by its normal equations
    ``(G^T G)[ts, ts] x = (G^T yhat)[ts, d]``, where ``G^T yhat`` is formed
    real-first, as the angle harmonics of ``G^T W`` by one real FFT per row.
    Even ``d`` gives the constant ``1/2pi`` on distinct window rows, whose
    Gram block is exactly ``I/4pi^2``: there the fit is the literal inverse,
    bit for bit.  Odd ``d`` gives a sign-scaled Cauchy matrix
    ``1/(s - l + 1/2)`` with distinct nodes; each such block has full column
    rank and a Gram matrix between ``0.16 I/4pi^2`` and the all-rows limit
    ``I/4pi^2`` (tested; see the module docstring).  The odd blocks are
    nested, so one QR factorization of the Cauchy block, with its columns in
    centre-out order, solves them all.
    Only ``d >= 0`` is solved: the data are real, so harmonic ``-d`` is the
    conjugate of ``d``.
    ``method="literal"`` evaluates the textbook inverse as a truncated sum
    over stored rows,
    ``4pi^2 G^T yhat``: the same equations with the Gram matrix replaced by
    ``I/4pi^2``, which misses the ``O(1/P)`` share of the dropped rows in
    its odd matrix elements.  The residual is the real forward map of the
    result against ``W``.
    """
    matrix = _inverse(W, window, method)
    model = _wigner_of_operator(matrix, window, W.l_lo, W.l_hi, W.grid)
    residual = float(np.max(np.abs(model - W.values)))
    return ReconstructionResult(window, matrix, residual)


def star_product(
    W_rho: WignerGrid, W_sigma: WignerGrid, method: str = "operator"
) -> WignerGrid:
    """Wigner function of the operator product ``rho sigma``.

    ``method="operator"`` recovers both operators by least squares, as
    :func:`reconstruct_density` does but without its residual, multiplies,
    and maps forward: exact for resolvable grids.
    ``method="direct"`` stays in quadrature land: both operators are
    recovered by the literal truncated inverse sum and re-mapped, so the
    result converges to the operator path like O(1/P) as padding grows.
    Either way each grid must pad the union of the source windows by at
    least one row on each side, or :class:`ReconstructionError` is raised.

    The product of two states is representable on a real grid only when it
    is (numerically) Hermitian, e.g. self-star or orthogonal states; a
    genuinely complex product raises :class:`RealnessError`.  The imaginary
    grid checked is the map of ``-i rho sigma``, the imaginary part of the
    map of ``rho sigma``; both are mapped as one stack.
    """
    if W_rho.grid.n_phi != W_sigma.grid.n_phi:
        raise ValueError(
            f"incompatible angle grids: {W_rho.grid.n_phi} vs {W_sigma.grid.n_phi}"
        )
    window = W_rho.source_window.union(W_sigma.source_window)
    recon = {"operator": "lstsq", "direct": "literal"}.get(method)
    if recon is None:
        raise ValueError(f"unknown star method {method!r}")
    rho = _inverse(W_rho, window, recon)
    sigma = rho if W_sigma is W_rho else _inverse(W_sigma, window, recon)
    product = rho @ sigma
    l_lo = max(W_rho.l_lo, W_sigma.l_lo)
    l_hi = min(W_rho.l_hi, W_sigma.l_hi)
    values, imag = _wigner_of_operator(
        np.stack((product, -1j * product)), window, l_lo, l_hi, W_rho.grid
    )
    _check_real(imag, "star product")
    pad = min(window.l_min - l_lo, l_hi - window.l_max)
    return WignerGrid(l_lo, l_hi, W_rho.grid, values, window, pad)


# --- file format -------------------------------------------------------------
#
# cylwig-wigner-v1 (CSV, UTF-8): two comment header lines
#     # format=cylwig-wigner-v1
#     # l_lo=.. l_hi=.. n_phi=.. source_l_min=.. source_l_max=.. pad=..
# then rows "l,phi_index,phi,value" ordered l ascending, phi_index ascending,
# with phi and value printed to 17 significant digits: the node texts by
# ``_f17s``, the values by ``_f17_bytes``, both to the bytes of ``'%.17g' %``.
# The rules a file must meet on input are in ``read_wigner``.
#
# Both ways the text is streamed: the writer formats a chunk of whole grid
# rows at a time, and the reader holds the grid, NaN until a cell is read,
# and one chunk or block.  The reader has two paths.  A file that holds
# exactly the writer's bytes for its header (the header as the writer prints
# it, each cell as "\n{l}" and ",{j},{phi_j}," in the writer's order with a
# value of one of ``_f17_bytes``'s fast-range shapes or 0, and the final
# newline) is parsed by ``_read_written`` in chunks of whole grid rows,
# with no string-to-float conversion: its digits are read eight to a 64-bit
# word and scaled by an error-free product (see ``_f17_fields``), to the
# bits ``float()`` gives.  At the first byte that differs that path gives
# up, and the file is read again from its first data row by the general
# path, which hands ``_READ_BLOCK`` lines at a time to ``np.loadtxt``, so
# every message is the general path's.  loadtxt reads every field of every
# row as a float, and each row's phi is checked against the node that its
# phi_index names.  A block that does not parse is scanned again in Python
# to name its first bad data row.

# Lines per ``np.loadtxt`` call, blank and comment lines included.  The block
# is held as a list of strings beside its parsed rows: at 4,096 lines the
# +-8 read's tracemalloc peak was 1.60 MiB against 0.53 MiB at 1,024, while at
# +-64 the 8.6 MiB grid dominates either way (10.1 against 9.0 MiB).
_READ_BLOCK = 1024

_ROW = np.dtype([("l", float), ("phi_index", float), ("phi", float), ("value", float)])
# Cells per chunk of the writer's vectorized formatter, which holds a few
# dozen bytes per cell; a chunk is whole rows, at least one.
_CSV_CHUNK = 4096
# Cells per chunk of the reader's parse of the writer's own bytes; see
# ``_read_written``.
_READ_CELLS = 2048
_HEADER_INTS = ("l_lo", "l_hi", "n_phi", "source_l_min", "source_l_max", "pad")


def _f17s(values: np.ndarray) -> list[str]:
    """``format(x, ".17g")`` of each of ``values``, from one ``%`` template."""
    return ("%.17g," * len(values) % tuple(values.tolist())).split(",")[:-1]


# ``_f17_bytes`` writes each float as 32 bytes, four little-endian uint64
# words, whose bytes with their NULs dropped are those of ``'%.17g' % x``.
# For 1e-280 <= |x| < 1, with ``k = floor(log10 |x|)``, the 17 digits are
# ``D = round(|x| 10^(16-k))`` in [1e16, 1e17), and the words are
#     0: '-' or NUL; "0." and its -k-1 zeros when -4 <= k <= -1; the first
#        digit at byte 6; '.' at byte 7 when k < -4 and a later digit is kept
#     1, 2: digits 2-9 and 10-17, eight to a word, trailing zeros as NULs
#     3: "e-XX" or "e-XXX" when k < -4.
# ``|x| 10^(16-k)`` is ``p + e``, within about 1e-14 of the exact product:
# Dekker's error-free product of |x| with ``hi``, plus ``|x| lo``, where
# ``hi`` is the double nearest ``10^(16-k)`` and ``lo`` the double nearest
# the rest, both taken from Python ints.  Every other value, and every value
# whose product has a fraction within 1e-7 of 1/2 (where the rounding could
# go either way), is formatted by ``'%.17g' %`` itself.  The lower bound keeps
# the split halves of |x|, and the table's largest entry times the split
# factor, in the normal range.  Every shift is by a constant below 64.
_F17_LOW = 1e-280
# n = -k from 0 to 283: floor(log10 |x|) lies in [-281, -1] on the fast range,
# and one correction step may move it by one either way.
_F17_N = 284
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's factor for 26-bit halves


def _words(texts) -> np.ndarray:
    """Each of ``texts`` (at most 8 bytes) as one NUL-padded uint64 word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8").astype(np.uint64)


def _f17_tables():
    big = [10 ** (16 + n) for n in range(_F17_N)]
    hi = np.array([float(b) for b in big])
    lo = np.array([float(b - int(h)) for b, h in zip(big, hi)])
    c = hi * _SPLIT
    hh = c - (c - hi)
    head = [b"\0" + (b"0." + b"0" * (n - 1) if n <= 4 else b"\0" * 6 + b".")
            for n in range(_F17_N)]
    exp = [b"e-%02d" % n if n > 4 else b"" for n in range(_F17_N)]
    return np.stack([hh, hi - hh, hi, lo], axis=1), _words(head), _words(exp)


_F17_POW, _F17_HEAD, _F17_EXP = _f17_tables()
_U = np.uint64
_ALL = _U(2**64 - 1)
_NO_DOT = _U(2**56 - 1)


def _f17_scaled(a, ah, al, n):
    """``a 10^(16+n)`` as ``p + e``; ``ah + al`` is ``a`` split in halves."""
    bh, bl, hi, lo = _F17_POW[n].T
    p = a * hi
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``v < 10**8``, one per byte from the
    lowest, by halving into 32-, 16- and 8-bit lanes (SWAR)."""
    x = v // 10000
    x |= (v - x * 10000) << 32
    t = ((x * 10486) >> 20) & _U(0x0000007F0000007F)  # x // 100 per lane
    x = t | ((x - t * 100) << 16)
    t = ((x * 103) >> 10) & _U(0x000F000F000F000F)  # x // 10 per lane
    return t | ((x - t * 10) << 8)


def _kept(w: np.ndarray) -> np.ndarray:
    """0xFF on each byte of the digit word ``w`` up to its last nonzero one."""
    f = (w + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)  # digits are <= 9
    f |= f >> 8
    f |= f >> 16
    f |= f >> 32
    return (f >> 7) * _U(0xFF)


def _f17_bytes(values: np.ndarray) -> np.ndarray:
    """``(values.size, 32)`` bytes, one row per value, whose non-NUL bytes
    spell ``'%.17g' % x``."""
    x = np.ravel(values).astype(float, copy=False)
    words = np.zeros((x.size, 4), "<u8")
    a = np.abs(x)
    inside = (a >= _F17_LOW) & (a < 1.0)
    fast = np.flatnonzero(inside)
    part = fast.size < x.size
    if part:
        a = a[fast]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    n = -np.floor(np.log10(a)).astype(np.intp)
    p, e = _f17_scaled(a, ah, al, n)
    # log10 can miss k by one next to a power of ten: the exact tests move it.
    step = ((p - 1e16) + e < 0).astype(np.intp) - ((p - 1e17) + e >= 0)
    moved = np.flatnonzero(step)
    if moved.size:
        n[moved] += step[moved]
        p[moved], e[moved] = _f17_scaled(a[moved], ah[moved], al[moved], n[moved])
    whole = np.floor(e)
    frac = e - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    top = d == 10**17  # rounded up to the next power of ten
    n -= top
    d = np.where(top, 10**16, d).astype(np.uint64)
    lead = d // 10**16
    rest = d - lead * 10**16
    w1 = rest // 10**8
    w2 = _digits8(rest - w1 * 10**8)
    w1 = _digits8(w1)
    rows = np.empty((a.size, 4), "<u8") if part else words
    rows[:, 0] = _F17_HEAD[n] | ((lead | _U(0x30)) << 48)
    rows[:, 0] &= np.where((w1 | w2) != 0, _ALL, _NO_DOT)  # one digit takes no '.'
    digits = _U(0x3030303030303030)
    rows[:, 1] = (w1 | digits) & np.where(w2 != 0, _ALL, _kept(w1))
    rows[:, 2] = (w2 | digits) & _kept(w2)
    rows[:, 3] = _F17_EXP[n]
    if part:
        words[fast] = rows
        words[x == 0.0, 0] = _U(0x30 << 48)
    words[:, 0] |= np.where(np.signbit(x), _U(0x2D), _U(0))
    slow = np.concatenate(
        [np.flatnonzero(~inside & (x != 0.0)), fast[np.abs(frac - 0.5) < 1e-7]])
    if slow.size:
        words.view("S32")[slow, 0] = [t.encode() for t in _f17s(x[slow])]
    return words.view(np.uint8)


# The reader's inverse of ``_f17_bytes``: a value field of one of the
# formatter's fast-range shapes, or zero,
#     -?0    -?0.0{0,3}[1-9]\d{0,16}    -?[1-9](.\d{1,16})?e-\d{2,3}  (e-281 at most:
#     the double nearest 1e-280 is 9.9999999999999996e-281)
# is its 17 digits ``D``, padded with trailing zeros as the formatter's
# words hold them, over ``10^M``: ``M = 17 + z`` for ``z`` zeros after
# "0.", ``16 + XX`` for the exponent ``e-XX``.  ``D`` is read eight digits
# to a 64-bit word (SWAR), and ``D 10^-M`` is ``D 2^t/10^M`` times ``2^-t``,
# the first a Dekker product ``p + r`` with the double-double ``2^t/10^M``
# in [1, 2], both taken from Python ints, the second exact.  ``s = p + r``
# is then the correctly rounded value, unless the exact quotient lies near
# a tie: a value whose residual ``p + r - s`` lies within ``2^-30`` of half
# the gap to the neighbouring double on its side (at a power of two the gap
# below is half the gap above) is refused.  The product's error is below
# ``2^-45`` of a gap.  Text written by ``%.17g`` differs from its double by
# at most half a unit of its 17th digit, at most 0.45 of the gap on either
# side, so it lies at least 0.05 of a gap from any tie: no written value is
# refused, and the guard is for hand-made 17-digit decimals.
_F17_EXP_MAX = 281
_F17_M = 16 + _F17_EXP_MAX + 1  # M from 0 to 16 + 281
_MANTISSA = _U(2**52 - 1)
# For n from 0 to 16: the masks of the first n bytes of two words.
_KEEP = np.array([[2 ** (8 * min(n, 8)) - 1, 2 ** (8 * min(max(n - 8, 0), 8)) - 1]
                  for n in range(17)], np.uint64)
_SWAR_STEPS = [(_U(0x0F0F0F0F0F0F0F0F), _U(2561), _U(8)),
               (_U(0x00FF00FF00FF00FF), _U(6553601), _U(16)),
               (_U(0x0000FFFF0000FFFF), _U(42949672960001), _U(32))]


def _f17_inverse_table():
    rows = []
    for m in range(_F17_M):
        t = (10**m).bit_length()
        hi = 2**t / 10**m  # int / int rounds correctly
        num, den = hi.as_integer_ratio()
        rows.append((hi, (2**t * den - num * 10**m) / (10**m * den), 2.0**-t))
    hi, lo, scale = np.array(rows).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    return np.stack([hh, hi - hh, hi, lo, scale], axis=1)


_F17_INV = _f17_inverse_table()


def _sixteen_digits(w: np.ndarray, n: np.ndarray):
    """The first ``n`` (0 to 16) bytes of each pair of words ``w`` (which is
    overwritten), as digits followed by zeros, as a number below ``10**16``;
    None if one of those bytes is not a digit."""
    keep = _KEEP[n]
    w &= keep  # a dropped byte is 0, which the SWAR steps take as digit 0
    if not (((w & _U(0xF0F0F0F0F0F0F0F0)) | (((w + _U(0x0606060606060606))
              & _U(0xF0F0F0F0F0F0F0F0)) >> _U(4))) == (keep & _U(0x3333333333333333))).all():
        return None
    for mask, factor, shift in _SWAR_STEPS:  # 10a + b per 16 bits, then 32, then 64
        w &= mask
        w *= factor
        w >>= shift
    return w[:, 0] * _U(10**8) + w[:, 1]


def _f17_fields(at: np.ndarray, pairs: np.ndarray, v0: np.ndarray, v1: np.ndarray):
    """``D``, ``M`` and the sign of each value field ``[v0, v1)`` of a byte
    buffer whose word at each offset is ``at`` and whose two words are
    ``pairs``, or None if a field is not of an accepted shape."""
    w = at[v0]
    neg = (w & _U(0xFF)) == _U(0x2D)  # '-'
    # The first 7 bytes after the sign less "0.0000": a digit's byte is its value.
    y = np.where(neg, w >> _U(8), w) ^ _U(0x303030302E30)
    del w
    n = v1 - v0 - neg
    fixed = (y & _U(0xFFFF)) == _U(0)  # "0."
    dot = (y & _U(0xFF00)) == _U(0)
    skip = ((y & _U(0xFF0000)) == _U(0)).astype(np.int64)  # zeros after "0."
    skip += (y & _U(0xFFFF0000)) == _U(0)
    skip += (y & _U(0xFFFFFF0000)) == _U(0)
    skip = fixed * (skip + 2)  # bytes before the first digit
    lead = (y >> (_U(8) * skip.astype(np.uint64))) & _U(0xFF)
    del y
    # the exponent, the field's last bytes: "e-XX" or "e-XXX"
    t = at[v1 - 8]
    three = ((t >> _U(24)) & _U(0xFFFF)) == _U(0x2D65)
    sci = three | (((t >> _U(32)) & _U(0xFFFF)) == _U(0x2D65))
    q = (t >> _U(40)) ^ _U(0x303030)  # its last three bytes' digit values
    del t
    sci &= ((q | (q + _U(0x767676))) & np.where(three, _U(0x808080), _U(0x808000))) == _U(0)
    xx = ((((q >> _U(8)) * _U(10)) + (q >> _U(16))) & _U(0xFF)) + three * (q & _U(0xFF)) * _U(100)
    del q
    # digits after the first: those after "0.0{z}d", after "d.", or none in "de-XX"
    nf = n - np.where(fixed, skip + 1, 6 + three)
    ok = np.where(fixed, nf >= 0, sci & (xx <= _U(_F17_EXP_MAX)) & ((nf == -1) | (dot & (nf > 0))))
    ok &= (lead - _U(1) < _U(9)) & (nf <= 16)
    ok |= (n == 1) & (lead == _U(0))  # "0"
    if not ok.all():
        return None
    del ok
    m = np.where(fixed, 15 + skip, 16 + np.minimum(xx, _U(_F17_EXP_MAX)).astype(np.int64))
    del xx
    rest = _sixteen_digits(pairs[v0 + neg + skip + 2 - fixed], np.maximum(nf, 0))
    if rest is None:
        return None
    lead *= _U(10**16)
    lead += rest
    return lead.view(np.int64), m, neg


def _f17_round(digits: np.ndarray, m: np.ndarray, neg: np.ndarray, out: np.ndarray) -> bool:
    """Write ``digits 10^-m``, negated where ``neg``, correctly rounded, to
    ``out``; False if one lies near a tie."""
    a = digits.astype(float)
    da = (digits - a.astype(np.int64)).astype(float)  # exact, |da| <= 8
    c = a * _SPLIT
    ah = c - (c - a)
    del c
    al = a - ah
    bh, bl, hi, lo, scale = _F17_INV[m].T
    p = a * hi
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo + da * hi
    del a, da, ah, al
    s = p + r
    r -= s - p  # exact: s is p + r rounded
    gap = np.spacing(s)
    gap[(r < 0) & ((s.view(np.uint64) & _MANTISSA) == _U(0))] /= 2
    if (np.abs(2 * np.abs(r) - gap) <= gap * 2.0**-29).any():
        return False
    np.multiply(s, scale, out=out)
    np.negative(out, out=out, where=neg)
    return True


def write_wigner(W: WignerGrid, path) -> None:
    """Write ``W`` as cylwig-wigner-v1 CSV to a path, as bytes, or to an
    open text handle, as text."""
    if isinstance(path, (str, bytes, os.PathLike)):
        with open(path, "wb") as fh:
            fh.writelines(_csv_pieces(W))
    else:
        path.writelines(piece.decode("ascii") for piece in _csv_pieces(W))


def wigner_to_csv(W: WignerGrid) -> str:
    return b"".join(_csv_pieces(W)).decode("ascii")


def _fixed(texts: list[str]) -> np.ndarray:
    """``texts`` as rows of NUL-padded bytes, all of the longest's width."""
    return np.array([t.encode("ascii") for t in texts]).reshape(-1, 1).view(np.uint8)


def _csv_header(l_lo: int, l_hi: int, n_phi: int, l_min: int, l_max: int, pad: int) -> bytes:
    """The two header lines, without the newline that starts the first cell."""
    return (
        "# format=cylwig-wigner-v1\n"
        f"# l_lo={l_lo} l_hi={l_hi} n_phi={n_phi} "
        f"source_l_min={l_min} source_l_max={l_max} pad={pad}"
    ).encode("ascii")


def _cell_texts(ls, nodes: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The fixed texts of every cell as rows of NUL-padded bytes: ``\\n{l}``
    for each grid row ``l`` and ``,{j},{phi_j},`` for each node text."""
    return (_fixed([f"\n{l}" for l in ls]),
            _fixed([f",{j},{phi}," for j, phi in enumerate(nodes)]))


def _csv_pieces(W: WignerGrid):
    """The CSV bytes of ``W``: the header, then the cells, a chunk of whole
    rows at a time, then the final newline.  Every cell is a newline and
    ``l,j,phi_j,value``."""
    yield _csv_header(W.l_lo, W.l_hi, W.grid.n_phi, W.source_window.l_min,
                      W.source_window.l_max, W.pad)
    # One byte matrix per chunk, (rows, n_phi, row text + column text +
    # value), whose NULs are dropped.
    row_text, col_text = _cell_texts(W.rows().tolist(), _f17s(W.grid.nodes))
    r, c = row_text.shape[1], row_text.shape[1] + col_text.shape[1]
    step = max(1, _CSV_CHUNK // W.grid.n_phi)
    for i in range(0, W.n_rows, step):
        values = W.values[i : i + step]
        chunk = np.empty((*values.shape, c + 32), np.uint8)
        chunk[:, :, :r] = row_text[i : i + step, None]
        chunk[:, :, r:c] = col_text
        chunk[:, :, c:] = _f17_bytes(values).reshape(*values.shape, 32)
        yield chunk.tobytes().translate(None, b"\0")
    yield b"\n"


def read_wigner(path) -> WignerGrid:
    """Read a cylwig-wigner-v1 grid from a CSV file.

    The two header lines come before the first data row, and each of their
    six integers must be present and an integer.  Data rows may come in any
    order; blank lines and ``#`` comments between them are skipped, but a
    line of spaces only is a malformed row.  Every row has four fields split
    on ``,``:

    - ``l``, ``phi_index`` and ``value`` are numbers by ``np.loadtxt``'s rules
      (``float()`` takes the stripped text, which is ASCII and holds no
      ``_``); ``l`` and ``phi_index`` are integers naming each cell of
      ``[l_lo, l_hi] x [0, n_phi)`` exactly once, and the value is finite;
    - ``phi`` is a number by the same rules within ``1e-12`` of the node
      ``phi_index``; the node's own 17-digit text, which ``write_wigner``
      prints, reads as the node exactly.

    The grid is sized once, from the header and the file's size (a pipe,
    which has none, is refused): a header with ``l_hi < l_lo``, or whose
    cells need more bytes than the file holds, is refused, and one over the
    memory budget raises ``MemoryBudgetError``.  Every other failure is one
    ``ValueError`` line naming the header key, the data row (counted from 1
    over the file) and field, or the cell.

    A file that holds exactly what ``write_wigner`` writes for its header,
    with every value of the formatter's fast range (``1e-280 <= |x| < 1``)
    or 0, of at least 12 rows or at most ``_READ_CELLS`` angles, whose
    ``\\n{l}`` fits one 64-bit word, is read without ``np.loadtxt``
    (``_read_written``), to the same bits.  Any other
    file is read by the rules above, which also give every message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValueError(f"wigner CSV {path} is a pipe or device, not a regular file")
        header = []
        while True:  # header lines, up to the first data row
            line = fh.readline()
            head = line.strip()
            if head.startswith("#"):
                header.append(head[1:])
            elif head or not line:
                break
        meta = dict(t.split("=", 1) for t in " ".join(header).split() if "=" in t)
        if meta.get("format") != "cylwig-wigner-v1":
            raise ValueError("missing or wrong '# format=cylwig-wigner-v1' header")
        for key in _HEADER_INTS:
            if key not in meta:
                raise ValueError(f"wigner CSV header is missing {key}")
        l_lo, l_hi, n_phi, source_l_min, source_l_max, pad = (
            _header_int(meta, key) for key in _HEADER_INTS
        )
        grid = AngleGrid(n_phi)
        if max(abs(l_lo), abs(l_hi), n_phi) >= 2**53:
            raise ValueError("wigner CSV header l_lo, l_hi or n_phi beyond 2**53")
        if l_hi < l_lo:
            raise ValueError(f"wigner CSV header l_hi={l_hi} is below l_lo={l_lo}")
        if not line:
            raise ValueError("wigner CSV has no data rows")
        n_cells = (l_hi - l_lo + 1) * n_phi
        # Every data row takes at least 8 bytes ("l,j,p,v\n").
        if n_cells > info.st_size // 8:
            raise ValueError(
                f"wigner CSV header needs {n_cells} cells, more than the file's "
                f"{info.st_size} bytes hold at 8 bytes per row"
            )
        # The grid, then either the nodes that the general path checks each
        # phi against, at most one per cell, or the node texts of the
        # writer's bytes, which are made only for at most n_cells // 12
        # nodes, or for at most _READ_CELLS, a bounded few.
        _check_budget("wigner grid", 2 * n_cells)
        values = np.full(n_cells, np.nan)  # NaN: not yet read
        header = _csv_header(l_lo, l_hi, n_phi, source_l_min, source_l_max, pad)
        # The text handle reads on from where its binary buffer stands.
        resume = fh.buffer.tell()
        if n_phi > max(n_cells // 12, _READ_CELLS) or not _read_written(
            fh.buffer, info.st_size, header,
            *_cell_texts(range(l_lo, l_hi + 1), _f17s(grid.nodes)),
            values.reshape(-1, n_phi),
        ):
            fh.buffer.seek(resume)
            values.fill(np.nan)
            _read_rows(itertools.chain([line], fh), l_lo, l_hi, grid, values)
    window = OamWindow(source_l_min, source_l_max)
    values = values.reshape(l_hi - l_lo + 1, n_phi)
    return WignerGrid(l_lo, l_hi, grid, values, window, pad, _fresh=True)


def _read_rows(lines, l_lo: int, l_hi: int, grid: AngleGrid, values) -> None:
    """Fill the flat grid ``values``, all NaN, from the data ``lines`` by
    ``np.loadtxt``, ``_READ_BLOCK`` lines at a time."""
    n_rows = 0
    nodes = grid.nodes
    with warnings.catch_warnings():
        # loadtxt warns of a block that holds only blank or comment lines.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        while block := list(itertools.islice(lines, _READ_BLOCK)):
            try:
                cells = np.loadtxt(block, _ROW, delimiter=",", comments="#", ndmin=1)
            except ValueError:
                raise ValueError(_malformed_row(block, n_rows)) from None
            _check_cells(cells, l_lo, l_hi, nodes, values)
            n_rows += len(cells)
    # No cell repeats, so at least as many rows as cells cover every cell.
    if n_rows < values.size:
        raise ValueError(
            "wigner CSV does not cover every (l, phi_index) cell: the header "
            f"needs {values.size} cells, the file has {n_rows} rows"
        )


def _read_written(raw, size: int, header: bytes, row_text, col_text, values) -> bool:
    """Fill the grid ``values`` from the binary file ``raw`` of ``size`` bytes
    if the file holds exactly what ``write_wigner`` writes for ``header``:
    the header, each cell as ``row_text`` + ``col_text`` + an accepted value
    (see ``_f17_fields``) in the writer's order, and the final newline.

    Chunks of whole grid rows, at most ``_READ_CELLS`` cells (or of one row's
    cells), are read into one reused buffer.  A cell starts at a newline;
    its texts are checked by masked comparisons of the 64-bit words at each
    cell's offsets, and its value field, up to the next newline, is parsed
    in place.  Returns False at the first difference, with ``values`` part
    filled; a ``\\n{l}`` longer than one word also returns False.
    """
    n_rows, n_phi = values.shape
    raw.seek(0)
    if row_text.shape[1] > 8 or raw.read(len(header)) != header:
        return False
    rword, rmask, rlen = _text_words(row_text)
    cword, cmask, clen = _text_words(col_text)
    rword, rmask, rlen, k = rword[:, 0], rmask[:, 0], rlen[:, None], cword.shape[1]
    r, c = (_READ_CELLS // n_phi, n_phi) if n_phi <= _READ_CELLS else (1, _READ_CELLS)
    cell = row_text.shape[1] + col_text.shape[1] + 24  # bytes a cell can take
    start = len(header)
    buf = np.zeros(min(min(r * c, values.size) * cell + 1, size - start) + 8 * k + 24, np.uint8)
    # the word and the two words at each byte, and the column texts' words
    at = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    pairs = np.ndarray((buf.size - 15, 2), "<u8", buf, strides=(1, 8))
    texts = np.ndarray((buf.size - 8 * k + 1, k), "<u8", buf, strides=(1, 8))
    for i in range(0, n_rows, r):
        for j in range(0, n_phi, c):
            rows, cols = slice(i, i + r), slice(j, j + c)
            block = values[rows, cols]
            raw.seek(start)
            got = raw.readinto(buf[: min(block.size * cell + 1, size - start)])
            nl = np.flatnonzero(buf[:got] == 10)[: block.size + 1]
            if len(nl) <= block.size or nl[0] != 0:
                return False
            s = nl[:-1].reshape(block.shape)
            if (((at[s] & rmask[rows, None]) != rword[rows, None]).any()
                    or ((texts[s + rlen[rows]] & cmask[cols]) != cword[cols]).any()):
                return False
            fields = _f17_fields(at, pairs, (s + rlen[rows] + clen[cols]).ravel(), nl[1:])
            if fields is None or not _f17_round(*fields, block.reshape(-1)):
                return False
            del fields
            start += int(nl[-1])
    return start + 1 == size


def _text_words(text: np.ndarray):
    """Rows of NUL-padded bytes as little-endian 64-bit words, the words'
    masks of 0xFF over the non-NUL bytes, and the rows' lengths."""
    padded = np.zeros((len(text), -(-text.shape[1] // 8) * 8), np.uint8)
    padded[:, : text.shape[1]] = text
    kept = padded != 0
    return padded.view("<u8"), (kept * np.uint8(0xFF)).view("<u8"), kept.sum(1)


def _header_int(meta: dict, key: str) -> int:
    """A header integer, by the data fields' rule: ASCII, with no ``_``
    (``int()`` alone also takes ``0_1`` and non-ASCII digits)."""
    text = meta[key]
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"wigner CSV header {key}={text!r} is not an integer")


def _malformed_row(block: list[str], offset: int) -> str:
    """One-line message naming the first data row of ``block`` that is not
    four numbers, with fields split on ``,``.  Data rows are those of
    ``np.loadtxt``: text from ``#`` on is dropped and empty lines are skipped
    (a line of spaces is a row).  They are counted from 1 over the whole
    file, after the ``offset`` rows of earlier blocks."""
    row = offset
    texts = (line.split("#", 1)[0].rstrip("\n") for line in block)
    for row, text in enumerate(filter(None, texts), offset + 1):
        where, fields = f"malformed wigner CSV data row {row}", text.split(",")
        if len(fields) != 4:
            return f"{where}: expected 4 fields, got {len(fields)}"
        for k, field in enumerate(fields, 1):
            if not _is_number(field):
                return f"{where}, field {k}: {field!r} is not a number"
    return f"malformed wigner CSV data rows {offset + 1} to {row}"


def _is_number(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a float: ``float()`` takes
    the stripped text, which is ASCII and holds no ``_`` (``float()`` alone
    also takes ``1_000`` and non-ASCII digits such as Arabic-Indic ones)."""
    text = field.strip()
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _check_cells(cells, l_lo: int, l_hi: int, nodes: np.ndarray, values) -> None:
    """Check one block of parsed rows ``l, phi_index, phi, value`` and
    scatter its values into the flat grid ``values``, whose cells not yet
    read hold NaN; each row's ``phi`` must lie within 1e-12 of its node in
    ``nodes``.
    """
    n_phi = len(nodes)
    ls, js, phis, value = cells["l"], cells["phi_index"], cells["phi"], cells["value"]
    for bad, what in (
        ((ls < l_lo) | (ls > l_hi) | (js < 0) | (js >= n_phi),
         f"outside [{l_lo}, {l_hi}] x [0, {n_phi})"),
        ((ls != np.floor(ls)) | (js != np.floor(js)), "has a non-integer index"),
        (~np.isfinite(value), "holds non-finite value {:.17g}"),
    ):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"wigner CSV cell (l={ls[k]:.17g}, phi_index={js[k]:.17g}) "
                + what.format(value[k])
            )
    js = js.astype(np.int64)
    flat = (ls - l_lo).astype(np.int64) * n_phi + js
    # A cell repeats if an earlier block set it, or if a later row of this
    # block overwrites the row position scattered here.
    repeats = ~np.isnan(values[flat])
    position = np.arange(len(flat), dtype=float)
    values[flat] = position
    repeats |= values[flat] != position
    if repeats.any():
        k = int(flat[np.argmax(repeats)])
        raise ValueError(
            f"wigner CSV repeats cell (l={l_lo + k // n_phi}, phi_index={k % n_phi})"
        )
    node = nodes[js]
    bad = ~(np.abs(phis - node) <= 1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"wigner CSV cell (l={ls[k]:.17g}, phi_index={js[k]}) has phi "
            f"{phis[k]:.17g}, not the grid node {node[k]:.17g}"
        )
    values[flat] = value
