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

Both inverses start from ``B = G^T yhat``, ``yhat[l, d]`` being the angle
harmonics of the stored rows.  The columns of one harmonic share the parity
of ``d``, and over all rows such columns are orthogonal,
``sum_j 1/((j + 1/2)(j + k + 1/2)) = pi^2 delta_k0``, so their Gram matrix is
``I/4pi^2``.  The literal inverse ``4pi^2 B`` is the least-squares fit with the
stored rows' Gram matrix ``G^T G`` replaced by that limit; the rows dropped
beyond ``|l| = l_max + P`` carry ``sum 1/l^2 = O(1/P)`` of each odd entry,
which is the literal inverse's error.  Least squares keeps the stored Gram
matrix and solves its normal equations.

``wigner_from_oam`` evaluates exactly this; ``wigner_from_angle`` evaluates
the equivalent angle-representation integral

    W(l, phi) = (1/2pi) int psi(phi + u/2) conj(psi(phi - u/2)) e^{-i l u} du

through exact wavefunction sums at half angles and closed-form integrals of
harmonics over the half period.  The two paths share no index bookkeeping and
cross-validate each other.

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

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BandLimitError, RealnessError, ReconstructionError
from .numerics import TWO_PI, AngleGrid, PeriodicSamples
from .states import DensityMatrix, OamWindow, PureState, angle_wavefunction_at
from .states import _f17, _payload

__all__ = [
    "WignerGrid",
    "KernelMatrix",
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
    """Real Wigner values on rows ``l_lo..l_hi`` times an angle grid."""

    l_lo: int
    l_hi: int
    grid: AngleGrid
    values: np.ndarray = field(repr=False)
    source_window: OamWindow
    pad: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_rows, self.grid.n_phi):
            raise ValueError(
                f"expected shape {(self.n_rows, self.grid.n_phi)}, got {vals.shape}"
            )
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


@dataclass(frozen=True)
class KernelMatrix:
    """Matrix elements ``<m|w(l,phi)|n>`` of the phase-space point operator."""

    l: int
    phi: float
    window: OamWindow
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex)
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("kernel matrix is not Hermitian at 1e-12")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)


def default_angle_grid(window: OamWindow) -> AngleGrid:
    """Default resolution 4*span + 4: alias-free with margin for any harmonic
    the window can produce."""
    return AngleGrid(4 * window.span + 4)


def default_pad(window: OamWindow) -> int:
    """Default row padding 8*span, controlling the odd-part 1/l tails."""
    return 8 * window.span


def _check_band_limit(window: OamWindow, grid: AngleGrid) -> None:
    if grid.n_phi <= 2 * window.span + 2:
        raise BandLimitError(
            f"n_phi={grid.n_phi} cannot hold the band limit of window "
            f"[{window.l_min}, {window.l_max}]; need n_phi > {2 * window.span + 2}"
        )


def _row_kernel(window: OamWindow, rows: np.ndarray) -> np.ndarray:
    """Row kernel ``G[l, t]``: the weight of every ``rho_mn`` with ``m + n = t``
    in row ``l``, for ``t = 2*l_min .. 2*l_max``.  Shape (n_rows, 2*span + 1).

    ``1/2pi`` at ``t = 2l`` for even ``t``; ``(-1)^j / (j + 1/2) / 2pi^2``
    with ``j = (t-1)/2 - l`` for odd ``t``.  Each column sums to ``1/2pi``
    over all rows.
    """
    t = np.arange(2 * window.l_min, 2 * window.l_max + 1)
    l = rows[:, None]
    j = (t - 1) // 2 - l
    odd_w = ((-1.0) ** j) / (j + 0.5) / (2.0 * np.pi**2)
    even_w = np.where(t == 2 * l, 1.0 / TWO_PI, 0.0)
    return np.where(t % 2 != 0, odd_w, even_w)


def _sum_diff_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(m_i + n_i, m_i - n_i + size - 1)`` of each ``(m_i, n_i)`` in
    the sum/difference coordinates ``(t, d)`` of a ``size x size`` operator."""
    i = np.arange(size)
    return i[:, None] + i[None, :], i[:, None] - i[None, :] + size - 1


def _sum_diff(A: np.ndarray) -> np.ndarray:
    """Operator in ``(t, d)`` coordinates, zero where ``t`` and ``d`` differ in
    parity; the columns are the harmonics ``d = -span .. span``."""
    size = A.shape[0]
    R = np.zeros((2 * size - 1, 2 * size - 1), dtype=complex)
    R[_sum_diff_index(size)] = A
    return R


def _harmonics(span: int, grid: AngleGrid) -> np.ndarray:
    """``E[d, j] = e^{i d phi_j}`` for ``d = -span .. span``."""
    diffs = np.arange(-span, span + 1)
    return np.exp(1j * diffs[:, None] * grid.nodes[None, :])


def _wigner_of_operator(
    A: np.ndarray, window: OamWindow, l_lo: int, l_hi: int, grid: AngleGrid
) -> np.ndarray:
    """Complex Wigner values ``G @ R(A) @ E`` of an operator on the window."""
    G = _row_kernel(window, np.arange(l_lo, l_hi + 1))
    return G @ _sum_diff(A) @ _harmonics(window.span, grid)


def _to_real(values: np.ndarray, what: str) -> np.ndarray:
    imag_max = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if imag_max > IMAG_TOL:
        raise RealnessError(
            f"{what} has imaginary part {imag_max:.3e} > {IMAG_TOL:.0e}"
        )
    return values.real


def kernel_matrix(l: int, phi: float, window: OamWindow) -> KernelMatrix:
    """Point operator ``w(l, phi)`` as a matrix over the window.

    ``Tr[rho w(l,phi)]`` reproduces ``W(l,phi)``; kernels are Hermitian and
    covariant under displacements.
    """
    G = _row_kernel(window, np.array([l]))[0]
    t, d = _sum_diff_index(window.size)
    return KernelMatrix(l, phi, window, G[t] * np.exp(-1j * (d - window.span) * phi))


def wigner_from_oam(rho: DensityMatrix, l_pad: int, grid: AngleGrid) -> WignerGrid:
    """Forward map from the OAM basis: exact finite double sum.

    Stores rows ``l_min - l_pad .. l_max + l_pad``.
    """
    if l_pad < 0:
        raise ValueError(f"l_pad must be >= 0, got {l_pad}")
    _check_band_limit(rho.window, grid)
    l_lo = rho.window.l_min - l_pad
    l_hi = rho.window.l_max + l_pad
    values = _wigner_of_operator(rho.elements, rho.window, l_lo, l_hi, grid)
    return WignerGrid(
        l_lo, l_hi, grid, _to_real(values, "Wigner grid"), rho.window, l_pad
    )


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
    out[odd] = 2.0 * ((-1.0) ** ((ka - 1) // 2)) / ka
    return out


def wigner_from_angle(psi: PureState, l_pad: int, grid: AngleGrid) -> WignerGrid:
    """Forward map through the angle representation.

    Builds ``Q(phi, u) = psi(phi+u) conj(psi(phi-u))`` from exact
    half-angle wavefunction sums, extracts its harmonics in ``u`` on a
    uniform grid, and combines them with closed-form half-period integrals.
    Agrees with :func:`wigner_from_oam` pointwise to ~1e-13; the two paths
    share no index conventions.
    """
    if l_pad < 0:
        raise ValueError(f"l_pad must be >= 0, got {l_pad}")
    window = psi.window
    _check_band_limit(window, grid)
    span = window.span
    n_u = max(4, 2 * span + 2)
    u = AngleGrid(n_u).nodes
    phis = grid.nodes
    a = angle_wavefunction_at(psi, phis[:, None] + u[None, :])
    b = angle_wavefunction_at(psi, phis[:, None] - u[None, :])
    q_samples = a * np.conj(b)
    ks = np.arange(2 * window.l_min, 2 * window.l_max + 1)
    # harmonics of Q over u: Q = sum_k q_k(phi) e^{i k u}
    proj = np.exp(-1j * np.outer(u, ks)) / n_u
    q = q_samples @ proj  # (n_phi, n_k)
    rows = np.arange(window.l_min - l_pad, window.l_max + l_pad + 1)
    sig = _half_period_integral(ks[None, :] - 2 * rows[:, None])
    values = (sig @ q.T) / np.pi
    return WignerGrid(
        rows[0], rows[-1], grid, _to_real(values, "Wigner grid"), window, l_pad
    )


def marginal_angle(W: WignerGrid) -> PeriodicSamples:
    """Sum of the stored rows: approaches ``<phi|rho|phi>`` up to the
    documented odd-part tail (see :func:`angle_marginal_tail`)."""
    return PeriodicSamples(W.grid, W.values.sum(axis=0))


def marginal_oam(W: WignerGrid) -> np.ndarray:
    """Angle integral per stored row; exact populations ``<l|rho|l>``."""
    return W.grid.spacing * W.values.sum(axis=1)


def angle_marginal_tail(rho: DensityMatrix, W: WignerGrid) -> np.ndarray:
    """Exact ``sum_{l not stored} W(l, phi_j)`` for the grid's angle nodes.

    Every column of the row kernel sums to ``1/2pi`` over all rows;
    subtracting the stored rows' sums leaves the tail in closed form.  Adding
    this to :func:`marginal_angle` recovers the angle marginal identity to
    machine precision at any padding.
    """
    window = rho.window
    if W.l_lo > window.l_min or W.l_hi < window.l_max:
        raise ValueError("stored rows must cover the source window")
    weight = 1.0 / TWO_PI - _row_kernel(window, W.rows()).sum(axis=0)
    tail = weight @ _sum_diff(rho.elements) @ _harmonics(window.span, W.grid)
    return _to_real(tail, "angle-marginal tail")


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

    ``matrix`` is Hermitized and trace-renormalized; ``residual`` is the
    max-abs mismatch of the forward map against the input grid; ``status``
    is "warning" when the residual exceeds 1e-6 (expected for the literal
    inverse at modest padding, whose odd elements carry O(1/P) error).
    """

    window: OamWindow
    matrix: np.ndarray = field(repr=False)
    residual: float
    status: str
    method: str

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.window, self.matrix)


def _inverse(W: WignerGrid, window: OamWindow, method: str) -> np.ndarray:
    """Both inverses from one ``B = G^T yhat``: ``literal`` is ``4 pi^2 B``,
    ``lstsq`` solves each harmonic's ``(G^T G)[ts, ts] x = B[ts, d]``."""
    span = window.span
    G = _row_kernel(window, W.rows())
    B = G.T @ (W.values @ (_harmonics(span, W.grid).conj().T / W.grid.n_phi))
    if method == "literal":
        return 4.0 * np.pi**2 * B[_sum_diff_index(window.size)]
    gram = G.T @ G
    X = np.zeros_like(B)
    for d in range(-span, span + 1):
        ts = np.arange(abs(d), 2 * span - abs(d) + 1, 2)
        lam, V = np.linalg.eigh(gram[np.ix_(ts, ts)])
        rank = int(np.sum(lam > lam[-1] * len(ts) * np.finfo(float).eps))
        if rank < len(ts):
            m0 = window.l_min
            pairs = [(m0 + (t + d) // 2, m0 + (t - d) // 2) for t in ts.tolist()]
            raise ReconstructionError(
                f"harmonic d={d}: kernel block rank {rank} < {len(ts)}; "
                f"deficient matrix-element directions (m, n): {pairs}",
                deficient_directions=pairs,
            )
        X[ts, d + span] = V @ ((V.T @ B[ts, d + span]) / lam)
    return X[_sum_diff_index(window.size)]


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
    ``(G^T G)[ts, ts] x = (G^T yhat)[ts, d]``.  Even ``d`` gives distinct
    rows of ``1/2pi``; odd ``d`` gives a sign-scaled Cauchy matrix
    ``1/(s - l + 1/2)`` with distinct nodes, so every block has full column
    rank, and its Gram block is close to the all-rows limit ``I/4pi^2``
    (well conditioned).  ``method="literal"`` evaluates the textbook inverse
    as a truncated sum over stored rows, ``4pi^2 G^T yhat``: the same
    equations with the Gram matrix replaced by ``I/4pi^2``, which misses the
    ``O(1/P)`` share of the dropped rows in its odd matrix elements.
    """
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
    raw = _inverse(W, window, method)
    herm = 0.5 * (raw + raw.conj().T)
    trace = float(np.trace(herm).real)
    if abs(trace) < 1e-9:
        raise ReconstructionError(f"recovered operator has near-zero trace {trace}")
    herm = herm / trace
    model = _wigner_of_operator(herm, window, W.l_lo, W.l_hi, W.grid)
    residual = float(np.max(np.abs(model.real - W.values)))
    status = "warning" if residual > RESIDUAL_WARNING else "ok"
    return ReconstructionResult(window, herm, residual, status, method)


def star_product(
    W_rho: WignerGrid, W_sigma: WignerGrid, method: str = "operator"
) -> WignerGrid:
    """Wigner function of the operator product ``rho sigma``.

    ``method="operator"`` reconstructs both operators (least squares),
    multiplies, and maps forward: exact for resolvable grids.
    ``method="direct"`` stays in quadrature land: both operators are
    recovered by the literal truncated inverse sum and re-mapped, so the
    result converges to the operator path like O(1/P) as padding grows.

    The product of two states is representable on a real grid only when it
    is (numerically) Hermitian, e.g. self-star or orthogonal states; a
    genuinely complex product raises :class:`RealnessError`.
    """
    if W_rho.grid.n_phi != W_sigma.grid.n_phi:
        raise ValueError(
            f"incompatible angle grids: {W_rho.grid.n_phi} vs {W_sigma.grid.n_phi}"
        )
    window = W_rho.source_window.union(W_sigma.source_window)
    if method == "operator":
        recon = "lstsq"
    elif method == "direct":
        if W_rho.pad < 1 or W_sigma.pad < 1:
            raise ValueError(
                "method='direct' refused at pad 0: the truncated inverse "
                "sum is dominated by its tail"
            )
        recon = "literal"
    else:
        raise ValueError(f"unknown star method {method!r}")
    r1 = reconstruct_density(W_rho, window, method=recon)
    r2 = reconstruct_density(W_sigma, window, method=recon)
    product = r1.matrix @ r2.matrix
    l_lo = max(W_rho.l_lo, W_sigma.l_lo)
    l_hi = min(W_rho.l_hi, W_sigma.l_hi)
    if l_lo > window.l_min or l_hi < window.l_max:
        raise ValueError("grid row ranges do not cover the union window")
    values = _wigner_of_operator(product, window, l_lo, l_hi, W_rho.grid)
    pad = min(window.l_min - l_lo, l_hi - window.l_max)
    return WignerGrid(
        l_lo, l_hi, W_rho.grid, _to_real(values, "star product"), window, pad
    )


# --- file format -------------------------------------------------------------
#
# cylwig-wigner-v1 (CSV, UTF-8): two comment header lines
#     # format=cylwig-wigner-v1
#     # l_lo=.. l_hi=.. n_phi=.. source_l_min=.. source_l_max=.. pad=..
# then rows "l,phi_index,phi,value" ordered l ascending, phi_index ascending,
# with phi and value printed to 17 significant digits.  A JSON twin of the
# same payload (keys as in the header plus "values" row-major) is accepted
# on input.


def write_wigner(W: WignerGrid, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(wigner_to_csv(W))


def wigner_to_csv(W: WignerGrid) -> str:
    lines = [
        "# format=cylwig-wigner-v1",
        f"# l_lo={W.l_lo} l_hi={W.l_hi} n_phi={W.grid.n_phi} "
        f"source_l_min={W.source_window.l_min} "
        f"source_l_max={W.source_window.l_max} pad={W.pad}",
    ]
    cols = [f",{j},{_f17(phi)}," for j, phi in enumerate(W.grid.nodes.tolist())]
    for l, row in zip(W.rows().tolist(), W.values.tolist()):
        lines.extend(f"{l}{col}{_f17(v)}" for col, v in zip(cols, row))
    return "\n".join(lines) + "\n"


def _finite(W: WignerGrid) -> WignerGrid:
    bad = ~np.isfinite(W.values)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), W.grid.n_phi)
        raise ValueError(
            f"wigner cell (l={W.l_lo + i}, phi_index={j}) holds non-finite "
            f"value {W.values[i, j]}"
        )
    return W


def _wigner_from_json(data) -> WignerGrid:
    with _payload(data, "cylwig-wigner-v1") as data:
        l_lo, l_hi, pad = int(data["l_lo"]), int(data["l_hi"]), int(data["pad"])
        grid = AngleGrid(int(data["n_phi"]))
        values = np.asarray(data["values"], dtype=float)
        window = OamWindow(int(data["source_l_min"]), int(data["source_l_max"]))
    return WignerGrid(l_lo, l_hi, grid, values, window, pad)


def read_wigner(path) -> WignerGrid:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _finite(_wigner_from_json(json.loads(text)))
    meta = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, _, val = token.partition("=")
                    meta[key] = val
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed wigner CSV row: {line!r}")
        rows.append((int(parts[0]), int(parts[1]), float(parts[3])))
    if meta.get("format") != "cylwig-wigner-v1":
        raise ValueError("missing or wrong '# format=cylwig-wigner-v1' header")
    for key in ("l_lo", "l_hi", "n_phi", "source_l_min", "source_l_max", "pad"):
        if key not in meta:
            raise ValueError(f"wigner CSV header is missing {key}")
    l_lo, l_hi = int(meta["l_lo"]), int(meta["l_hi"])
    grid = AngleGrid(int(meta["n_phi"]))
    n_phi = grid.n_phi
    try:
        cells = np.array(rows, dtype=float).reshape(-1, 3)
    except OverflowError:
        raise ValueError("wigner CSV holds a cell index outside any grid") from None
    ls, js = cells[:, 0], cells[:, 1]
    bad = (ls < l_lo) | (ls > l_hi) | (js < 0) | (js >= n_phi)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"wigner CSV cell (l={int(ls[k])}, phi_index={int(js[k])}) outside "
            f"[{l_lo}, {l_hi}] x [0, {n_phi})"
        )
    flat = (ls - l_lo).astype(int) * n_phi + js.astype(int)
    counts = np.bincount(flat, minlength=(l_hi - l_lo + 1) * n_phi)
    if counts.max(initial=0) > 1:
        k = int(np.argmax(counts))
        raise ValueError(
            f"wigner CSV repeats cell (l={l_lo + k // n_phi}, phi_index={k % n_phi})"
        )
    if not counts.all():
        raise ValueError("wigner CSV does not cover every (l, phi_index) cell")
    values = np.empty(counts.shape)
    values[flat] = cells[:, 2]
    window = OamWindow(int(meta["source_l_min"]), int(meta["source_l_max"]))
    return _finite(
        WignerGrid(l_lo, l_hi, grid, values.reshape(-1, n_phi), window, int(meta["pad"]))
    )
