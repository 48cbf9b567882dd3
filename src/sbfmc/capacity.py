"""Multicast capacity-optimal transmit covariance.

Solves  max_W min_i h_i^H W h_i  s.t.  W >= 0, tr W = 1, the multicast
max-min SDP of Sidiropoulos, Davidson and Luo ("Transmit beamforming for
physical-layer multicasting", IEEE TSP 2006), without any SDP dependency.
In standard conic form the variables are (W, t, s):

    min -t  s.t.  <h_i h_i^H, W> - t - s_i = 0  (i = 1..M),  tr W = 1,
                  W >= 0,  t >= 0,  s >= 0.

Its dual is  min nu  s.t.  nu I - sum_i q_i h_i h_i^H >= 0, sum_i q_i = 1,
q >= 0.

Algorithm: infeasible-start primal-dual path following with HKM search
directions and Mehrotra's predictor-corrector (Todd, Toh and Tutuncu, SIAM
J. Optim. 1998).  Each Newton step solves one (M+1) x (M+1) Schur
complement system with numpy's dense linear algebra; a solve takes 6-17
steps.  ``max_iter`` caps the Newton steps.

Certificate: for any q >= 0, min_i h_i^H W h_i <= lambda_max(sum_i q^_i
h_i h_i^H) with q^ = q / sum q.  The dual iterate's q gives this upper
bound; the reported gap is the best bound minus the objective of the
returned W, both evaluated directly on the input channels, and
``converged`` means gap <= tol.  The certificate does not rest on the
accuracy of the iteration.

Rank finish: interior iterates are positive definite, so the null space of
W* shows up as eigenvalues of order mu rather than zeros, above the rank
threshold of ``sampling.psd_sqrt``.  Once an iterate's gap is within
tol/10, each eigen-direction v of W is classified by the strict
complementarity indicator lambda(W) / (v^H Z v), Z the dual slack: it grows
like 1/mu on the range of W* and shrinks like mu on its null space.
Directions it puts clearly in the null space are zeroed and the trace is
renormalized, and the finished W is certified against the full-space dual
bound.  While that gap exceeds tol or some direction is ambiguous, the path
is followed further (a truly null direction becomes clear as mu falls);
if rounding error stops the progress first, the finished iterate with the
best objective is returned, ambiguous directions kept.
"""

from dataclasses import dataclass

import numpy as np

from .sampling import ChannelSet

# lambda(W) / (v^H Z v) below _CLEAR: null direction of W*; above 1/_CLEAR:
# range direction; in between: ambiguous
_CLEAR = 1e-3


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD transmit covariance with unit trace."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("covariance must be square")
        if np.linalg.norm(w - w.conj().T) > 1e-12:
            raise ValueError("covariance not Hermitian (residual > 1e-12)")
        lam = np.linalg.eigvalsh(w)
        if lam[0] < -1e-10:
            raise ValueError(f"covariance has eigenvalue {lam[0]} < -1e-10")
        if abs(np.trace(w).real - 1.0) > 1e-10:
            raise ValueError(f"trace {np.trace(w).real} != 1 (tol 1e-10)")

    @property
    def trace(self):
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class McSolution:
    """Solver output: the rank-finished covariance, its objective
    min_i h_i^H W h_i, the certified dual upper bound and their gap;
    ``iterations`` counts Newton steps."""

    covariance: CovarianceMatrix
    objective: float
    upper_bound: float
    gap: float
    iterations: int
    converged: bool
    best_objective_history: tuple


def rho_values(w, ch):
    """Quadratic-form gains rho_i = h_i^H W h_i (clipped at 0) and rho_min."""
    entries = w.entries if isinstance(w, CovarianceMatrix) else np.asarray(w)
    h = ch.channels if isinstance(ch, ChannelSet) else np.asarray(ch)
    if h.shape[1] != entries.shape[0]:
        raise ValueError(
            f"dimension mismatch: channels are {h.shape[1]}-dim, covariance {entries.shape[0]}"
        )
    hw = h.conj() @ entries
    rho = np.einsum("ij,ij->i", hw, h).real
    rho = np.maximum(rho, 0.0)
    return rho, float(rho.min())


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _unit_trace(w):
    w = _herm(w)
    return w / np.trace(w).real


def _gains(hch, w):
    hw = hch.conj() @ w
    return np.einsum("ij,ij->i", hw, hch).real


def _dual_bound(hch, q):
    """Certificate lambda_max(sum_i q^_i h_i h_i^H), q^ = q / sum q."""
    a = hch.T @ ((q / q.sum())[:, None] * hch.conj())
    return float(np.linalg.eigvalsh(_herm(a))[-1])


def _max_step(x, dx):
    """Largest alpha with X + alpha dX still PSD (X positive definite)."""
    li = np.linalg.inv(np.linalg.cholesky(x))
    lam = np.linalg.eigvalsh(_herm(li @ dx @ li.conj().T))[0]
    return np.inf if lam >= 0 else -1.0 / lam


def _max_step_lp(x, dx):
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg])) if neg.any() else np.inf


def _central_path(hch):
    """Primal-dual path following on the standard form of the module
    docstring.  Yields, after each Newton step, the unit-trace primal
    iterate W, the dual slack Z (for the channels scaled to
    max_i |h_i|^2 = 1), the dual weights q >= 0 and the duality measure
    mu; stops when a step breaks down numerically."""
    m, n = hch.shape
    scale = float(np.einsum("ij,ij->i", hch, hch.conj()).real.max())
    h = hch / np.sqrt(scale)
    hc, ht = h.conj(), h.T
    eye = np.eye(n)
    nu = n + m + 1
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.zeros(m + 1)
    c[0] = -1.0

    # constraint maps on the (W, t, s) blocks and their adjoints
    def a_sdp(k):
        return np.append(np.einsum("ij,ij->i", hc @ k, h).real, np.trace(k).real)

    def a_lp(v):
        return np.append(-v[0] - v[1:], 0.0)

    def at_sdp(y):
        return _herm(ht @ (y[:m, None] * hc)) + y[m] * eye

    def at_lp(y):
        return np.append(-y[:m].sum(), -y[:m])

    # primal W = x_mat and (t, s) = x; dual y = (q, y_tr) with slacks
    # z_mat = -sum_i q_i h_i h_i^H - y_tr I and z = (sum_i q_i - 1, q)
    x_mat = eye / n + 0j
    x = np.full(m + 1, 1.0 / n)
    y = np.zeros(m + 1)
    z_mat = eye + 0j
    z = np.ones(m + 1)
    mu = (np.vdot(x_mat, z_mat).real + x @ z) / nu
    while True:
        rp = b - a_sdp(x_mat) - a_lp(x)
        rd_mat = -z_mat - at_sdp(y)
        rd = c - z - at_lp(y)
        try:
            zi = np.linalg.inv(z_mat)
            # HKM Schur complement S_kl = <A_k, X A_l Z^-1> + LP block
            xzi = x_mat @ zi
            s = np.empty((m + 1, m + 1))
            s[:m, :m] = ((hc @ x_mat @ ht) * (hc @ zi @ ht).T).real
            s[:m, m] = s[m, :m] = np.einsum("ij,ij->i", hc @ xzi, h).real
            s[m, m] = np.trace(xzi).real
            d = x / z
            s[:m, :m] += d[0] + np.diag(d[1:])

            def direction(r_mat, r):
                # solves A(dX, dx) = rp, A*(dy) + (dZ, dz) = rd and the
                # linearized complementarity dX Z + X dZ = R, dx z + x dz = r
                k = (r_mat - x_mat @ rd_mat) @ zi
                dy = np.linalg.solve(s, rp - a_sdp(k) - a_lp((r - x * rd) / z))
                dz_mat = rd_mat - at_sdp(dy)
                dz = rd - at_lp(dy)
                return _herm((r_mat - x_mat @ dz_mat) @ zi), (r - x * dz) / z, dy, dz_mat, dz

            def step_lengths(dx_mat, dx, dz_mat, dz, frac=1.0):
                return (min(1.0, frac * _max_step(x_mat, dx_mat), frac * _max_step_lp(x, dx)),
                        min(1.0, frac * _max_step(z_mat, dz_mat), frac * _max_step_lp(z, dz)))

            xz = x_mat @ z_mat
            dxa, dxla, _, dza, dzla = direction(-xz, -x * z)
            ap, ad = step_lengths(dxa, dxla, dza, dzla)
            mu_aff = (np.vdot(x_mat + ap * dxa, z_mat + ad * dza).real
                      + (x + ap * dxla) @ (z + ad * dzla)) / nu
            sigma = min(1.0, (mu_aff / mu) ** 3)
            dx_mat, dx, dy, dz_mat, dz = direction(sigma * mu * eye - xz - dxa @ dza,
                                                   sigma * mu - x * z - dxla * dzla)
            # step to a fraction 0.9-0.99 of the boundary, larger when the
            # predictor could step far (Toh, Todd and Tutuncu's SDPT3 rule)
            ap, ad = step_lengths(dx_mat, dx, dz_mat, dz, 0.9 + 0.09 * min(ap, ad))
        except np.linalg.LinAlgError:
            return  # an iterate left the cone interior numerically
        x_mat = x_mat + ap * dx_mat
        x = x + ap * dx
        y = y + ad * dy
        z_mat = z_mat + ad * dz_mat
        z = z + ad * dz
        mu = (np.vdot(x_mat, z_mat).real + x @ z) / nu
        yield _unit_trace(x_mat), z_mat, np.maximum(y[:m], 0.0), mu


def _rank_finish(w, z):
    """Zero the eigen-directions of W that the complementarity indicator
    lambda(W) / (v^H Z v) puts clearly in the null space of W* and
    renormalize.  Returns the finished W and whether every direction was
    classified clearly (indicator outside the ambiguous band)."""
    lam, v = np.linalg.eigh(w)
    zv = np.einsum("ji,jk,ki->i", v.conj(), z, v).real
    keep = lam > _CLEAR * zv
    vk = v[:, keep]
    clear = not np.any(keep & (zv > _CLEAR * lam))
    return _unit_trace((vk * lam[keep]) @ vk.conj().T), clear


def solve_mc_covariance(ch, tol=1e-6, max_iter=100_000):
    """Max-min optimal covariance for a channel set; see module docstring.

    ``max_iter`` caps the Newton steps.  Returns an McSolution whose
    ``best_objective_history`` holds the best objective after each Newton
    step; ``converged`` is False when the certified gap of the returned
    covariance is still above tol.
    """
    hch = ch.channels.astype(np.complex128)
    m, n = hch.shape
    if m == 1:
        # matched beamforming is the single-user optimum
        h = hch[0]
        w = np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
        obj = float(np.linalg.norm(h) ** 2)
        return McSolution(
            CovarianceMatrix(w), obj, obj, 0.0, 0, True, (obj,)
        )

    q_best = np.ones(m)
    ub = _dual_bound(hch, q_best)
    w, z = np.eye(n) / n + 0j, np.eye(n) + 0j
    w_out, obj_out = None, -np.inf
    history = []
    mu_prev = np.inf
    for _, (w, z, q, mu) in zip(range(max_iter), _central_path(hch)):
        obj = float(_gains(hch, w).min())
        history.append(max(obj, history[-1]) if history else obj)
        ub_q = _dual_bound(hch, q) if q.sum() > 0 else np.inf
        if ub_q < ub:
            ub, q_best = ub_q, q
        if ub - obj <= tol / 10:
            w_fin, clear = _rank_finish(w, z)
            obj_fin = float(_gains(hch, w_fin).min())
            if clear and ub - obj_fin <= tol:
                w_out = w_fin
                break
            if obj_fin > obj_out:
                w_out, obj_out = w_fin, obj_fin
            if mu >= mu_prev:
                break  # rounding error dominates the step: keep the best
        mu_prev = mu
    if w_out is None:
        w_out = _rank_finish(w, z)[0]
    obj = float(_gains(hch, w_out).min())
    gap = ub - obj
    return McSolution(
        CovarianceMatrix(w_out), obj, ub, gap, len(history), gap <= tol, tuple(history)
    )
