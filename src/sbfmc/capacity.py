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
J. Optim. 1998).  The path runs on a batch of channel sets of one shape
(M, N), such as the realizations of one population, each scaled to
max_i |h_i|^2 = 1: each Newton step solves a stack of (M+1) x (M+1) Schur
complement systems, one per set still on the path, with numpy's stacked
dense linear algebra.  A set takes 6-17 steps and leaves the stack when it
is certified, when rounding error stops its progress, or when its step
breaks down numerically; the others carry on as if it had never been in
the batch.  ``max_iter`` caps each set's own Newton steps.  The stacked
routines and the reductions below sum in the same order for one set as for
many, so a set's result does not depend, to the last bit, on the batch it
ran in.

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


def rho_values(w, ch):
    """Quadratic-form gains rho_i = h_i^H W h_i (clipped at 0) and rho_min of
    a CovarianceMatrix W and a ChannelSet."""
    entries, h = w.entries, ch.channels
    if h.shape[1] != entries.shape[0]:
        raise ValueError(
            f"dimension mismatch: channels are {h.shape[1]}-dim, covariance {entries.shape[0]}"
        )
    rho = np.maximum(_gains(h, entries), 0.0)
    return rho, float(rho.min())


def _herm(a):
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1).real


def _unit_trace(w):
    w = _herm(w)
    return w / _trace(w)[..., None, None]


def _gains(hch, w):
    hw = hch.conj() @ w
    return np.einsum("...ij,...ij->...i", hw, hch).real


def _dots(a, b):
    """Inner product of each member's flattened a and b, summed in the order
    np.dot sums one pair (a batched einsum sums in another order)."""
    k = a.shape[0]
    return (a.reshape(k, 1, -1) @ b.reshape(k, -1, 1))[:, 0, 0]


def _duality_measure(x_mat, x, z_mat, z):
    """mu = (<X, Z> + x . z) / nu per member, nu = N + M + 1."""
    return (_dots(x_mat.conj(), z_mat).real + _dots(x, z)) / (x_mat.shape[-1] + x.shape[1])


def _dual_bound(hch, q):
    """Certificate lambda_max(sum_i q^_i h_i h_i^H), q^ = q / sum q, per member."""
    a = hch.swapaxes(-1, -2) @ ((q / q.sum(axis=1, keepdims=True))[:, :, None] * hch.conj())
    return np.linalg.eigvalsh(_herm(a))[:, -1]


def _max_step(x, dx):
    """Largest alpha with X + alpha dX still PSD (X positive definite)."""
    li = np.linalg.inv(np.linalg.cholesky(x))
    lam = np.linalg.eigvalsh(_herm(li @ dx @ li.conj().swapaxes(-1, -2)))[:, 0]
    return np.divide(-1.0, lam, out=np.full_like(lam, np.inf), where=~(lam >= 0))


def _max_step_lp(x, dx):
    return np.divide(-x, dx, out=np.full_like(x, np.inf), where=dx < 0).min(axis=1)


def _newton_step(h, x_mat, x, y, z_mat, z, mu):
    """One Mehrotra predictor-corrector step of every member of the batch;
    raises LinAlgError when an iterate of any member left the cone interior
    numerically."""
    k, m, n = h.shape
    hc, ht = h.conj(), h.swapaxes(-1, -2)
    eye = np.eye(n)
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.zeros(m + 1)
    c[0] = -1.0

    # constraint maps on the (W, t, s) blocks and their adjoints
    def a_sdp(mat):
        return np.concatenate(
            [np.einsum("kij,kij->ki", hc @ mat, h).real, _trace(mat)[:, None]], axis=1)

    def a_lp(v):
        return np.concatenate([-v[:, :1] - v[:, 1:], np.zeros((k, 1))], axis=1)

    def at_sdp(v):
        return _herm(ht @ (v[:, :m, None] * hc)) + v[:, m, None, None] * eye

    def at_lp(v):
        return np.concatenate([-v[:, :m].sum(axis=1, keepdims=True), -v[:, :m]], axis=1)

    rp = b - a_sdp(x_mat) - a_lp(x)
    rd_mat = -z_mat - at_sdp(y)
    rd = c - z - at_lp(y)
    zi = np.linalg.inv(z_mat)
    # HKM Schur complement S_kl = <A_k, X A_l Z^-1> + LP block
    xzi = x_mat @ zi
    s = np.empty((k, m + 1, m + 1))
    s[:, :m, :m] = ((hc @ x_mat @ ht) * (hc @ zi @ ht).swapaxes(-1, -2)).real
    s[:, :m, m] = s[:, m, :m] = np.einsum("kij,kij->ki", hc @ xzi, h).real
    s[:, m, m] = _trace(xzi)
    d = x / z
    d_diag = np.zeros((k, m, m))
    d_diag[:, np.arange(m), np.arange(m)] = d[:, 1:]
    s[:, :m, :m] += d[:, :1, None] + d_diag

    def direction(r_mat, r):
        # solves A(dX, dx) = rp, A*(dy) + (dZ, dz) = rd and the
        # linearized complementarity dX Z + X dZ = R, dx z + x dz = r
        kk = (r_mat - x_mat @ rd_mat) @ zi
        rhs = rp - a_sdp(kk) - a_lp((r - x * rd) / z)
        dy = np.linalg.solve(s, rhs[:, :, None])[:, :, 0]
        dz_mat = rd_mat - at_sdp(dy)
        dz = rd - at_lp(dy)
        return _herm((r_mat - x_mat @ dz_mat) @ zi), (r - x * dz) / z, dy, dz_mat, dz

    def step_lengths(dx_mat, dx, dz_mat, dz, frac=1.0):
        # fmin(1, a, b) picks as Python's min(1.0, a, b) does, NaN included
        return (np.fmin(np.fmin(1.0, frac * _max_step(x_mat, dx_mat)), frac * _max_step_lp(x, dx)),
                np.fmin(np.fmin(1.0, frac * _max_step(z_mat, dz_mat)), frac * _max_step_lp(z, dz)))

    xz = x_mat @ z_mat
    dxa, dxla, _, dza, dzla = direction(-xz, -x * z)
    ap, ad = step_lengths(dxa, dxla, dza, dzla)
    mu_aff = _duality_measure(x_mat + ap[:, None, None] * dxa, x + ap[:, None] * dxla,
                              z_mat + ad[:, None, None] * dza, z + ad[:, None] * dzla)
    # scalar powers: an array power may round differently
    sigma_mu = np.array([min(1.0, r ** 3) for r in mu_aff / mu]) * mu
    dx_mat, dx, dy, dz_mat, dz = direction(sigma_mu[:, None, None] * eye - xz - dxa @ dza,
                                           sigma_mu[:, None] - x * z - dxla * dzla)
    # step to a fraction 0.9-0.99 of the boundary, larger when the
    # predictor could step far (Toh, Todd and Tutuncu's SDPT3 rule)
    ap, ad = step_lengths(dx_mat, dx, dz_mat, dz, 0.9 + 0.09 * np.minimum(ap, ad))
    x_mat = x_mat + ap[:, None, None] * dx_mat
    x = x + ap[:, None] * dx
    y = y + ad[:, None] * dy
    z_mat = z_mat + ad[:, None, None] * dz_mat
    z = z + ad[:, None] * dz
    return x_mat, x, y, z_mat, z, _duality_measure(x_mat, x, z_mat, z)


def _rank_finish(w, z):
    """Zero the eigen-directions of each W that the complementarity
    indicator lambda(W) / (v^H Z v) puts clearly in the null space of W*
    and renormalize.  Returns the finished Ws and, per member, whether
    every direction was classified clearly (indicator outside the ambiguous
    band)."""
    lam, v = np.linalg.eigh(w)
    zv = np.einsum("kji,kjl,kli->ki", v.conj(), z, v).real
    keep = lam > _CLEAR * zv
    clear = ~np.any(keep & (zv > _CLEAR * lam), axis=1)
    w_fin = np.stack([(vi[:, ki] * li[ki]) @ vi[:, ki].conj().T
                      for li, vi, ki in zip(lam, v, keep)])
    return _unit_trace(w_fin), clear


def _matched_beamforming(h):
    # the single-user optimum
    w = np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
    obj = float(np.linalg.norm(h) ** 2)
    return McSolution(CovarianceMatrix(w), obj, obj, 0.0, 0, True)


def solve_mc_covariances(channel_sets, tol=1e-6, max_iter=100_000):
    """Max-min optimal covariances of channel sets that share one shape
    (M, N), solved on one batched path; see module docstring.

    Returns one McSolution per set, equal to what a batch of that set alone
    returns.  ``max_iter`` caps each set's Newton steps; ``converged`` is
    False when the certified gap of the returned covariance is still above
    tol.
    """
    hch = np.stack([ch.channels for ch in channel_sets]).astype(np.complex128)
    k, m, n = hch.shape
    if m == 1:
        return [_matched_beamforming(h[0]) for h in hch]

    # the path runs on the channels scaled to max_i |h_i|^2 = 1; objectives
    # and bounds are evaluated on the input channels
    scale = np.einsum("kij,kij->ki", hch, hch.conj()).real.max(axis=1)
    h = hch / np.sqrt(scale)[:, None, None]
    eye = np.eye(n)
    # primal W = x_mat and (t, s) = x; dual y = (q, y_tr) with slacks
    # z_mat = -sum_i q_i h_i h_i^H - y_tr I and z = (sum_i q_i - 1, q)
    x_mat, x = np.tile(eye / n + 0j, (k, 1, 1)), np.full((k, m + 1), 1.0 / n)
    z_mat, z = np.tile(eye + 0j, (k, 1, 1)), np.ones((k, m + 1))
    iterate = (x_mat, x, np.zeros((k, m + 1)), z_mat, z, _duality_measure(x_mat, x, z_mat, z))
    # per batch position: the last unit-trace W and Z, the best finished W
    # and its objective, the best dual bound, Newton steps and the last mu
    w_last, z_last = x_mat.copy(), z_mat.copy()
    w_out, obj_out = [None] * k, np.full(k, -np.inf)
    ub = _dual_bound(hch, np.ones((k, m)))
    steps = np.zeros(k, dtype=int)
    mu_prev = np.full(k, np.inf)
    live = np.arange(k)  # batch positions of the members on the path
    it = 0  # Newton steps each of them has taken
    while live.size and it < max_iter:
        done = np.zeros(live.size, dtype=bool)  # members that leave the path
        try:
            iterate = _newton_step(h, *iterate)
        except np.linalg.LinAlgError:
            # a stacked factorization fails as a whole: the members whose own
            # step breaks down leave the path, and the others take the step
            # again without them; a failure no member repeats alone is raised
            for j in range(live.size):
                try:
                    _newton_step(h[j:j + 1], *(a[j:j + 1] for a in iterate))
                except np.linalg.LinAlgError:
                    done[j] = True
            if not done.any():
                raise
        else:
            it += 1
            x_mat, _, y, z_mat, _, mu = iterate
            w = _unit_trace(x_mat)
            w_last[live], z_last[live] = w, z_mat
            steps[live] = it
            h_in = hch[live]
            obj = _gains(h_in, w).min(axis=1)
            q = np.maximum(y[:, :m], 0.0)
            ub_q = np.full(live.size, np.inf)
            has_q = q.sum(axis=1) > 0
            if has_q.any():
                ub_q[has_q] = _dual_bound(h_in[has_q], q[has_q])
            ub[live] = ub_l = np.where(ub_q < ub[live], ub_q, ub[live])
            near = np.flatnonzero(ub_l - obj <= tol / 10)
            if near.size:
                w_fin, clear = _rank_finish(w[near], z_mat[near])
                obj_fin = _gains(h_in[near], w_fin).min(axis=1)
                for j, wf, cl, of in zip(near, w_fin, clear, obj_fin):
                    i = live[j]
                    if cl and ub_l[j] - of <= tol:
                        w_out[i], done[j] = wf, True
                        continue
                    if of > obj_out[i]:
                        w_out[i], obj_out[i] = wf, of
                    # rounding error dominates the step: keep the best
                    done[j] = mu[j] >= mu_prev[i]
            mu_prev[live] = mu
        live, h, iterate = live[~done], h[~done], tuple(a[~done] for a in iterate)

    w_out = np.stack([wo if wo is not None else _rank_finish(w_last[i:i + 1], z_last[i:i + 1])[0][0]
                      for i, wo in enumerate(w_out)])
    obj = _gains(hch, w_out).min(axis=1).tolist()
    return [McSolution(CovarianceMatrix(wo), ob, u, u - ob, st, u - ob <= tol)
            for wo, ob, u, st in zip(w_out, obj, ub.tolist(), steps.tolist())]
