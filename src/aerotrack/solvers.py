"""Small dense numerical solvers used by the fitting and optimization modules."""

from __future__ import annotations

import numpy as np

from .errors import DescentFailed, QPInfeasible

_QP_TOL = 1e-10        # active_set_qp's step, multiplier and active-row tolerance
_QP_MAX_ITER = 400
_LBFGS_MEMORY = 10     # curvature pairs lbfgs_minimize keeps
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 40   # step halvings per line search


def active_set_qp(H, f, G, h, x0):
    """Minimize 1/2 x'Hx + f'x subject to Gx <= h with a primal active-set method.

    ``H`` must be positive definite and ``x0`` feasible. Returns ``(x, lam)``
    where ``lam`` holds one multiplier per constraint row (zero for inactive
    rows), so callers can check KKT residuals directly.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    m = G.shape[0]
    if np.any(G @ x > h + 1e-8):
        raise QPInfeasible("active-set start point is infeasible")

    # working set: indices of constraints treated as equalities
    work: list[int] = [i for i in range(m) if G[i] @ x > h[i] - _QP_TOL]
    for _ in range(_QP_MAX_ITER):
        Gw = G[work]
        kkt = np.block([[H, Gw.T], [Gw, np.zeros((len(work), len(work)))]])
        rhs = np.concatenate([-(H @ x + f), np.zeros(len(work))])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = sol[: len(x)]
        lam = sol[len(x):]

        if np.linalg.norm(p, np.inf) < _QP_TOL:
            if np.all(lam >= -_QP_TOL):
                lam_full = np.zeros(m)
                lam_full[work] = lam
                return x, lam_full
            work.pop(int(np.argmin(lam)))
            continue

        # largest feasible step along p
        alpha = 1.0
        blocking = -1
        Gp = G @ p
        for i in range(m):
            if i in work or Gp[i] <= _QP_TOL:
                continue
            a_i = (h[i] - G[i] @ x) / Gp[i]
            if a_i < alpha - 1e-14:
                alpha = max(a_i, 0.0)
                blocking = i
        x = x + alpha * p
        if blocking >= 0:
            work.append(blocking)
    raise QPInfeasible("active-set method did not converge")


def qp_kkt_residual(H, f, G, h, x, lam) -> float:
    """Infinity-norm KKT residual of a candidate QP solution."""
    stationarity = np.linalg.norm(H @ x + f + G.T @ lam, np.inf)
    slack = h - G @ x
    primal = max(0.0, float(-slack.min())) if slack.size else 0.0
    dual = max(0.0, float(-lam.min())) if lam.size else 0.0
    comp = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    return max(stationarity, primal, dual, comp)


def lbfgs_minimize(fun, x0, grad_tol: float = 1e-4, max_iter: int = 200):
    """L-BFGS with Armijo backtracking; ``fun(x) -> (value, gradient)``.

    The objective may return ``inf`` outside its domain; the line search then
    shrinks the step, and a start point outside it raises ``DescentFailed``.
    Accepted iterates are strictly nonincreasing in value. Returns
    ``(x, value, history)`` where history is the list of accepted objective
    values (including the start).
    """
    x = np.asarray(x0, dtype=float).copy()
    val, g = fun(x)
    if not np.isfinite(val):
        raise DescentFailed("L-BFGS start point outside objective domain")
    history = [val]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    step_prev = 1.0
    stall = 0
    for _ in range(max_iter):
        if np.linalg.norm(g, np.inf) < grad_tol:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_list:
            y_last, s_last = y_list[-1], s_list[-1]
            q *= (s_last @ y_last) / (y_last @ y_last)
        for a, rho, s, y in reversed(alphas):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:  # not a descent direction; fall back to steepest descent
            d = -g
        # warm-started backtracking: badly scaled directions would otherwise
        # burn dozens of shrinks every iteration
        if y_list:
            step = min(1.0, 4.0 * step_prev)
        else:
            step = min(1.0, 1.0 / (1.0 + float(np.linalg.norm(d))))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * d
            val_new, g_new = fun(x_new)
            if np.isfinite(val_new) and val_new <= val + _ARMIJO_C1 * step * (d @ g):
                break
            step *= 0.5
        else:  # no step satisfied the Armijo condition
            break
        step_prev = step
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-12:
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > _LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        rel_drop = (val - val_new) / max(abs(val), 1.0)
        x, val, g = x_new, val_new, g_new
        history.append(val)
        stall = stall + 1 if rel_drop < 1e-10 else 0
        if stall >= 3:  # flat plateau: further polishing is numerical noise
            break
    return x, val, history
