"""Small dense numerical solvers used by the fitting and optimization modules."""

from __future__ import annotations

import numpy as np

from .errors import DescentFailed, QPInfeasible


def active_set_qp(H, f, G, h, x0, tol: float = 1e-10, max_iter: int = 400):
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
    work: list[int] = [i for i in range(m) if G[i] @ x > h[i] - tol]
    lam_full = np.zeros(m)
    for _ in range(max_iter):
        if work:
            Gw = G[work]
            k = len(work)
            kkt = np.zeros((len(x) + k, len(x) + k))
            kkt[: len(x), : len(x)] = H
            kkt[: len(x), len(x):] = Gw.T
            kkt[len(x):, : len(x)] = Gw
            rhs = np.concatenate([-(H @ x + f), np.zeros(k)])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            p = sol[: len(x)]
            lam = sol[len(x):]
        else:
            p = np.linalg.solve(H, -(H @ x + f))
            lam = np.zeros(0)

        if np.linalg.norm(p, np.inf) < tol:
            lam_full[:] = 0.0
            if work:
                lam_full[np.asarray(work)] = lam
            if lam.size == 0 or lam.min() >= -tol:
                return x, lam_full
            work.pop(int(np.argmin(lam)))
            continue

        # largest feasible step along p
        alpha = 1.0
        blocking = -1
        Gp = G @ p
        for i in range(m):
            if i in work or Gp[i] <= tol:
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


def lbfgs_minimize(fun, x0, grad_tol: float = 1e-4, max_iter: int = 200, memory: int = 10,
                   c1: float = 1e-4, max_backtracks: int = 40):
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
        accepted = False
        for _ in range(max_backtracks):
            x_new = x + step * d
            val_new, g_new = fun(x_new)
            if np.isfinite(val_new) and val_new <= val + c1 * step * (d @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        step_prev = step
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-12:
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
        rel_drop = (val - val_new) / max(abs(val), 1.0)
        x, val, g = x_new, val_new, g_new
        history.append(val)
        stall = stall + 1 if rel_drop < 1e-10 else 0
        if stall >= 3:  # flat plateau: further polishing is numerical noise
            break
    return x, val, history
