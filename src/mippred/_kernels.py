"""Hot numeric kernel: a dense bounded-variable primal and dual simplex.

One interpreted numpy path.  Basis assembly, the nonbasic point,
pricing, the leaving-row scores, the eligibility scans and the ratio
candidates are array operations; Python loops remain only where a rule
is sequential: the bound-flipping walk of the dual ratio test and the
primal ratio-test tie rule over its candidate rows.
Every choice is made with first-index ``argmax``/``argsort`` tie breaks
on the same inputs and sums in the same order as a per-element loop
would, so pivot sequences are deterministic.

The core works on the computational form ``G z = 0`` with
``G = [A | -I]``: one slack per ranged row, slack bounds equal to the
row's (lhs, rhs).  Phase 1 minimizes total bound infeasibility of the
basic variables (composite method, no artificial columns), which makes
warm starts from an arbitrary basis cheap; phase 2 minimizes the true
cost.  Pricing uses devex weights (reset on overflow) and switches to
Bland's rule after a run of degenerate pivots; the basis inverse is
refactorized from scratch at a fixed pivot interval.

A separate dual simplex loop serves every solve that starts from a
dual-feasible basis: re-solves after bound changes (the optimal basis of
the parent problem stays dual feasible when only bounds move, so driving
the handful of out-of-bound basics to their bounds takes few pivots) and
cold solves from the slack basis with each structural on the bound its
cost favours.  Its entering choice is the bound-flipping ratio test of
the dual revised simplex (Huangfu & Hall 2018).  It bails out (for a
primal fallback) when the starting basis is not dual feasible.
"""

from __future__ import annotations

import numpy as np

# status codes returned by the core
OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
ITER_LIMIT = 3
NUMERICAL = 4
NOT_DUAL_FEASIBLE = 5

# nonbasic / basic codes in vstat
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

# by vstat code: -1 for a column at its lower bound, +1 at its upper
# bound, 0 for basic and free columns
_SIDE = np.array([0.0, -1.0, 1.0, 0.0])


def _factor(G, low, upp, basis, vstat, z):
    """Invert the basis matrix and put ``z`` on the basic solution.

    Nonbasic entries of ``z`` move to the bound named by ``vstat`` (0
    for free ones); basic entries solve ``G z = 0``.  Returns the basis
    inverse.

    An all-slack basis is the signed permutation ``B[:, k] = -e_i`` with
    ``i = basis[k] - n``, so its inverse is built directly: -1 at
    ``(k, i)`` and -0.0 elsewhere, the same bytes LAPACK's ``inv``
    returns for it, at O(m^2) instead of O(m^3).  Any other basis is
    inverted by LAPACK.
    """
    m, N = G.shape
    n = N - m
    if basis.min() >= n:
        Binv = np.full((m, m), -0.0)
        Binv[np.arange(m), basis - n] = -1.0
    else:
        Binv = np.ascontiguousarray(np.linalg.inv(G[:, basis]))
    zn = np.where(vstat == AT_LOWER, low, np.where(vstat == AT_UPPER, upp, 0.0))
    z[:] = zn
    z[basis] = -np.dot(Binv, np.dot(G, zn))
    return Binv


def _price(GT, c, basis, Binv):
    """Duals and reduced costs (zero on the basis) under the true costs."""
    y = np.dot(c[basis], Binv)
    d = c - np.dot(GT, y)
    d[basis] = 0.0
    return y, d


def _row_norms(Binv):
    """Squared norm of each row of ``Binv``: one dot product per row."""
    return np.matmul(Binv[:, None, :], Binv[:, :, None]).ravel()


def _improving(vstat, g, tol):
    """Nonbasic columns whose move off their bound goes down the slope
    ``g``: side * g past ``tol`` at a bound, |g| past ``tol`` when free."""
    mask = _SIDE[vstat] * g > tol
    free = vstat == FREE
    if free.any():
        mask |= free & ((g < -tol) | (g > tol))
    return mask


def simplex_core(G, GT, c, low, upp, basis, vstat, z,
                 feas_tol, piv_tol, max_iter, bland_after, refactor_every):
    """Run the simplex loop in place; return (status, iterations, y, d).

    G is (m, N) C-contiguous, GT its C-contiguous transpose, c the cost
    over all N columns (slacks cost 0).  basis (m,), vstat (N,) and z
    (N,) describe the starting point: nonbasic entries of z must sit on
    the bound named by vstat; basic entries are recomputed here.  All
    three are updated in place so callers can warm-start the next call.
    y and d are the duals and reduced costs priced with the true costs.
    """
    N = G.shape[1]
    Binv = _factor(G, low, upp, basis, vstat, z)

    iters = 0
    degen = 0
    bland = False
    since_refactor = 0
    status = ITER_LIMIT
    gamma = np.ones(N)

    while iters < max_iter:
        iters += 1

        # phase test: any basic variable outside its bounds?
        zb = z[basis]
        lowb = low[basis]
        uppb = upp[basis]
        below = zb < lowb - feas_tol
        above = zb > uppb + feas_tol
        inside = ~(below | above)
        phase1 = not inside.all()

        if phase1:
            cb = np.where(below, -1.0, np.where(above, 1.0, 0.0))
        else:
            cb = c[basis]
        y = np.dot(cb, Binv)
        d = -np.dot(GT, y)
        if not phase1:
            d = d + c

        # pricing: devex d^2/gamma over eligible nonbasics, Bland = first
        elig = _improving(vstat, d, piv_tol)
        if not elig.any():
            status = INFEASIBLE if phase1 else OPTIMAL
            break
        if bland:
            enter = int(np.argmax(elig))
        else:
            score = np.where(elig, d * d / gamma, -1.0)
            enter = int(np.argmax(score))
        sigma = 1.0 if d[enter] < 0.0 else -1.0

        # ratio test over basic rows plus the entering variable's own range.
        # A row rising toward its bound (rate > 0) stops at its lower bound
        # when below it, else at a finite upper bound unless already above;
        # a falling row mirrors that.
        w = np.dot(Binv, GT[enter])
        rate = -sigma * w
        rise = rate > piv_tol
        fall = rate < -piv_tol
        to_low = (rise & below) | (fall & inside & np.isfinite(lowb))
        to_upp = (fall & above) | (rise & inside & np.isfinite(uppb))
        cand = np.flatnonzero(to_low | to_upp)
        at_low = to_low[cand]
        rc = rate[cand]
        t = (np.where(at_low, lowb[cand], uppb[cand]) - zb[cand]) / rc
        t = np.where(t < 0.0, 0.0, t)
        piv = np.abs(rc)

        tmax = np.inf
        leave = -1            # -2 = bound flip, >=0 = basis position
        leave_to = AT_LOWER
        best_piv = 0.0
        rng = upp[enter] - low[enter]
        if np.isfinite(rng):
            tmax = rng
            leave = -2
        if cand.size > 8:
            # a row can only be taken while its ratio is within the 1e-12
            # tie window of the running minimum, and that minimum never
            # exceeds the smallest earlier ratio by more than the window;
            # rows far above every earlier ratio never change the state
            # (worth the array work only past a handful of rows)
            prev = np.fmin.accumulate(np.concatenate(([tmax], t[:-1])))
            keep = t <= prev + (1e-11 + 1e-14 * np.abs(prev))
            cand, t, piv, at_low = cand[keep], t[keep], piv[keep], at_low[keep]
        for k, tk, pk, lo in zip(cand.tolist(), t.tolist(), piv.tolist(),
                                 at_low.tolist()):
            if tk < tmax - 1e-12:
                take = True
            elif tk <= tmax + 1e-12:
                if leave == -2:
                    take = True
                elif bland:
                    take = basis[k] < basis[leave]
                else:
                    take = pk > best_piv
            else:
                take = False
            if take:
                if tk < tmax:
                    tmax = tk
                leave = k
                leave_to = AT_LOWER if lo else AT_UPPER
                best_piv = pk

        if leave == -1:
            status = UNBOUNDED if not phase1 else NUMERICAL
            break

        if tmax > 0.0:
            z[enter] = z[enter] + sigma * tmax
            z[basis] = zb - sigma * tmax * w
        if tmax <= 1e-10:
            degen += 1
            if degen > bland_after:
                bland = True
        else:
            degen = 0

        if leave == -2:
            if vstat[enter] == AT_LOWER:
                vstat[enter] = AT_UPPER
                z[enter] = upp[enter]
            else:
                vstat[enter] = AT_LOWER
                z[enter] = low[enter]
            continue

        lv = basis[leave]
        vstat[lv] = leave_to
        z[lv] = low[lv] if leave_to == AT_LOWER else upp[lv]
        basis[leave] = enter
        vstat[enter] = BASIC

        alpha = w[leave]

        # devex update: reference weights grow with the squared pivot row
        arow = np.dot(Binv[leave], G) / alpha
        gq = gamma[enter]
        gamma = np.maximum(gamma, arow * arow * gq)
        glv = gq / (alpha * alpha)
        gamma[lv] = glv if glv > 1.0 else 1.0
        if np.max(gamma) > 1e12:
            gamma = np.ones(N)

        Binv[leave] = Binv[leave] / alpha
        wtmp = w.copy()
        wtmp[leave] = 0.0
        Binv = Binv - np.outer(wtmp, Binv[leave])

        since_refactor += 1
        if since_refactor >= refactor_every:
            since_refactor = 0
            Binv = _factor(G, low, upp, basis, vstat, z)

    y, d = _price(GT, c, basis, Binv)
    return status, iters, y, d


def dual_core(G, GT, c, low, upp, basis, vstat, z,
              feas_tol, piv_tol, max_iter, bland_after, refactor_every):
    """Dual simplex from a dual-feasible basis; return (status, iterations, y, d).

    Arguments and in-place conventions mirror ``simplex_core``.  The
    start basis must price dual feasible with the true costs, otherwise
    NOT_DUAL_FEASIBLE comes back and the caller should fall back to the
    primal core.  INFEASIBLE is proved: some out-of-bound basic row
    admits no entering column, and bound flips cannot absorb the
    violation either.
    """
    Binv = _factor(G, low, upp, basis, vstat, z)
    y, d = _price(GT, c, basis, Binv)

    if _improving(vstat, d, 10.0 * feas_tol).any():
        return NOT_DUAL_FEASIBLE, 0, y, d

    # steepest-edge row weights beta_k = ||row k of Binv||^2
    beta = _row_norms(Binv)
    span = upp - low
    bounded = np.isfinite(span)

    iters = 0
    degen = 0
    bland = False
    since_refactor = 0
    status = ITER_LIMIT

    while iters < max_iter:
        iters += 1
        y, d = _price(GT, c, basis, Binv)

        # leaving choice: steepest-edge score viol^2 / beta, first maximum;
        # a row under its lower bound wins a tie with its own upper side
        # (with lower <= upper only one side can be violated)
        zb = z[basis]
        v_low = low[basis] - zb
        v_upp = zb - upp[basis]
        s_low = np.where(v_low > feas_tol, v_low * v_low / beta, 0.0)
        s_upp = np.where(v_upp > feas_tol, v_upp * v_upp / beta, 0.0)
        score = np.fmax(s_low, s_upp)
        r = int(np.argmax(score))
        if not score[r] > 0.0:
            status = OPTIMAL
            break
        below = bool(s_low[r] == score[r])

        rho = np.dot(Binv[r], G)
        lv = basis[r]

        # entering choice: the columns whose move off their bound shrinks
        # the violation.  Walk their dual-ratio breakpoints |d_j|/|rho_j|
        # in increasing order; bounded columns passed on the way are
        # bound-flipped (each absorbs |rho_j|*range of the violation with
        # no basis change) and the breakpoint that exhausts the violation
        # enters.  Bland = first column at the smallest ratio, no flips.
        elig = np.flatnonzero(_improving(vstat, rho if below else -rho, piv_tol))
        if elig.size == 0:
            status = INFEASIBLE
            break

        piv = np.abs(rho[elig])
        ratio = np.where(d > 0.0, d, -d)[elig] / piv
        flips = elig[:0]
        if bland:
            enter = int(elig[np.argmin(ratio)])
        else:
            cap = np.where(bounded[elig], piv * span[elig], np.inf)
            order = np.argsort(ratio)
            rem = (low[lv] - z[lv]) if below else (z[lv] - upp[lv])
            kk = 0
            enter = -1
            for capk in cap[order].tolist():
                if not capk < rem:
                    enter = int(elig[order[kk]])
                    break
                rem -= capk
                kk += 1
            if enter < 0:
                if rem > feas_tol:
                    # every breakpoint flipped yet real violation remains:
                    # the dual ray is unbounded, so the primal has no
                    # feasible point
                    status = INFEASIBLE
                    break
                # the flips alone absorb the violation up to the tolerance,
                # but without a dual step the flipped columns would sit on
                # their new bounds with the wrong reduced-cost sign; the
                # last breakpoint enters instead
                kk -= 1
                enter = int(elig[order[kk]])
            flips = elig[order[:kk]]

        if flips.size:
            up = vstat[flips] == AT_LOWER
            dz = np.where(up, span[flips], low[flips] - upp[flips])
            vstat[flips] = np.where(up, AT_UPPER, AT_LOWER)
            z[flips] = np.where(up, upp[flips], low[flips])
            aF = np.add.reduce(GT[flips] * dz[:, None], axis=0, initial=0.0)
            z[basis] = z[basis] - np.dot(Binv, aF)

        w = np.dot(Binv, GT[enter])
        alpha = w[r]
        if alpha <= piv_tol and alpha >= -piv_tol:
            status = NUMERICAL
            break

        bnd = low[lv] if below else upp[lv]
        dz = (z[lv] - bnd) / alpha
        z[enter] = z[enter] + dz
        z[basis] = z[basis] - dz * w
        z[lv] = bnd
        vstat[lv] = AT_LOWER if below else AT_UPPER
        basis[r] = enter
        vstat[enter] = BASIC

        if dz <= 1e-10 and dz >= -1e-10:
            degen += 1
            if degen > bland_after:
                bland = True
        else:
            degen = 0

        # steepest-edge weight update (exact, using the old Binv)
        tau = np.dot(Binv, Binv[r])
        br = beta[r]
        ratio = w / alpha
        beta = beta - 2.0 * ratio * tau + ratio * ratio * br
        beta[r] = br / (alpha * alpha)
        beta = np.where(beta < 1e-12, 1e-12, beta)

        Binv[r] = Binv[r] / alpha
        wtmp = w.copy()
        wtmp[r] = 0.0
        Binv = Binv - np.outer(wtmp, Binv[r])

        since_refactor += 1
        if since_refactor >= refactor_every:
            since_refactor = 0
            Binv = _factor(G, low, upp, basis, vstat, z)
            beta = _row_norms(Binv)

    y, d = _price(GT, c, basis, Binv)
    return status, iters, y, d
