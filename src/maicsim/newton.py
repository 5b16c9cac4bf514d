"""Damped Newton minimization, shared by the Cox fit and the MAIC weights.

It stops once a step changes the objective by at most ``REL_TOL`` relative to
its size, as R's ``survival::coxph.control(eps = 1e-9)`` does (Therneau &
Grambsch 2000). Unlike an absolute gradient tolerance, this is reachable at
any n, although rounding in an objective summed over n terms grows with n.
"""

import numpy as np

REL_TOL = 1e-9
PIVOT_TOL = np.finfo(float).eps ** 0.75  # R's coxph.control(toler.chol)
MAX_ITERS = 50


def minimize(evaluate, k: int):
    """Minimize a convex objective over R^k from x = 0.

    ``evaluate(x)`` returns (value, gradient, Hessian), the value finite at
    x = 0, with numpy's floating-point warnings off. A step is accepted only
    if its value is finite and exceeds the current one by at most the
    tolerance, and the Newton step from it, the next one taken, is solvable
    and finite: NaN, +inf and -inf values and NaN or singular Hessians fail,
    however they arose. A failed step is halved until one is accepted; the
    search stops unconverged once a halved step no longer moves x, or after
    ``MAX_ITERS`` steps. As in R's coxph, only a step that was not halved can
    end the search as converged. Divergence is the caller's to judge: the
    solver has no bound on x. Returns (x, value, gradient, Hessian,
    converged, iterations) at the last accepted iterate, or unconverged at
    x = 0 if the step from 0 is not finite. It raises
    ``np.linalg.LinAlgError`` if the Hessian at 0 has no Cholesky factor or a
    squared pivot at most ``PIVOT_TOL`` of its diagonal entry: 1 - R^2 of a
    column on those before it, free of units.
    """
    with np.errstate(all="ignore"):
        x = np.zeros(k)
        f, g, h = evaluate(x)
        try:
            pivots = np.linalg.cholesky(h).diagonal() ** 2
        except np.linalg.LinAlgError:
            pivots = np.full(k, np.nan)  # compares false, as a NaN pivot does
        if not (pivots > PIVOT_TOL * h.diagonal()).all():
            raise np.linalg.LinAlgError("singular Hessian at the start: a constant "
                                        "or collinear column")
        if not np.isfinite(step := _newton_step(h, g)).all():
            return x, f, g, h, False, 0
        for iterations in range(MAX_ITERS):
            if not g.any():
                return x, f, g, h, True, iterations
            tol, halved = REL_TOL * abs(f), False
            while True:
                cand = x - step
                if halved and (cand == x).all():
                    return x, f, g, h, False, iterations
                fc, gc, hc = evaluate(cand)
                if (-np.inf < fc <= f + tol  # false for NaN and +-inf
                        and np.isfinite(next_step := _newton_step(hc, gc)).all()):
                    break
                step, halved = step / 2, True
            converged = not halved and f - fc <= tol
            x, f, g, h, step = cand, fc, gc, hc, next_step
            if converged:
                return x, f, g, h, True, iterations + 1
        return x, f, g, h, False, MAX_ITERS


def _newton_step(h, g):
    try:
        return np.linalg.solve(h, g)
    except np.linalg.LinAlgError:  # a singular h fails as a NaN step does
        return np.full(g.shape, np.nan)
