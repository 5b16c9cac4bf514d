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
MAX_HALVINGS = 10


def minimize(evaluate, k: int):
    """Minimize a convex objective over R^k from x = 0.

    ``evaluate(x)`` returns (value, gradient, Hessian), the value finite at
    x = 0, and runs with numpy's floating-point warnings off. The solver
    alone decides infeasibility: a step is accepted only if its value is
    finite and exceeds the current one by at most the tolerance, so NaN, +inf
    and -inf, however they arose, fail. A failed step is halved up to
    ``MAX_HALVINGS`` times; if none is accepted, or after ``MAX_ITERS``
    steps, the search stops unconverged. Divergence is the caller's to judge
    from what is returned: the solver has no bound on x.
    Returns (x, value, gradient, Hessian, converged, iterations) at the last
    accepted iterate. It raises ``np.linalg.LinAlgError`` if the Hessian at 0
    has no Cholesky factor or a squared pivot at most ``PIVOT_TOL`` of its
    diagonal entry: 1 - R^2 of a column on those before it, free of units.
    """
    with np.errstate(all="ignore"):
        x = np.zeros(k)
        f, g, h = evaluate(x)
        try:
            pivots = np.diag(np.linalg.cholesky(h)) ** 2
        except np.linalg.LinAlgError:
            pivots = np.full(k, np.nan)  # compares false, as a NaN pivot does
        if not np.all(pivots > PIVOT_TOL * np.diag(h)):
            raise np.linalg.LinAlgError("singular Hessian at the start: a constant "
                                        "or collinear column")
        for iterations in range(MAX_ITERS):
            if not np.any(g):
                return x, f, g, h, True, iterations
            step = np.linalg.solve(h, g)
            tol = REL_TOL * abs(f)
            for _ in range(MAX_HALVINGS + 1):
                cand = x - step
                fc, gc, hc = evaluate(cand)
                if -np.inf < fc <= f + tol:  # false for NaN and +-inf
                    break
                step = step / 2
            else:
                return x, f, g, h, False, iterations
            converged = f - fc <= tol
            x, f, g, h = cand, fc, gc, hc
            if converged:
                return x, f, g, h, True, iterations + 1
        return x, f, g, h, False, MAX_ITERS
