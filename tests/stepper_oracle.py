"""List form of the Runge-Kutta attempts: the test oracle for the
straight-line attempts that `raydiss.dynamics` generates per method and
degree of freedom.

Each stage goes through `dynamics._rhs` on lists of Python floats: RK4 sums
its stages in textbook order, and the Dormand-Prince pair forms every stage
sum, the new state and the error vector with `math.fsum` over the stage
values in tableau order (a zero coefficient included), as the generated
attempt does, so the two agree bit for bit. A pair's stage sum or error
norm that cannot be formed (`math.fsum` of inf and -inf, or an overflow)
is a non-finite state at t + dt.
"""

import math
from operator import mul

from raydiss.dynamics import (_DP_A, _DP_C, _DP_E, _check_finite,
                              _constants, _diverged, _rhs)


def _axpy(y, h, k):
    return [a + h * b for a, b in zip(y, k)]


def _rk4_raw(sys, t, y, dt, cfg, k1):
    """One RK4 step from (t, y) with k1 = f(t, y), in four RHS calls;
    returns as _rk45_raw does, always accepted and with dt_next = dt."""
    c = _constants(sys)
    k2 = _rhs(sys, t + 0.5 * dt, _axpy(y, 0.5 * dt, k1), c)[0]
    k3 = _rhs(sys, t + 0.5 * dt, _axpy(y, 0.5 * dt, k2), c)[0]
    k4 = _rhs(sys, t + dt, _axpy(y, dt, k3), c)[0]
    ynew = _axpy(y, dt / 6.0, [a + 2.0 * b + 2.0 * c + d
                               for a, b, c, d in zip(k1, k2, k3, k4)])
    _check_finite(ynew, t + dt)
    return ynew, True, dt, _rhs(sys, t + dt, ynew, c)


def _lincomb(y, h, coeffs, K, t):
    """[y_c + h * fsum_j(coeffs[j] * K[j][c]) for each entry c of y]; a
    sum that fsum cannot form is a non-finite state at t."""
    try:
        return [c + h * math.fsum(map(mul, coeffs, col))
                for c, col in zip(y, zip(*K))]
    except (ValueError, OverflowError):
        _diverged(t)


def _rk45_raw(sys, t, y, dt, cfg, k1):
    """One Dormand-Prince attempt from (t, y) with k1 = f(t, y), in six
    RHS calls. Returns (ynew, accepted, dt_next, last), where ynew is the
    exact stage-7 argument and last = _rhs(sys, t + dt, ynew, c)."""
    nmech = 2 * sys.dof
    c = _constants(sys)
    K = [k1]
    for i in range(1, 6):
        K.append(_rhs(sys, t + _DP_C[i] * dt,
                      _lincomb(y, dt, _DP_A[i], K, t + dt), c)[0])
    ynew = _lincomb(y, dt, _DP_A[6], K, t + dt)
    _check_finite(ynew, t + dt)
    last = _rhs(sys, t + dt, ynew, c)
    K.append(last[0])
    # q and v entries only
    errvec = _lincomb([0.0] * nmech, dt, _DP_E, K, t + dt)
    try:
        err = math.sqrt(math.fsum(
            (e / (cfg.abs_tol + cfg.rel_tol * abs(x))) ** 2
            for e, x in zip(errvec, y)) / nmech)
    except OverflowError:
        _diverged(t + dt)
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return ynew, err <= 1.0, dt * factor, last


METHODS = {"rk4": _rk4_raw, "rk45": _rk45_raw}
