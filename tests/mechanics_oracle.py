"""Loop form of the equations of motion: the test oracle for the
straight-line mechanics lines of the right-hand side `rhs` that
`raydiss.raymodel.SystemModel` generates.

It evaluates each mass entry and the potential through the expressions'
own compiled code (`exprcore.compiled`), assembles

    b = -dV/dq - dR/dv,  b_j += 0.5 v_a v_c dM_ac/dq_j,
    b_a -= (v . dM_ac/dq) v_c  (over a, then c, then j),

in nested loops, adding the terms of dM_ac/dq_j only for the q_j that the
entry M_ac references, as read from its expression (so a constant M has
no dM terms), and solves with a generic
square-root-free LDL^T factorisation. Its floating-point operations come
in the same order as the generated code's, so the two agree bit for bit.
"""

from raydiss import exprcore as xc
from raydiss.raymodel import MassMatrixError


def mass_and_grad(sys, q):
    """(M, dM) at q as nested lists of floats, M[a][b] and
    dM[a][b][j] = dM_ab/dq_j, after the symmetry check on the pairs whose
    expressions differ."""
    m, mm = sys.dof, sys.mass_matrix
    M = [[0.0] * m for _ in range(m)]
    dM = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            M[a][b], dM[a][b] = xc.compiled(mm[a][b], m, "q")(q, q,
                                                               sys.params)
    asym = [(a, b) for a in range(m) for b in range(a + 1, m)
            if mm[a][b] != mm[b][a]]
    if asym:
        atol = 1e-12 * (1.0 + max(abs(x) for row in M for x in row))
        for a, b in asym:
            if not abs(M[a][b] - M[b][a]) <= atol:
                raise MassMatrixError(
                    f"mass matrix not symmetric at q={list(q)}")
    return M, dM


def ldl_factor(M, q):
    """Square-root-free LDL^T factor (L, d) of the symmetric matrix M
    (nested lists; only the lower triangle is read). L is unit lower
    triangular and stored below its diagonal. Raises MassMatrixError,
    naming q, unless every pivot d_i > 0, which also fails on NaN."""
    m = len(M)
    L = [[0.0] * m for _ in range(m)]
    d = [0.0] * m
    for i in range(m):
        Li, Mi = L[i], M[i]
        for j in range(i):
            Lj = L[j]
            s = Mi[j]
            for k in range(j):
                s -= Li[k] * Lj[k] * d[k]
            Li[j] = s / d[j]
        di = Mi[i]
        for k in range(i):
            di -= Li[k] * Li[k] * d[k]
        if not di > 0.0:
            raise MassMatrixError(
                f"mass matrix not positive definite at q={list(q)}")
        d[i] = di
    return L, d


def ldl_solve(factor, b):
    """x with L D L^T x = b, as a list; a 1x1 factor gives exactly b/m."""
    L, d = factor
    m = len(d)
    x = list(b)
    for i in range(1, m):
        Li = L[i]
        for k in range(i):
            x[i] -= Li[k] * x[k]
    for i in range(m):
        x[i] /= d[i]
    for i in range(m - 2, -1, -1):
        for k in range(i + 1, m):
            x[i] -= L[k][i] * x[k]
    return x


def mechanics(sys, q, v, gR):
    """(qdd, M, V) at (q, v) with dR/dv = gR, lists of floats in and out.
    The terms of dM_ac/dq_j are added only for the q_j that the mass entry
    M_ac references, as read from its expression."""
    m, mm = sys.dof, sys.mass_matrix
    V, gV = xc.compiled(sys.potential, m, "q")(q, v, sys.params)
    b = [-x - y for x, y in zip(gV, gR)]
    M, dM = mass_and_grad(sys, q)
    for a in range(m):
        va, dMa = v[a], dM[a]
        for c in range(m):
            js = [j for j in range(m) if xc.Coord(j + 1) in
                  list(xc.walk(mm[a][c]))]
            if not js:
                continue
            g = dMa[c]
            w = 0.5 * va * v[c]
            vg = 0.0
            for j in js:
                b[j] += w * g[j]
                vg += v[j] * g[j]
            b[a] -= vg * v[c]
    return ldl_solve(ldl_factor(M, q), b), M, V
