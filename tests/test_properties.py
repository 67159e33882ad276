"""Property checks of the restart engine against dense matrix functions.

Random small Hermitian positive definite matrices and nonsymmetric positive
real ones (a diagonal in [0.5, 4] plus a small strict upper triangle) run
through every chain kind: one-sided Laplace, two-sided (a reflected chain on
-H), Bernstein and Stieltjes, with both anchor branches (Hermitian and not).
"""

import numpy as np
import scipy.linalg as la
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_krylov.operators import LinearOperator
from laplace_krylov.restart import RestartConfig, builtin_kernels, restarted_laplace

TOL = 1e-8
# kind -> F on the eigenvalues (complex for the triangular case's Schur form)
SCALAR = {
    "power-neg-3-2": lambda s: s**-1.5,
    "gamma": scipy.special.gamma,
    "sqrt": np.sqrt,
    "inv-sqrt-stieltjes": lambda s: s**-0.5,
}


def random_matrix(rng, n, hermitian):
    if hermitian:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(0.5, 4.0, n)) @ q.T
        return (a + a.T) / 2
    return np.diag(rng.uniform(0.5, 4.0, n)) + np.triu(rng.uniform(-0.1, 0.1, (n, n)), 1)


def dense_apply(a, b, scalar, hermitian):
    if hermitian:
        w, q = la.eigh(a)
        return q @ (scalar(w) * (q.T @ b))
    return la.funm(a, scalar).real @ b


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 24), m=st.integers(2, 6),
       hermitian=st.booleans(), kind=st.sampled_from(sorted(SCALAR)))
def test_restart_matches_dense_function(seed, n, m, hermitian, kind):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, n, hermitian)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    op = LinearOperator(lambda x: a @ x, n, hermitian=hermitian)
    x, rep = restarted_laplace(op, b, builtin_kernels()[kind], RestartConfig(m=m, tol=TOL))
    exact = dense_apply(a, b, SCALAR[kind], hermitian)
    assert rep.converged, rep.reason
    assert op.matvec_count == rep.matvecs
    assert np.linalg.norm(x - exact) <= 1e-6 * np.linalg.norm(exact)
