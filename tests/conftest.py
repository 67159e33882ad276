import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov.restart import TransformFunction

CHECKOUT = Path(__file__).resolve().parent.parent


def _load_path(relpath):
    """<dir>/<name>.py of the checkout loaded by path (perfbench/ and
    microbench/ are not packages) as module <dir>_<name>."""
    path = CHECKOUT / relpath
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def load_path():
    return _load_path


@pytest.fixture
def load_perfbench():
    return lambda name: _load_path(f"perfbench/{name}.py")


def complex_non_hermitian(kind):
    """n = 200 complex matrix over D = diag(linspace(1, 4, n)) and a seed-1 unit b.

    ``symmetric``: D + 0.01i (S + S^T), equal to its transpose but not to its
    conjugate transpose; ``triangular``: D + 0.05i triu(S, 1). S is the seed-0
    standard normal matrix.
    """
    n = 200
    s = np.random.default_rng(0).standard_normal((n, n))
    d = np.diag(np.linspace(1.0, 4.0, n))
    a = d + (0.01j * (s + s.T) if kind == "symmetric" else 0.05j * np.triu(s, 1))
    b = np.random.default_rng(1).standard_normal(n)
    return a, b / np.linalg.norm(b)


def power_transforms(alpha):
    """s^{-alpha} for 0 < alpha < 1 as a Laplace transform, kernel
    t^{alpha-1} / Gamma(alpha), and as a Stieltjes function, density
    sin(alpha pi) / pi * t^{-alpha}: (laplace, stieltjes)."""
    gamma, density = math.gamma(alpha), math.sin(alpha * math.pi) / math.pi
    laplace = TransformFunction(
        name=f"power-neg-{alpha}-laplace", kind="laplace",
        kernel=lambda t: np.asarray(t, dtype=float) ** (alpha - 1) / gamma)
    stieltjes = TransformFunction(
        name=f"power-neg-{alpha}-stieltjes", kind="stieltjes",
        kernel=lambda t: density * np.asarray(t, dtype=float) ** -alpha)
    return laplace, stieltjes


def eig_apply(a, b, scalar):
    """F(A) b through the dense eigendecomposition of a diagonalizable A."""
    lam, x = la.eig(a)
    return x @ (scalar(lam) * la.solve(x, b))


def full_storage_lanczos(a, b, steps, scalar):
    """Plain three-term Lanczos with stored basis; the algebraic twin of the
    two-pass method. ``a`` is anything that multiplies a vector with ``@``."""
    n = a.shape[0]
    bnorm = np.linalg.norm(b)
    v_prev = np.zeros(n)
    v = b / bnorm
    alphas, betas, basis = [], [], []
    beta_prev = 0.0
    for _ in range(steps):
        basis.append(v.copy())
        w = a @ v - beta_prev * v_prev
        alpha = float(v @ w)
        w = w - alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        if len(basis) < steps:
            betas.append(beta)
        if beta == 0.0:
            break
        v_prev, v = v, w / beta
        beta_prev = beta
    d, q = la.eigh_tridiagonal(alphas, betas[: len(alphas) - 1])
    coeff = q @ (scalar(d) * q[0, :])
    return bnorm * np.column_stack(basis) @ coeff
