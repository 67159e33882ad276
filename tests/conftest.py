import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

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
