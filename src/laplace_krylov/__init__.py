"""Restarted Arnoldi evaluation of Laplace-transform matrix functions F(A)b."""

from .operators import (
    Graph,
    LinearOperator,
    SparseMatrix,
    convection_diffusion_nd,
    graph_laplacian,
    kron_sum,
    laplacian_nd,
    largest_connected_component,
    read_matrix_market,
    write_matrix_market,
)
from .krylov import KrylovDecomposition, arnoldi
from .quadrature import QuadratureRule, apply_rule_matrix, build_laplace_rule, gk15
from .restart import (
    ConvergenceRegionError,
    RestartConfig,
    RestartReport,
    TransformFunction,
    builtin_kernels,
    restarted_laplace,
    transform_value,
)

__version__ = "0.1.0"
