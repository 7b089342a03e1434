"""Reference solvers that the tests compare the library kernels against."""

import numpy as np

from compactwave.operators import TridiagonalFactor
from compactwave.solvers import SingularSystemError

_PIVOT_RTOL = 1e-14


def thomas_solve(factor: TridiagonalFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve the interior tridiagonal system by forward elimination and back
    substitution (no pivoting); rhs may carry trailing dimensions."""
    lo, di, up = factor.lower, factor.diag, factor.upper
    n = di.size
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} != interior count {n}")
    scale = max(np.abs(lo).max(), np.abs(di).max(), np.abs(up).max())
    cp = np.empty(n)
    x = rhs.astype(float, copy=True)
    den = di[0]
    if abs(den) <= _PIVOT_RTOL * scale:
        raise SingularSystemError("zero pivot in tridiagonal elimination")
    cp[0] = up[0] / den
    x[0] = x[0] / den
    for i in range(1, n):
        den = di[i] - lo[i] * cp[i - 1]
        if abs(den) <= _PIVOT_RTOL * scale:
            raise SingularSystemError("zero pivot in tridiagonal elimination")
        cp[i] = up[i] / den
        x[i] = (x[i] - lo[i] * x[i - 1]) / den
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x
