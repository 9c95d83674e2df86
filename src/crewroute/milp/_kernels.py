"""Hot numeric kernels of the simplex: eta update and bounded ratio test."""

from __future__ import annotations

import numpy as np

_TIE_SLACK = 1e-12


def eta_update(binv: np.ndarray, w: np.ndarray, r: int) -> None:
    """In-place product-form update of the basis inverse.

    ``w`` is the ftran result B^-1 A_j for the entering column and ``r`` the
    leaving row; afterwards binv is the inverse of the new basis.
    """
    piv = w[r]
    binv[r, :] /= piv
    scale = w.copy()
    scale[r] = 0.0
    binv -= scale[:, None] * binv[r, :]


def ratio_test(
    xb: np.ndarray,
    w: np.ndarray,
    ub: np.ndarray,
    basis: np.ndarray,
    tol_pivot: float,
) -> tuple[float, int, int]:
    """Largest step t for the entering variable before a basic hits a bound.

    Basics move as xb - t*w with upper bounds ``ub``. Returns
    (t, row, kind) with kind 0 when the blocking basic leaves at its lower
    bound (0) and 1 at its upper; row is -1 when no basic blocks. Ties on t
    go to the smallest basis variable index, matching Bland's leaving rule.
    """
    # An infinite ub gives inf - xb = inf, and inf / |w| stays inf, so the
    # rows that cannot block need no mask of their own.
    t_all = np.where(
        w > tol_pivot,
        np.maximum(xb, 0.0),
        np.where(w < -tol_pivot, np.maximum(ub - xb, 0.0), np.inf),
    ) / np.abs(w)
    best = t_all.min() if t_all.size else np.inf
    if not np.isfinite(best):
        return np.inf, -1, 0
    tied = (t_all <= best + _TIE_SLACK).nonzero()[0]
    row = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
    kind = 0 if w[row] > 0.0 else 1
    return float(t_all[row]), row, kind
