"""Linear and mixed binary program containers.

Models are built incrementally (variables, then rows) and solved in
minimization sense. Row relations are '<=', '=' or '>='. Dual values follow
the convention that at a minimum the dual of a '<=' row is nonpositive and
the dual of a '>=' row is nonnegative.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

RELATIONS = ("<=", "=", ">=")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERIC_FAILURE = "numeric_failure"


class MipStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


class LinearProgram:
    """Sparse row-wise LP/MIP model with [lo, hi] variable bounds."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.obj: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.binary: list[bool] = []
        self.var_names: list[str] = []
        self.rows: list[tuple[list[int], list[float]]] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(
        self,
        obj: float = 0.0,
        lo: float = 0.0,
        hi: float = math.inf,
        binary: bool = False,
        name: str | None = None,
    ) -> int:
        if not math.isfinite(obj):
            raise ValueError(f"variable objective must be finite, got {obj}")
        if not math.isfinite(lo):
            raise ValueError("variable lower bound must be finite")
        if binary and math.isinf(hi):
            hi = 1.0
        if hi < lo:
            raise ValueError(f"variable bounds reversed: [{lo}, {hi}]")
        if binary and (lo < 0 or hi > 1):
            raise ValueError("binary variable bounds must lie in [0, 1]")
        self.obj.append(float(obj))
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self.binary.append(binary)
        self.var_names.append(name or f"x{len(self.obj) - 1}")
        return len(self.obj) - 1

    def add_row(
        self,
        coefs: dict[int, float],
        relation: str,
        rhs: float,
        name: str | None = None,
    ) -> int:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if not math.isfinite(rhs):
            raise ValueError("row rhs must be finite")
        cols, vals = [], []
        for j, v in sorted(coefs.items()):
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row references unknown variable {j}")
            if not math.isfinite(v):
                raise ValueError("row coefficient must be finite")
            if v != 0.0:
                cols.append(j)
                vals.append(float(v))
        self.rows.append((cols, vals))
        self.relations.append(relation)
        self.rhs.append(float(rhs))
        self.row_names.append(name or f"r{len(self.rows) - 1}")
        return len(self.rows) - 1

    def set_coefficient(self, row: int, var: int, coef: float) -> None:
        """Set one entry, so columns can be added after rows exist."""
        if not 0 <= row < self.n_rows:
            raise ValueError(f"unknown row {row}")
        if not 0 <= var < self.n_vars:
            raise ValueError(f"unknown variable {var}")
        if not math.isfinite(coef):
            raise ValueError("coefficient must be finite")
        cols, vals = self.rows[row]
        pos = bisect.bisect_left(cols, var)
        if pos < len(cols) and cols[pos] == var:
            if coef == 0.0:
                cols.pop(pos)
                vals.pop(pos)
            else:
                vals[pos] = float(coef)
        elif coef != 0.0:
            cols.insert(pos, var)
            vals.insert(pos, float(coef))

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        for i, (cols, vals) in enumerate(self.rows):
            a[i, cols] = vals
        return a

    def row_activity(self, x: np.ndarray, i: int) -> float:
        cols, vals = self.rows[i]
        return float(sum(v * x[j] for j, v in zip(cols, vals)))

    def objective_value(self, x: np.ndarray) -> float:
        return float(np.dot(np.asarray(self.obj), x))

    def to_lp_text(self) -> str:
        """Debug dump in a plain LP-like text format."""
        out = [f"\\ {self.name}", "Minimize", " obj:"]
        terms = [
            f" {c:+g} {self.var_names[j]}" for j, c in enumerate(self.obj) if c
        ]
        out.append("  " + ("".join(terms) if terms else " 0"))
        out.append("Subject To")
        for i, (cols, vals) in enumerate(self.rows):
            body = "".join(
                f" {v:+g} {self.var_names[j]}" for j, v in zip(cols, vals)
            )
            out.append(f" {self.row_names[i]}: {body or ' 0'} {self.relations[i]} {self.rhs[i]:g}")
        out.append("Bounds")
        for j in range(self.n_vars):
            hi = "+inf" if math.isinf(self.upper[j]) else f"{self.upper[j]:g}"
            out.append(f" {self.lower[j]:g} <= {self.var_names[j]} <= {hi}")
        binaries = [self.var_names[j] for j in range(self.n_vars) if self.binary[j]]
        if binaries:
            out.append("Binaries")
            out.append(" " + " ".join(binaries))
        out.append("End")
        return "\n".join(out) + "\n"


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int


@dataclass
class MipResult:
    status: MipStatus
    x: np.ndarray | None
    objective: float
    best_bound: float
    nodes: int

    @property
    def gap(self) -> float:
        if self.x is None or not math.isfinite(self.best_bound):
            return math.inf
        return self.objective - self.best_bound
