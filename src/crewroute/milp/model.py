"""Linear and mixed binary program containers.

Models are built incrementally (rows over existing variables, variables
with their coefficients in existing rows) and solved in minimization
sense. Row relations are '<=', '=' or '>='. Dual values follow the
convention that at a minimum the dual of a '<=' row is nonpositive and the
dual of a '>=' row is nonnegative. A solved LP hands back its optimal
``Basis``, which the next solve of a grown or re-bounded model can start
from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

RELATIONS = ("<=", "=", ">=")

# Kind tags of the variables a basis names.
STRUCTURAL, SLACK, ARTIFICIAL = "var", "slack", "artificial"


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
    """Sparse column-wise LP/MIP model with [lo, hi] variable bounds.

    ``columns[j]`` is ``(rows, vals)``: the nonzeros of variable ``j``, rows
    strictly increasing. Rows append to the columns they touch; a variable
    added after rows exist brings its own coefficients in those rows. Rows
    and columns are only ever appended, never deleted, so every ``Basis``
    of the model names rows and variables that still exist.
    """

    def __init__(self):
        self.obj: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.binary: list[bool] = []
        self.columns: list[tuple[list[int], list[float]]] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_variable(
        self,
        obj: float = 0.0,
        lo: float = 0.0,
        hi: float = math.inf,
        binary: bool = False,
        column: dict[int, float] | None = None,
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
        rows, vals = [], []
        for i, v in sorted((column or {}).items()):
            if not 0 <= i < self.n_rows:
                raise ValueError(f"column references unknown row {i}")
            if not math.isfinite(v):
                raise ValueError("column coefficient must be finite")
            if v != 0.0:
                rows.append(i)
                vals.append(float(v))
        self.obj.append(float(obj))
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self.binary.append(binary)
        self.columns.append((rows, vals))
        return len(self.obj) - 1

    def add_row(self, coefs: dict[int, float], relation: str, rhs: float) -> int:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        if not math.isfinite(rhs):
            raise ValueError("row rhs must be finite")
        terms = []
        for j, v in sorted(coefs.items()):
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row references unknown variable {j}")
            if not math.isfinite(v):
                raise ValueError("row coefficient must be finite")
            if v != 0.0:
                terms.append((j, float(v)))
        i = self.n_rows
        for j, v in terms:
            rows, vals = self.columns[j]
            rows.append(i)
            vals.append(v)
        self.relations.append(relation)
        self.rhs.append(float(rhs))
        return i

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        for j, (rows, vals) in enumerate(self.columns):
            a[rows, j] = vals
        return a

    def objective_value(self, x: np.ndarray) -> float:
        return float(np.dot(np.asarray(self.obj), x))


@dataclass(frozen=True)
class Basis:
    """A simplex basis named so that it stays valid when columns or rows
    are appended to the model.

    ``basic`` holds one ``(kind, index)`` name per row: ``(STRUCTURAL, j)``
    for variable ``j``, ``(SLACK, i)`` and ``(ARTIFICIAL, i)`` for the
    slack and the artificial of row ``i``. ``at_upper`` lists the nonbasic
    variables at their upper bound; every other nonbasic sits at its lower.
    """

    basic: tuple[tuple[str, int], ...]
    at_upper: tuple[int, ...] = ()

    def with_slack(self, row: int) -> "Basis":
        """The basis of the model with row ``row`` appended: its slack
        joins the basis."""
        return Basis(self.basic + ((SLACK, row),), self.at_upper)


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float
    duals: np.ndarray | None
    iterations: int
    basis: Basis | None = None


@dataclass
class MipResult:
    """A branch and bound outcome; ``root_basis`` is the root LP's optimal
    basis, None when the root LP was not solved to optimality."""

    status: MipStatus
    x: np.ndarray | None
    objective: float
    best_bound: float
    nodes: int
    root_basis: Basis | None = None

    @property
    def gap(self) -> float:
        if self.x is None or not math.isfinite(self.best_bound):
            return math.inf
        return self.objective - self.best_bound
