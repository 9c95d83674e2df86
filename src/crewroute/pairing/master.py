"""Restricted master problem for crew pairing selection.

Rows, in fixed order: one cover equality per leg (exactly one pairing per
leg), the long-pairing share row, the long/short duty balance row, then one
row per active short-connection cut, appended as cuts arrive (``add_cut``).
Pairing columns are binary; artificial single-cover columns are continuous
with a large cost so the LP stays feasible while pricing fills the pool,
and any artificial still active at the end flags uncoverable legs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..instance import Instance
from ..milp.model import LinearProgram
from .network import PairingColumn


@dataclass(frozen=True)
class CutRow:
    """Short-connection cut: sum over columns of |shorts(p) & conns| <= rhs."""

    conns: frozenset
    rhs: float


def artificial_cost(inst: Instance) -> float:
    """Big-M above any plausible pairing cost by a factor of 1e4.

    Large enough that an artificial never beats covering its leg with real
    pairings, small enough to keep the master's objective range inside what
    double precision pivoting tolerates.
    """
    rules = inst.rules
    w = rules.weights
    days = rules.max_pairing_days
    plausible = (w.w_pairing + w.w_fly * days * rules.F_max
                 + w.w_hotel * max(days - 1, 1))
    return 1e4 * max(1.0, plausible)


class MasterProblem:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.leg_ids = sorted(l.id for l in inst.legs)
        self.lp = LinearProgram()
        self.columns: list[PairingColumn] = []
        self.col_vars: list[int] = []
        self._seen: set[tuple[int, ...]] = set()

        big_m = artificial_cost(inst)
        self.art_vars = {
            leg: self.lp.add_variable(obj=big_m)
            for leg in self.leg_ids
        }
        self.cover_row = {
            leg: self.lp.add_row({self.art_vars[leg]: 1.0}, "=", 1.0)
            for leg in self.leg_ids
        }
        self.alpha_row = self.lp.add_row({}, "<=", 0.0)
        self.beta_row = self.lp.add_row({}, "<=", 0.0)
        self.cuts: tuple[CutRow, ...] = ()
        self.cut_rows: list[int] = []

    def add_cut(self, cut: CutRow) -> int:
        """Append the cut's row; every pooled column gets its coefficient."""
        coefs = {}
        for col, var in zip(self.columns, self.col_vars):
            n = len(set(col.shorts) & cut.conns)
            if n:
                coefs[var] = float(n)
        row = self.lp.add_row(coefs, "<=", cut.rhs)
        self.cuts += (cut,)
        self.cut_rows.append(row)
        return row

    def has_column(self, legs: tuple[int, ...]) -> bool:
        """Whether the pool holds the pairing that flies ``legs``."""
        return legs in self._seen

    def add_column(self, col: PairingColumn) -> int:
        if col.legs in self._seen:
            raise ValueError("duplicate pairing column")
        self._seen.add(col.legs)
        var = self.lp.add_variable(obj=col.cost, binary=True,
                                   column=self._coefficients(col))
        self.columns.append(col)
        self.col_vars.append(var)
        return var

    def _coefficients(self, col: PairingColumn) -> dict[int, float]:
        """The column's row coefficients in row order; cuts it misses are
        left out."""
        rules = self.inst.rules
        coefs = {self.cover_row[leg]: 1.0 for leg in col.legs}
        coefs[self.alpha_row] = (1.0 if col.is_long else 0.0) - rules.alpha
        coefs[self.beta_row] = ((1.0 - rules.beta) * col.n_long_duties
                                - rules.beta * col.n_short_duties)
        shorts = set(col.shorts)
        for row, cut in zip(self.cut_rows, self.cuts):
            n = len(shorts & cut.conns)
            if n:
                coefs[row] = float(n)
        return coefs

    def duals_of(self, duals) -> tuple[dict[int, float], float, float, tuple]:
        """Split a dual vector into (leg duals, alpha, beta, cut duals)."""
        legs = {leg: duals[self.cover_row[leg]] for leg in self.leg_ids}
        sig = tuple(duals[r] for r in self.cut_rows)
        return legs, duals[self.alpha_row], duals[self.beta_row], sig

    def reduced_cost(self, col: PairingColumn, duals) -> float:
        """Column reduced cost from the coefficients ``add_column`` writes."""
        rc = col.cost
        for row, coef in self._coefficients(col).items():
            rc -= duals[row] * coef
        return rc

    def selected(self, x) -> list[PairingColumn]:
        return [col for col, v in zip(self.columns, self.col_vars)
                if x[v] > 0.5]

    def active_artificials(self, x) -> list[int]:
        return [leg for leg in self.leg_ids if x[self.art_vars[leg]] > 1e-6]
