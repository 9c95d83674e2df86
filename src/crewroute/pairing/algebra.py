"""Lattice ordered monoid encoding crew duty rules and pricing duals.

A resource is ``(core, z, nights, rests, fly, cuts)``:

* ``core`` summarizes the duty structure of a leg sequence. ``ONE`` holds
  the adjusted leg counter and padded flying of a single open duty, ``MULTI``
  holds the first and last open duties plus the number of completed middle
  duties that were long, ``BOT`` and ``TOP`` are absorbing lattice extremes
  (``BOT`` can only arise from meets of incomparable cores, never on a real
  path). Flying is padded at each duty start by ``f_max - limit(start)`` so
  a single threshold check against ``f_max`` enforces the time-of-day
  dependent duty flying limits.
* ``z`` accumulates pairing cost minus covered leg duals.
* ``nights`` counts hotel nights, which decides whether a pairing is long.
* ``rests`` counts overnight rests; duties = rests + 1. Its order is
  reversed (more rests never costs more), so meet takes the maximum.
* ``fly`` carries total flying minutes for reporting.
* ``cuts`` counts, per active cut, the cut connections the path uses.

On a complete origin-destination path the scalar cost equals the exact
reduced cost of the priced pairing column.
"""

from __future__ import annotations

import math
from operator import add, le

from ..rcsp import ResourceAlgebra

BOT = (0,)
TOP = (3,)

# A duty is long when its adjusted leg counter exceeds this; a pairing is
# long when it spans at least this many nights.
LONG_DUTY_LEGS = 3
LONG_PAIRING_NIGHTS = 3


def one_core(legs: int, fly: int) -> tuple:
    return (1, legs, fly)


def multi_core(nb: int, fb: int, ne: int, fe: int, long_middles: int) -> tuple:
    return (2, nb, fb, ne, fe, long_middles)


class PairingAlgebra(ResourceAlgebra):
    """Duty-rule monoid with dual prices folded into the cost functional."""

    def __init__(
        self,
        max_duty_legs: int,
        f_max: int,
        alpha: float,
        beta: float,
        n_cuts: int = 0,
        mu: float = 0.0,
        nu: float = 0.0,
        cut_duals: tuple[float, ...] | None = None,
    ):
        self.max_duty_legs = max_duty_legs
        self.f_max = f_max
        self.alpha = alpha
        self.beta = beta
        self.n_cuts = n_cuts
        # duals of <= rows are clamped non-positive to absorb solver noise
        self.mu = min(mu, 0.0)
        self.nu = min(nu, 0.0)
        sig = tuple(cut_duals) if cut_duals is not None else (0.0,) * n_cuts
        if len(sig) != n_cuts:
            raise ValueError("cut dual vector length mismatch")
        self.cut_duals = tuple(min(s, 0.0) for s in sig)
        self._mu_alpha = self.mu * alpha
        self._neutral = (one_core(0, 0), 0.0, 0, 0, 0, (0,) * n_cuts)

    def with_duals(self, mu: float, nu: float,
                   cut_duals: tuple[float, ...] | None = None) -> "PairingAlgebra":
        return PairingAlgebra(
            self.max_duty_legs, self.f_max, self.alpha, self.beta,
            n_cuts=self.n_cuts, mu=mu, nu=nu,
            cut_duals=cut_duals if cut_duals is not None else self.cut_duals,
        )

    # -- core operations ----------------------------------------------------

    @staticmethod
    def _core_join(c1: tuple, c2: tuple) -> tuple:
        t1, t2 = c1[0], c2[0]
        if t1 == 3 or t2 == 3:
            return TOP
        if t1 == 0:
            return c2
        if t2 == 0:
            return c1
        if t1 != t2:
            return TOP
        return (t1,) + tuple(max(a, b) for a, b in zip(c1[1:], c2[1:]))

    # -- monoid and lattice interface ----------------------------------------
    #
    # combine, leq, meet, cost and completion_cost run in the pricing hot
    # loops, so the core cases are written out inline. ``b if b < a else a``
    # is exactly ``min(a, b)`` (and ``b if b > a else a`` is ``max``), NaN
    # and signed zeros included.

    def combine(self, q1, q2):
        c1, z1, n1, r1, f1, k1 = q1
        c2, z2, n2, r2, f2, k2 = q2
        t1, t2 = c1[0], c2[0]
        if t1 == 0 or t2 == 0:
            core = BOT
        elif t1 == 3 or t2 == 3:
            core = TOP
        elif t1 == 1:
            if t2 == 1:
                core = (1, c1[1] + c2[1], c1[2] + c2[2])
            else:
                core = (2, c1[1] + c2[1], c1[2] + c2[2], c2[3], c2[4], c2[5])
        elif t2 == 1:
            core = (2, c1[1], c1[2], c1[3] + c2[1], c1[4] + c2[2], c1[5])
        else:
            legs = c1[3] + c2[1]
            if legs > self.max_duty_legs or c1[4] + c2[2] > self.f_max:
                core = TOP
            else:
                core = (2, c1[1], c1[2], c2[3], c2[4],
                        c1[5] + c2[5] + (1 if legs > LONG_DUTY_LEGS else 0))
        return (core, z1 + z2, n1 + n2, r1 + r2, f1 + f2,
                tuple(map(add, k1, k2)) if k1 else k1)

    @property
    def neutral(self):
        return self._neutral

    def leq(self, q1, q2) -> bool:
        if not (q1[1] <= q2[1] and q1[2] <= q2[2] and q1[3] >= q2[3]
                and q1[4] <= q2[4]):
            return False
        c1, c2 = q1[0], q2[0]
        t1, t2 = c1[0], c2[0]
        # BOT is below and TOP above every core; otherwise the types must
        # agree (which rules out BOT on the right and TOP on the left)
        if t1 != 0 and t2 != 3:
            if t1 != t2:
                return False
            if t1 == 1:
                if not (c1[1] <= c2[1] and c1[2] <= c2[2]):
                    return False
            elif not (c1[1] <= c2[1] and c1[2] <= c2[2] and c1[3] <= c2[3]
                      and c1[4] <= c2[4] and c1[5] <= c2[5]):
                return False
        k1 = q1[5]
        return all(map(le, k1, q2[5])) if k1 else True

    def meet(self, q1, q2):
        c1, z1, n1, r1, f1, k1 = q1
        c2, z2, n2, r2, f2, k2 = q2
        t1, t2 = c1[0], c2[0]
        if t1 == 0 or t2 == 0:
            core = BOT
        elif t1 == 3:
            core = c2
        elif t2 == 3:
            core = c1
        elif t1 != t2:
            core = BOT
        else:
            core = tuple(map(min, c1, c2))
        return (core, z2 if z2 < z1 else z1, n2 if n2 < n1 else n1,
                r2 if r2 > r1 else r1, f2 if f2 < f1 else f1,
                tuple(map(min, k1, k2)) if k1 else k1)

    def join(self, q1, q2):
        return (
            self._core_join(q1[0], q2[0]),
            max(q1[1], q2[1]),
            max(q1[2], q2[2]),
            min(q1[3], q2[3]),
            max(q1[4], q2[4]),
            tuple(max(a, b) for a, b in zip(q1[5], q2[5])),
        )

    def cost(self, q) -> float:
        core, z, nights, rests, _fly, cuts = q
        t = core[0]
        if t == 3:
            return math.inf
        c = z + self._mu_alpha
        if nights >= LONG_PAIRING_NIGHTS:
            c -= self.mu
        if t == 0:
            g = 0
        elif t == 1:
            g = 1 if core[1] > LONG_DUTY_LEGS else 0
        else:
            g = (core[5] + (1 if core[1] > LONG_DUTY_LEGS else 0)
                 + (1 if core[3] > LONG_DUTY_LEGS else 0))
        c -= self.nu * (g - self.beta * (rests + 1))
        if cuts:
            for s, k in zip(self.cut_duals, cuts):
                if k:
                    c -= s * k
        return c

    def completion_cost(self, q, bounds, states) -> float:
        """``ResourceAlgebra.completion_cost`` in one pass, bit for bit.

        For each bound the type, feasibility and long-duty count of the
        combined core are worked out without building it, and the cost is
        summed in the float order of ``cost(combine(q, b))``."""
        qc, zq, nq, rq, _fly, kq = q
        tq = qc[0]
        max_legs, f_max = self.max_duty_legs, self.f_max
        mu, mu_alpha, nu, beta = self.mu, self._mu_alpha, self.nu, self.beta
        cut_duals = self.cut_duals if kq else ()
        # The open duty of q that the bound's first duty extends, and the
        # long duties q certifies before it. Against any bound but BOT,
        # q is dead when it is TOP or its closed first duty breaks a limit.
        dead = tq == 3
        open_legs = open_fly = q_long = 0
        if tq == 1:
            open_legs, open_fly = qc[1], qc[2]
        elif tq == 2:
            dead = qc[1] > max_legs or qc[2] > f_max
            open_legs, open_fly = qc[3], qc[4]
            q_long = qc[5] + (1 if qc[1] > LONG_DUTY_LEGS else 0)
        best = math.inf
        for s in states:
            bc, zb, nb, rb, _, kb = bounds[s]
            tb = bc[0]
            if tq == 0 or tb == 0:
                g = 0
            elif dead or tb == 3:
                continue
            else:
                legs = open_legs + bc[1]
                if legs > max_legs or open_fly + bc[2] > f_max:
                    continue
                g = q_long + (1 if legs > LONG_DUTY_LEGS else 0)
                if tb == 2:
                    if bc[3] > max_legs or bc[4] > f_max:
                        continue
                    g += bc[5] + (1 if bc[3] > LONG_DUTY_LEGS else 0)
            c = (zq + zb) + mu_alpha
            if nq + nb >= LONG_PAIRING_NIGHTS:
                c -= mu
            c -= nu * (g - beta * (rq + rb + 1))
            if cut_duals:
                for sig, ka, kc in zip(cut_duals, kq, kb):
                    k = ka + kc
                    if k:
                        c -= sig * k
            if c < best:
                best = c
        return best

    def infeasible(self, q) -> bool:
        core = q[0]
        t = core[0]
        if t == 0:
            return False
        if t == 3:
            return True
        if t == 1:
            return core[1] > self.max_duty_legs or core[2] > self.f_max
        return (core[1] > self.max_duty_legs or core[2] > self.f_max
                or core[3] > self.max_duty_legs or core[4] > self.f_max)

    # -- structure/scalar split: only z moves with the duals -----------------

    @staticmethod
    def scalar(q) -> float:
        return q[1]

    @staticmethod
    def with_scalar(q, s):
        return (q[0], s, q[2], q[3], q[4], q[5])

    @staticmethod
    def is_top(q) -> bool:
        return q[0][0] == 3

    # -- exact column coefficients for complete paths ------------------------

    def n_long_duties(self, q) -> int:
        """Number of long duties certified by the core, as ``cost`` counts
        them."""
        core = q[0]
        t = core[0]
        if t == 3:
            raise ValueError("infeasible resource has no duty count")
        if t == 0:
            return 0
        if t == 1:
            return 1 if core[1] > LONG_DUTY_LEGS else 0
        return (core[5]
                + (1 if core[1] > LONG_DUTY_LEGS else 0)
                + (1 if core[3] > LONG_DUTY_LEGS else 0))
