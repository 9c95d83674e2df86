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
        self._neutral = (one_core(0, 0), 0.0, 0, 0, 0, (0,) * n_cuts)

    def with_duals(self, mu: float, nu: float,
                   cut_duals: tuple[float, ...] | None = None) -> "PairingAlgebra":
        return PairingAlgebra(
            self.max_duty_legs, self.f_max, self.alpha, self.beta,
            n_cuts=self.n_cuts, mu=mu, nu=nu,
            cut_duals=cut_duals if cut_duals is not None else self.cut_duals,
        )

    # -- core operations ----------------------------------------------------

    def _core_combine(self, c1: tuple, c2: tuple) -> tuple:
        t1, t2 = c1[0], c2[0]
        if t1 == 0 or t2 == 0:
            return BOT
        if t1 == 3 or t2 == 3:
            return TOP
        if t1 == 1 and t2 == 1:
            return (1, c1[1] + c2[1], c1[2] + c2[2])
        if t1 == 1:
            return (2, c1[1] + c2[1], c1[2] + c2[2], c2[3], c2[4], c2[5])
        if t2 == 1:
            return (2, c1[1], c1[2], c1[3] + c2[1], c1[4] + c2[2], c1[5])
        legs = c1[3] + c2[1]
        fly = c1[4] + c2[2]
        if legs > self.max_duty_legs or fly > self.f_max:
            return TOP
        long_mid = c1[5] + c2[5] + (1 if legs > LONG_DUTY_LEGS else 0)
        return (2, c1[1], c1[2], c2[3], c2[4], long_mid)

    @staticmethod
    def _core_leq(c1: tuple, c2: tuple) -> bool:
        t1, t2 = c1[0], c2[0]
        if t1 == 0 or t2 == 3:
            return True
        if t2 == 0 or t1 == 3 or t1 != t2:
            return False
        return all(a <= b for a, b in zip(c1[1:], c2[1:]))

    @staticmethod
    def _core_meet(c1: tuple, c2: tuple) -> tuple:
        t1, t2 = c1[0], c2[0]
        if t1 == 0 or t2 == 0:
            return BOT
        if t1 == 3:
            return c2
        if t2 == 3:
            return c1
        if t1 != t2:
            return BOT
        return (t1,) + tuple(min(a, b) for a, b in zip(c1[1:], c2[1:]))

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

    def _g(self, core: tuple) -> int:
        """Number of long duties certified by the core (TOP handled by cost)."""
        t = core[0]
        if t == 0:
            return 0
        if t == 1:
            return 1 if core[1] > LONG_DUTY_LEGS else 0
        return (core[5]
                + (1 if core[1] > LONG_DUTY_LEGS else 0)
                + (1 if core[3] > LONG_DUTY_LEGS else 0))

    # -- monoid and lattice interface ----------------------------------------

    def combine(self, q1, q2):
        return (
            self._core_combine(q1[0], q2[0]),
            q1[1] + q2[1],
            q1[2] + q2[2],
            q1[3] + q2[3],
            q1[4] + q2[4],
            tuple(a + b for a, b in zip(q1[5], q2[5])),
        )

    @property
    def neutral(self):
        return self._neutral

    def leq(self, q1, q2) -> bool:
        return (
            self._core_leq(q1[0], q2[0])
            and q1[1] <= q2[1]
            and q1[2] <= q2[2]
            and q1[3] >= q2[3]
            and q1[4] <= q2[4]
            and all(a <= b for a, b in zip(q1[5], q2[5]))
        )

    def meet(self, q1, q2):
        return (
            self._core_meet(q1[0], q2[0]),
            min(q1[1], q2[1]),
            min(q1[2], q2[2]),
            max(q1[3], q2[3]),
            min(q1[4], q2[4]),
            tuple(min(a, b) for a, b in zip(q1[5], q2[5])),
        )

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
        if core[0] == 3:
            return math.inf
        c = z + self.mu * self.alpha
        if nights >= LONG_PAIRING_NIGHTS:
            c -= self.mu
        c -= self.nu * (self._g(core) - self.beta * (rests + 1))
        for s, k in zip(self.cut_duals, cuts):
            if k:
                c -= s * k
        return c

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
        if q[0][0] == 3:
            raise ValueError("infeasible resource has no duty count")
        return self._g(q[0])
