"""Lattice ordered monoid encoding crew duty rules and pricing duals.

A resource is ``(core, z, nights, rests)``:

* ``core`` summarizes the duty structure of a leg sequence. ``ONE`` holds
  the adjusted leg counter and padded flying of a single open duty, ``MULTI``
  holds the first and last open duties plus the number of completed middle
  duties that were long, ``BOT`` and ``TOP`` are absorbing lattice extremes
  (``BOT`` can only arise from meets of incomparable cores, never on a real
  path). Flying is padded at each duty start by ``f_max - limit(start)`` so
  a single threshold check against ``f_max`` enforces the time-of-day
  dependent duty flying limits.
* ``z`` accumulates pairing cost minus the duals the path's arcs pay: the
  cover duals of its legs and the cut duals of its short connections.
* ``nights`` counts hotel nights, which decides whether a pairing is long.
* ``rests`` counts overnight rests; duties = rests + 1. Its order is
  reversed (more rests never costs more), so meet takes the maximum.

On a complete origin-destination path the scalar cost equals the exact
reduced cost of the priced pairing column.
"""

from __future__ import annotations

import math

import numpy as np

from ..rcsp import ResourceAlgebra, fold_min

BOT = (0,)
TOP = (3,)

# A duty is long when its adjusted leg counter exceeds this; a pairing is
# long when it spans at least this many nights.
LONG_DUTY_LEGS = 3
LONG_PAIRING_NIGHTS = 3

# An ordered completion scan stops only where the floor bound clears the
# best cost by this share of the magnitudes involved, some 10^6 times the
# rounding of the few float operations that separate the bound from a cost.
SCAN_MARGIN = 1e-9

# to_array pads a core to its type and five components; the rows of the
# type, the components, nights and rests, which are integers
_PAD = {1: (0,) * 5, 3: (0,) * 3, 6: ()}
_INT_ROWS = [0, 1, 2, 3, 4, 5, 7, 8]


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
        mu: float = 0.0,
        nu: float = 0.0,
    ):
        self.max_duty_legs = max_duty_legs
        self.f_max = f_max
        self.alpha = alpha
        self.beta = beta
        # duals of <= rows are clamped non-positive to absorb solver noise
        self.mu = min(mu, 0.0)
        self.nu = min(nu, 0.0)
        self._mu_alpha = self.mu * alpha
        self._nu_beta = self.nu * beta
        self._neutral = (one_core(0, 0), 0.0, 0, 0)

    def with_duals(self, mu: float, nu: float) -> "PairingAlgebra":
        return PairingAlgebra(self.max_duty_legs, self.f_max, self.alpha,
                              self.beta, mu=mu, nu=nu)

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
        c1, z1, n1, r1 = q1
        c2, z2, n2, r2 = q2
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
        return (core, z1 + z2, n1 + n2, r1 + r2)

    @property
    def neutral(self):
        return self._neutral

    def leq(self, q1, q2) -> bool:
        if not (q1[1] <= q2[1] and q1[2] <= q2[2] and q1[3] >= q2[3]):
            return False
        c1, c2 = q1[0], q2[0]
        t1, t2 = c1[0], c2[0]
        # BOT is below and TOP above every core; otherwise the types must
        # agree (which rules out BOT on the right and TOP on the left)
        if t1 != 0 and t2 != 3:
            if t1 != t2:
                return False
            if t1 == 1:
                return c1[1] <= c2[1] and c1[2] <= c2[2]
            return (c1[1] <= c2[1] and c1[2] <= c2[2] and c1[3] <= c2[3]
                    and c1[4] <= c2[4] and c1[5] <= c2[5])
        return True

    def meet(self, q1, q2):
        c1, z1, n1, r1 = q1
        c2, z2, n2, r2 = q2
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
                r2 if r2 > r1 else r1)

    def join(self, q1, q2):
        return (
            self._core_join(q1[0], q2[0]),
            max(q1[1], q2[1]),
            max(q1[2], q2[2]),
            min(q1[3], q2[3]),
        )

    def cost(self, q) -> float:
        core, z, nights, rests = q
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
        return c - self.nu * (g - self.beta * (rests + 1))

    def completion_cost(self, q, bounds, states, ordered=False,
                        limit=math.inf) -> float:
        """``ResourceAlgebra.completion_cost`` in one pass, bit for bit up
        to ``limit``.

        For each bound the type, feasibility and long-duty count of the
        combined core are worked out without building it, and the cost is
        summed in the float order of ``cost(combine(q, b))``.

        With mu and nu clamped to <= 0, every term of that cost but the z,
        mu*alpha and nu*beta*rests terms only adds, so ``cost(combine(q, b))
        >= part + floor`` with ``part = z_q + mu*alpha + nu*beta*(r_q + 1)``
        and ``floor = z_b + nu*beta*r_b``, the bound's ``floors`` entry,
        whatever the core types. An ``ordered`` scan therefore stops at the
        first state whose floor exceeds ``bound - part`` by more than
        ``SCAN_MARGIN`` times the magnitude of the terms, where ``bound`` is
        the lesser of ``limit`` and the best cost found: no later state can
        cost less than ``bound``, rounding included. When every cost is
        above ``limit``, the scan may return any of them, or +inf."""
        qc, zq, nq, rq = q
        tq = qc[0]
        max_legs, f_max = self.max_duty_legs, self.f_max
        mu, mu_alpha, nu, beta = self.mu, self._mu_alpha, self.nu, self.beta
        nub = self._nu_beta
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
        best = bound = math.inf
        # a state whose floor exceeds stop cannot cost less than bound;
        # stop is +inf while bound is, and always when the states are
        # unordered
        stop = math.inf
        ordered = ordered and len(states) > 1
        if ordered:
            part = (zq + mu_alpha) + nub * (rq + 1)
            if limit < bound:
                bound = limit
                stop = bound - part
        for s in states:
            bc, zb, nb, rb = bounds[s]
            floor = zb + nub * rb
            if floor > stop and floor - stop > SCAN_MARGIN * (
                    abs(zq) + abs(mu_alpha) + abs(nub) * (rq + 1)
                    + abs(bound) + abs(zb) + abs(nub * rb)):
                break
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
            if c < best:
                best = c
                if ordered and c < bound:
                    bound = c
                    stop = bound - part
        return best

    def floors(self, bounds) -> list[float]:
        """``z_b + nu*beta*r_b`` per bound, the part of ``cost(combine(q,
        b))`` that ``completion_cost`` bounds by b alone."""
        nub = self._nu_beta
        return [b[1] + nub * b[3] for b in bounds]

    # -- state-graph build: array kernels ------------------------------------
    #
    # A resource's column holds the core type (0 BOT, 1 ONE, 2 MULTI,
    # 3 TOP), five core components (zero where the type has none), z,
    # nights and rests. Components and counters are integers, exact in
    # float64.

    def to_array(self, qs) -> np.ndarray:
        return np.array([c + _PAD[len(c)] + (z, n, r) for c, z, n, r in qs],
                        dtype=np.float64).reshape(-1, 9).T

    def from_array(self, arr) -> list:
        out = []
        for t, c1, c2, c3, c4, c5, n, r, z in zip(
                *arr[_INT_ROWS].astype(np.int64).tolist(), arr[6].tolist()):
            if t == 1:
                core = (1, c1, c2)
            elif t == 2:
                core = (2, c1, c2, c3, c4, c5)
            else:
                core = BOT if t == 0 else TOP
            out.append((core, z, n, r))
        return out

    def combine_array(self, arr1, arr2) -> np.ndarray:
        """``combine`` by core case: a BOT core makes BOT, then a TOP core
        TOP, and two MULTI cores make TOP when the duty they merge breaks a
        limit."""
        t1, t2 = arr1[0], arr2[0]
        one1, one2 = t1 == 1, t2 == 1
        legs = arr1[3] + arr2[1]
        out = np.empty_like(arr1)
        out[6:] = arr1[6:] + arr2[6:]
        # ONE then ONE adds the open duties, ONE then MULTI extends the
        # first duty of the second, MULTI then ONE the last duty of the
        # first, and MULTI then MULTI closes a middle duty
        out[1:3] = arr1[1:3] + arr2[1:3] * one1
        out[3] = np.where(one2, legs, arr2[3])
        out[4] = np.where(one2, arr1[4] + arr2[2], arr2[4])
        out[5] = np.where(one1, arr2[5],
                          np.where(one2, arr1[5],
                                   arr1[5] + arr2[5]
                                   + (legs > LONG_DUTY_LEGS)))
        top = (t1 == 3) | (t2 == 3) | (
            ~(one1 | one2) & ((legs > self.max_duty_legs)
                              | (arr1[4] + arr2[2] > self.f_max)))
        bot = (t1 == 0) | (t2 == 0)
        t = np.where(bot, 0.0, np.where(top, 3.0, 2.0 - (one1 & one2)))
        out[0] = t
        # components only where the type has them
        out[1:3] *= ~(bot | top)
        out[3:6] *= t == 2
        return out

    @staticmethod
    def candidate_keys(arr):
        return arr[6], arr[0] == 3

    @staticmethod
    def meet_runs(arr, starts) -> np.ndarray:
        """z, nights and the core components are met by their minima (z
        signed as ``meet`` keeps the first of equal z), rests by its
        maximum. The met core is BOT when a member's is or the members
        that are neither BOT nor TOP mix ONE and MULTI, TOP when every
        member's is, and otherwise of their type, by the minima of theirs.
        """
        t = arr[0]
        out = np.empty((9, len(starts)))
        # a member's type as a bit: BOT 1, ONE 2, MULTI 4, TOP none
        bits = np.bitwise_or.reduceat(
            np.array([1, 2, 4, 0], dtype=np.int8)[t.astype(np.intp)], starts)
        met = np.where(bits == 2, 1.0, np.where(bits == 4, 2.0, 0.0))
        met[bits == 0] = 3.0
        out[0] = met
        live = (t == 1) | (t == 2)
        mins = np.minimum.reduceat(np.where(live, arr[1:6], np.inf), starts,
                                   axis=1)
        out[1:3] = np.where((met == 1) | (met == 2), mins[:2], 0.0)
        out[3:6] = np.where(met == 2, mins[2:], 0.0)
        out[6] = fold_min(arr[6], starts)
        out[7] = np.minimum.reduceat(arr[7], starts)
        out[8] = np.maximum.reduceat(arr[8], starts)
        return out

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
        return (q[0], s, q[2], q[3])

    @staticmethod
    def is_top(q) -> bool:
        return q[0][0] == 3
