"""The two LP shapes capax solves, each from subset masks with one integer check.

Every LP in capax is a 0/1 set system over n points: a weight per subset, a
row per point, right-hand sides 0 or 1.  It comes in two shapes.  Built from a
value table, both have 2^n columns, so `capacity_core` and `cover_maximum`
refuse a table over more than `MAX_POINTS` points (`check_points`, the one
size rule); a `CoreSystem` from explicit masks has a column per mask, uncapped.

* The **core system** {x >= 0, x(X) = 1, x(A) >= b_A}.  Exactness tests,
  lower envelopes of the core and constraint-form credal sets all minimise a
  subset mass x(B) over it.  `CoreSystem.minimum(B)` solves the dual

      max y0 + sum_A b_A y_A   s.t.  y0 + sum_{A contains j} y_A <= [j in B]
                                     for every point j;  y0 free, y_A >= 0.

* The **weighted cover** of a subset B (Bondareva's LP, the balancedness of
  the subgame on B).  `cover_maximum(values, B)` solves

      max sum_A lam_A v(A)   s.t.  sum_{A contains j} lam_A <= 1
                                   for every point j of B;  lam_A >= 0,

  A ranging over the nonempty subsets of B: the core-system dual without the
  y0 columns, with every right-hand side 1.

Both programs have one row per point and a feasible slack basis, so no
phase 1 runs.  Columns are the structural ones (y0+, y0-, the y_A in mask
order; or the lam_A in subset-code order), then the slacks: the columns of
the tableau the generic `solve` builds for the same program.  Only the
revised form is kept: m rows (m points) holding the basis inverse B^-1 in
the slack block, one scratch column and the right-hand side.  Its objective
row holds -pi on the slacks, pi the current dual point, so a structural
column's reduced cost is c_A - pi(A) (with the sign of y0-): b_A - pi(A) or
v(A) - pi(A), and one integer prefix walk of pi prices all 2^n columns.  The
entering column's B^-1 a goes into the scratch column and is pivoted there.
In exact arithmetic every reduced cost, ratio and slack-block entry equals
the full tableau's, so the loop follows Bland's path (first improving
column in the order above, ratio ties to the smallest column id), and every
value, point and multiplier equals what `solve` (of the dual, for the core
system) returns.  A weighted cover takes that path's singleton prefix in
closed form: the singletons {j} with v(j) > 0 enter first, in order, until
a member is worth more than its points, and B^-1 stays I while they do (see
`cover_maximum`); its loop starts there, and most covers never leave the
prefix, so they build no tableau.  An iteration costs O(m^2) for the pivot
plus one pass over the 2^m walk and the columns, where the full tableau's
pivot touched m rows of every column.

`CoreSystem.minimum` always starts cold, from the slack basis, and solves
each subset at most once: its `CoreMinimum` is kept and handed back.  The
minima `least` asks for (`is_exact`, the core envelopes) start warm.  Only
the right-hand side [j in B] depends on B, so every optimal basis stays
dual feasible (pi is a core point), and Lemke's dual simplex ("The dual
method of solving the linear programming problem", NRLQ 1954) goes on from
it: B^-1 r is written into the rhs column, and a row with a negative entry
leaves (`_dual`).  A warm minimum starts from a copy of the stored optimal
tableau whose point has the least x(B).  Values are unique, so it equals a
cold one; it answers with its value only.  While no tableau is stored, or
once B's cold minimum is solved, `least` answers by `minimum`.

Every pivot loop records the bases it visits and raises
`InternalInconsistency` on a repeat, so a kernel fault cannot cycle.

Each optimum a tableau holds (a weighted cover that leaves its singleton
prefix, a cold or a warm core minimum) is checked once before it leaves, in
integers and on its basis alone (`_certify`):
the dual point pi, read off the objective row on one denominator, passes
`scaled_masses` of `capax.ground` with every column read as a row (pi >= 0
and no reduced cost positive, on all subset masses at once by one prefix
walk); the basic primal weights, read off the rhs column on one
denominator, are nonnegative and load no row beyond its right-hand side;
and both objective values equal the tableau's.  Only then are Fractions
built, for the fields `CoverMaximum` and `CoreMinimum` carry.  `certifies`
and `cover_certifies` check a certificate handed in from outside, in
Fractions, by `point_masses` and `family_total`, the two checks every capax
certificate uses.  A failed check raises `InternalInconsistency` (a solver
bug, never data).  A cover that ends on its singleton prefix is certified
by the integer scan that found it.  An unbounded core-system dual means an
empty core; its ray is checked as a Farkas certificate before `CoreEmpty` is
raised.  The weighted cover is always feasible and bounded.

A system keeps one record of what it has certified: one list holds each
certified core point's mass table, with the optimal tableau found at it or
None.  It only grows, so threads may read it while another appends; a point
first kept without a tableau gains the first one found at it in place.
`least(B)` answers every subset code from it: the empty and the full set by
0 and 1 once `require_solution` shows the system solvable, any other B by
its bound when `attains(B)`, else by a warm minimum.

`attains(B)` answers the common question "is min x(B) equal to the bound of
B?" without an LP whenever it can: one core point x with x(B) = b_B proves it,
since every core point has x(B) >= b_B.  It looks at the points `minimum` has
certified, those handed to `admit` and, for the core of a capacity, the
marginal vector of the ordering that starts with B's points, which lies in
the core of every convex capacity (Shapley, "Cores of convex games", IJGT
1971).  That vector is built on one integer scale: a floor table holds L b_A
(L the lcm of the denominators), so x_j is a difference of two entries and
its core check one comparison per subset.  Every point passes the integer
core check of `capax.ground`, which gives its mass table in lowest terms, so
the list keeps one copy of each point whichever route found it.

`shared_scaled_table`, `shared_capacity_core` and `shared_full_cover` read
a one-entry memo: a value table, its integer table L v (L the lcm of its
denominators, which `classify` scans for convexity and every cover scans
for its singleton prefix), its core system and the full set's weighted
cover, each built on first use and none replacing another.  So `classify`
and `credal` share one record of points, `is_exact(nu)` and then
`lower_envelope(core_polytope(nu))` solve each minimum once, and each
capacity solves its cover at most once.
`shared_core_nonempty` answers no from a solved cover above 1, else by
`require_solution`: a kept point or the identity ordering's marginal
vector, else the cold minimum of {0}.  One entry: a slot on `Capacity`
would keep the points of every capacity a search report holds, and more
entries would let callers that cycle through a few capacities answer from
points kept by earlier calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..errors import ConfigOutOfRange, CoreEmpty, GroundMismatch, InternalInconsistency, ShapeMismatch
from ..ground import ONE, ZERO, family_total, point_masses, scaled_masses, subset_indices, subset_sums
from . import _tableau_py

MAX_POINTS = 10  # a full classification takes seconds at 10 points, minutes at 11


def check_points(n: int) -> None:
    """Raise ConfigOutOfRange for a table over more than MAX_POINTS points."""
    if n > MAX_POINTS:
        raise ConfigOutOfRange(f"the subset LPs take at most {MAX_POINTS} points, got {n}")


def _walk_row(tab, r: int, sign: int = 1):
    """(den, mass) with mass[S] = den * sign * the sum of row r's slack-block
    cells over the points of S, den their common denominator: row r of B^-1
    summed over every subset code, or with r = m and sign -1, pi(S)."""
    m, nr, dr = tab.m, tab.nums[r], tab.dens[r]
    den = lcm(*dr[:m])
    return den, subset_sums([sign * x * (den // d) for x, d in zip(nr, dr[:m])])


def _load(tab, loaded, target: int, sign: int, rows) -> None:
    """Cell (r, target) = sign * the sum of cells (r, i) over i in `loaded`,
    for each row r in `rows`: B^-1 a for a column a over the points `loaded`."""
    nums, dens = tab.nums, tab.dens
    for r in rows:
        nr, dr = nums[r], dens[r]
        sn, sd = 0, 1
        for i in loaded:
            x = nr[i]
            if x:
                d = dr[i]
                if d == sd:
                    sn += x
                else:
                    sn, sd = sn * d + x * sd, sd * d
        g = gcd(sn, sd)
        nr[target], dr[target] = sign * sn // g, sd // g


def _enter(tab, t: int, columns, den: int, mass) -> int:
    """The tableau column that holds column t: slack i's own column i, or for
    a structural column the scratch column m, into which its B^-1 a and its
    reduced cost c_t - sign_t pi(mask_t) (pi(S) = mass[S] / den) are written."""
    m, k = tab.m, len(columns)
    if t >= k:
        return t - k
    a, sign, cn, cd = columns[t]
    _load(tab, subset_indices(a), m, sign, range(m))
    rn, rd = cn * den - sign * mass[a] * cd, cd * den
    g = gcd(rn, rd)
    tab.nums[m][m], tab.dens[m][m] = rn // g, rd // g
    return m


def _revised(rhs, columns, start=()):
    """Bland's rule on max sum_t c_t z_t over z >= 0 with
    sum_t sign_t [i in mask_t] z_t <= rhs_i at each row i (rhs >= 0, a slack
    per row), pivoting only the basis inverse.

    `columns` holds one (mask, sign, num, den) per structural column t: the
    rows it loads as a mask, and c_t = num / den.  Returns (tab, enter, col).
    The tableau's slack block is B^-1, its objective row holds -pi on the
    slacks and -z at the rhs, and its basis holds column ids: t for a
    structural column, len(columns) + i for the slack of row i.  `enter` is -1
    at an optimum, else the id of an improving column with no leaving row,
    whose B^-1 a is tableau column `col`.

    The loop starts from the slack basis with column t basic at row r for
    each (r, t) in `start`, each such column the unit vector of its row with
    sign 1: B^-1 is still I, pi_r = c_t, and z = the sum of c_t rhs_r.
    """
    m, k = len(rhs), len(columns)
    matrix = []
    for r, b in enumerate(rhs):
        row = [0] * (m + 2)
        row[r], row[m + 1] = 1, b
        matrix.append(row)
    tab = _tableau_py.Tableau(matrix, range(k, k + m), m + 1)
    onums, odens, basis = tab.nums[m], tab.dens[m], tab.basis
    z = ZERO
    for r, t in start:
        _, _, cn, cd = columns[t]
        basis[r], onums[r], odens[r] = t, -cn, cd
        z += Fraction(cn * rhs[r], cd)
    onums[m + 1], odens[m + 1] = -z.numerator, z.denominator
    seen = set()
    while True:
        _tableau_py.visit(seen, basis)
        den, mass = _walk_row(tab, m, -1)
        # reduced cost of column t: c_t - sign_t pi(mask_t); slack i: -pi_i
        for t, (a, sign, cn, cd) in enumerate(columns):
            if cn * den > sign * mass[a] * cd:
                break
        else:
            t = next((i for i in range(m) if onums[i] > 0), -1)
            if t < 0:
                return tab, -1, -1
            t += k
        col = _enter(tab, t, columns, den, mass)
        row = tab.leaving_row(col)
        if row < 0:
            return tab, t, col
        tab.pivot(row, col)
        basis[row] = t


def _dual(tab, columns) -> None:
    """Lemke's dual simplex with Bland's choices on a tableau of `_revised`'s
    form whose rhs column holds B^-1 r for a new right-hand side r >= 0, from
    a dual-feasible basis (every reduced cost <= 0, so pi >= 0), to an optimum.

    The leaving row is the negative row with the smallest basis id.  Its row
    of B^-1 A comes from one signed prefix walk of its row of B^-1: alpha_t =
    sign_t B^-1_r(mask_t), a slack's own entry for a slack.  The entering
    column has the least d_t / |alpha_t| over alpha_t < 0, with d_t = -(its
    reduced cost) >= 0, compared in integers, ties to the smallest column id.
    A negative row with no alpha_t < 0 would prove the program infeasible,
    but z = 0 is feasible, so it raises InternalInconsistency.
    """
    m, nums, basis = tab.m, tab.nums, tab.basis
    # slack i as a column: mask {i}, sign 1, cost 0
    with_slacks = [*columns, *((1 << i, 1, 0, 1) for i in range(m))]
    seen = set()
    while True:
        _tableau_py.visit(seen, basis)
        row = -1
        for i in range(m):
            if nums[i][m + 1] < 0 and (row < 0 or basis[i] < basis[row]):
                row = i
        if row < 0:
            return
        den, mass = _walk_row(tab, m, -1)
        _, alpha = _walk_row(tab, row)
        # ratio of column t: (den * d_t) / |den_row * alpha_t|, the two
        # common scales dropped; bn / bd is the least so far
        t, bn, bd = -1, 0, 1
        for s, (a, sign, cn, cd) in enumerate(with_slacks):
            at = sign * alpha[a]
            if at < 0:
                dn, dd = sign * mass[a] * cd - cn * den, -at * cd
                if t < 0 or dn * bd < bn * dd:
                    t, bn, bd = s, dn, dd
                    if not dn:
                        break
        if t < 0:
            raise InternalInconsistency("dual simplex row with no entering column", basis[row])
        tab.pivot(row, _enter(tab, t, columns, den, mass))
        basis[row] = t


def _certify(tab, rhs: int, columns, what: str, subset: int):
    """Certify the optimum a tableau of `_revised`'s form holds for the
    right-hand side [i in rhs] at each row i, in integers and on its basis alone.

    Dual side: pi, read off the objective row's slack block on one
    denominator, passes `scaled_masses` with every column read as a row,
    sign_t pi(mask_t) >= c_t.  Primal side: the basic structural weights,
    read off the rhs column on one denominator, are >= 0 and load no row i
    beyond [i in rhs].  Both objectives, pi(rhs) and sum_t c_t z_t, equal the
    tableau's value.  Returns (the (den, mass) table of pi, the value, the
    basic weights as {t: numerator}, their denominator); a failed check raises
    InternalInconsistency, naming `what` and `subset`.
    """
    m, nums, dens = tab.m, tab.nums, tab.dens
    onums, odens = nums[m], dens[m]
    den = lcm(*odens[:m])
    table = scaled_masses([-v * (den // d) for v, d in zip(onums, odens[:m])], den, columns)
    basic = [(t, i) for i, t in enumerate(tab.basis) if t < len(columns)]
    wden = lcm(*(dens[i][m + 1] for _, i in basic))
    weights = {t: nums[i][m + 1] * (wden // dens[i][m + 1]) for t, i in basic}
    cden = lcm(*(columns[t][3] for t in weights))
    load, cost = [0] * m, 0
    for t, w in weights.items():
        mask, sign, cn, cd = columns[t]
        cost += w * cn * (cden // cd)
        for j in subset_indices(mask):
            load[j] += sign * w
    vn, vd = -onums[m + 1], odens[m + 1]
    if table is None or any(w < 0 for w in weights.values()) or \
            any(v > wden * (rhs >> j & 1) for j, v in enumerate(load)) or \
            cost * vd != vn * cden * wden or table[1][rhs] * vd != vn * table[0]:
        raise InternalInconsistency(f"{what} of subset {subset:#b} has a failing certificate")
    return table, Fraction(vn, vd), weights, wden


def _submasks(bound: int) -> list[int]:
    """The nonempty subsets of `bound`, in ascending subset-code order."""
    out = []
    s = 0
    while s != bound:
        s = (s - bound) & bound
        out.append(s)
    return out


@dataclass(frozen=True)
class CoreMinimum:
    """min x(B) over a core system with both halves of its certificate."""

    value: Fraction
    point: tuple[Fraction, ...]  # an attaining x, one weight per point
    shift: Fraction  # y0, the multiplier of x(X) = 1
    multipliers: tuple[Fraction, ...]  # y_A >= 0, one per mask, in mask order


class CoreSystem:
    """{x >= 0, x(X) = 1, x(A) >= bounds[i] for A = masks[i]} over n points."""

    __slots__ = ("n", "masks", "bounds", "_columns", "_top", "_floor", "_points", "_minima",
                 "_identity_out")

    def __init__(self, n: int, masks, bounds):
        masks = tuple(masks)
        bounds = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in bounds)
        if n < 1:
            raise ValueError(f"a core system needs at least one point, got {n}")
        if len(masks) != len(bounds):
            raise ShapeMismatch("one bound per mask required")
        for a in masks:
            if not 0 < a < 1 << n:
                raise GroundMismatch(f"subset code {a:#b} not valid as a constraint "
                                     f"over {n} points")
        self.n = n
        self.masks = masks
        self.bounds = bounds
        # structural dual columns y0+, y0-, y_A as (mask, sign, cost num, cost den);
        # and (bound, num, den) of the largest bound per mask, the only one a
        # core point can meet with equality
        full = (1 << n) - 1
        columns = self._columns = [(full, 1, 1, 1), (full, -1, -1, 1)]
        top = self._top = {}
        for a, b in zip(masks, bounds):
            num, den = b.numerator, b.denominator
            columns.append((a, 1, num, den))
            if a not in top or b > top[a][0]:
                top[a] = (b, num, den)
        # every proper nonempty subset bounded, X by at most 1: the core of a
        # capacity, whose floor table holds L b_A for each such A (L the lcm of
        # their denominators), 0 at the empty set and L at X
        self._floor = None
        if len(top) - (full in top) == full - 1 and top.get(full, (ONE,))[0] <= 1:
            scale = lcm(*(top[a][2] for a in range(1, full)))
            self._floor = [0, *(top[a][1] * (scale // top[a][2]) for a in range(1, full)), scale]
        # ((den, mass), optimal tableau or None) per certified core point,
        # mass[S] = den * x(S), in the order found; a tableau is only ever copied
        self._points: list = []
        # the CoreMinimum of each cold minimum solved, by subset
        self._minima: dict[int, CoreMinimum] = {}
        # whether the identity ordering's marginal vector failed its core check
        self._identity_out = False

    def minimum(self, subset: int) -> CoreMinimum:
        """Minimise x(subset), cold: from the slack basis, so the result does
        not depend on what was asked before; solved once, then handed back.
        Raises CoreEmpty when the system has no solution."""
        best = self._minima.get(subset)
        if best is None:
            self._check_code(subset)
            tab, enter, col = _revised([subset >> j & 1 for j in range(self.n)], self._columns)
            if enter >= 0:
                self._raise_empty(tab, enter, col)
            best = self._minima[subset] = self._optimum(subset, tab)
        return best

    def least(self, subset: int) -> Fraction:
        """min x(subset) for every subset code: 0 or 1 at the empty or full set
        once `require_solution` passes, its largest bound if `attains` proves
        it, else a warm minimum."""
        if not subset or subset == (1 << self.n) - 1:
            self.require_solution()
            return ONE if subset else ZERO
        return self._top[subset][0] if self.attains(subset) else self._warm_minimum(subset)

    def _warm_minimum(self, subset: int) -> Fraction:
        """min x(subset) by the dual simplex from a copy of the stored optimum of
        least x(subset), ties to the earliest; by `minimum` if subset's cold
        minimum was solved or no optimum is stored."""
        self._check_code(subset)
        start = None
        if subset not in self._minima:
            for (den, mass), tab in self._points:
                if tab is not None and (start is None or mass[subset] * best[0] < best[1][subset] * den):
                    start, best = tab, (den, mass)
        if start is None:
            return self.minimum(subset).value
        tab, n = start.copy(), self.n
        _load(tab, subset_indices(subset), n + 1, 1, range(n + 1))  # B^-1 r, and -pi(r)
        _dual(tab, self._columns)
        table, value, _, _ = _certify(tab, subset, self._columns, "warm core minimum", subset)
        self._keep(table, tab)
        return value

    def _check_code(self, subset: int) -> None:
        if not 0 <= subset < 1 << self.n:
            raise GroundMismatch(f"subset code {subset:#b} not valid over {self.n} points")

    def _optimum(self, subset: int, tab) -> CoreMinimum:
        """Certify the minimum of x(subset) an optimal tableau holds, keep its
        point with the tableau, and only then build its Fractions."""
        table, value, weights, wden = _certify(tab, subset, self._columns, "core minimum", subset)
        self._keep(table, tab)
        den, mass = table
        y = [ZERO] * len(self._columns)
        for t, w in weights.items():
            if w:
                y[t] = Fraction(w, wden)
        return CoreMinimum(value, tuple(Fraction(mass[1 << j], den) for j in range(self.n)),
                           y[0] - y[1], tuple(y[2:]))

    def has_point(self) -> bool:
        """Whether a certified point is kept or the identity's marginal vector is one."""
        return bool(self._points) or self._marginal(0) is not None

    def require_solution(self) -> None:
        """Raise CoreEmpty if unsolvable: `has_point`, else `minimum(1)`, the
        cold minimum of the first subset a lower envelope asks, which stores
        the optimum its warm minima start from."""
        if not self.has_point():
            self.minimum(1)

    def admit(self, point) -> bool:
        """Keep `point`, a weight per point, as a certified core point when it
        passes the same integer core check as `minimum`'s; True if it did."""
        if len(point) != self.n:
            raise ShapeMismatch("core point length mismatch")
        table = self._core_mass(point)
        if table is None:
            return False
        self._keep(table)
        return True

    def _keep(self, table, tab=None) -> None:
        """Keep a certified point's mass table once, with the first optimal
        tableau found at it: a point kept without one gains it in place."""
        points = self._points
        for i, (kept, held) in enumerate(points):
            if kept == table:
                if held is None and tab is not None:
                    points[i] = table, tab
                return
        points.append((table, tab))

    def attains(self, subset: int) -> bool:
        """True when some certified core point x has x(subset) = b, the
        largest bound on subset, so that min x(subset) = b; never solves.

        False only means no such point is known (or subset carries no bound):
        ask `minimum`.  Tries the certified points first, then, when every
        proper nonempty subset is bounded, `_marginal(subset)`, which joins
        the certified points once it passes the core check.
        """
        top = self._top.get(subset)
        if top is None:
            return False
        _, num, bden = top
        for (den, mass), _ in self._points:
            if mass[subset] * bden == num * den:
                return True
        table = self._marginal(subset)
        return table is not None and table[1][subset] * bden == num * table[0]

    def _marginal(self, subset: int):
        """The kept core mass table of the marginal vector of the ordering
        "subset's points ascending, then the rest", or None (outside the core,
        or no floor table): x_j = floor[S + j] - floor[S], S the points before
        j, so x(subset) = b(subset), x(X) = 1 and the check needs no Fraction.

        Every prefix {0, .., i-1} (the empty and full sets too) gives the
        identity ordering, the one ordering two subset codes share; once its
        vector fails, it is not built again."""
        floor = self._floor
        identity = not subset & (subset + 1)
        if floor is None or identity and self._identity_out:
            return None
        x, prefix = [0] * self.n, 0
        for j in sorted(range(self.n), key=lambda j: not subset >> j & 1):
            x[j] = floor[prefix | 1 << j] - floor[prefix]
            prefix |= 1 << j
        table = scaled_masses(x, floor[-1], floor=floor)
        if table is not None:
            self._keep(table)
        elif identity:
            self._identity_out = True
        return table

    def certifies(self, subset: int, best: CoreMinimum) -> bool:
        """Exact check that `best`, a certificate handed in, is optimal for
        x(subset); never solves.

        Primal side: `_core_mass`, then x(subset) = value.  Dual side, by
        `family_total`: y_A >= 0, each point's load y0 + sum_{A contains j}
        y_A at most [j in subset], and y0 + sum_A b_A y_A = value.
        """
        n, value = self.n, best.value
        if len(best.point) != n or len(best.multipliers) != len(self.masks):
            raise ShapeMismatch("core certificate length mismatch")
        table = self._core_mass(best.point)
        if table is None or table[1][subset] * value.denominator != value.numerator * table[0]:
            return False
        return family_total(n, self.masks, best.multipliers, subset, self.bounds, best.shift) == value

    def _core_mass(self, x):
        """`point_masses(x)` when x is a core point, else None: the dual
        columns, read as rows sign * x(A) >= cost, are x(X) >= 1, -x(X) >= -1
        and the bounds."""
        return point_masses(x, self._columns)

    def refutes(self, shift: Fraction, multipliers) -> bool:
        """Exact Farkas check that the system has no solution; never solves.

        Multipliers y_A >= 0 with y0 + sum_{A contains j} y_A <= 0 at every
        point but y0 + sum_A b_A y_A > 0 derive "nonpositive >= positive".
        """
        multipliers = tuple(multipliers)
        if len(multipliers) != len(self.masks):
            raise ShapeMismatch("Farkas certificate length mismatch")
        gain = family_total(self.n, self.masks, multipliers, 0, self.bounds, shift)
        return gain is not None and gain > 0

    def _raise_empty(self, tab, enter: int, col: int):
        """Read the improving ray of an unbounded dual (column `enter`, its
        B^-1 a in tableau column `col`), check it, raise CoreEmpty."""
        k = len(self.masks)
        direction = [ZERO] * (2 + k + self.n)
        direction[enter] = ONE
        for t, c in zip(tab.basis, tab.column(col)):
            if c != 0:
                direction[t] = -c
        shift = direction[0] - direction[1]
        multipliers = tuple(direction[2:2 + k])
        if not self.refutes(shift, multipliers):
            raise InternalInconsistency("empty-core ray fails its Farkas check", shift, multipliers)
        raise CoreEmpty("the core system has no solution")


def capacity_core(values) -> CoreSystem:
    """A new core system of the value table `values`: v(A) per proper nonempty A."""
    full = len(values) - 1
    check_points(full.bit_length())
    return CoreSystem(full.bit_length(), range(1, full), values[1:full])


class _Shared:
    """A value table, its integer scaling, its core system and its full-set cover."""

    __slots__ = ("values", "scaled", "system", "cover")

    def __init__(self, values):
        self.values, self.scaled, self.system, self.cover = values, None, None, None


_shared = None  # the entry of the table last asked for


def _entry(values) -> _Shared:
    """The entry of this very table object, replacing the last one's.  It
    holds its table, so no recycled id can match, and the memo is read once
    per call, so no thread switch can pair a table with another's entry."""
    global _shared
    entry = _shared
    if entry is None or entry.values is not values:
        entry = _shared = _Shared(values)
    return entry


def shared_scaled_table(values) -> tuple[int, list[int]]:
    """(L, [L * values[S] per subset code S]), L the lcm of the table's
    denominators, built once for this very table object until a call with
    another replaces it."""
    entry = _entry(values)
    if entry.scaled is None:
        scale = lcm(*(v.denominator for v in values))
        entry.scaled = scale, [v.numerator * (scale // v.denominator) for v in values]
    return entry.scaled


def shared_capacity_core(values) -> CoreSystem:
    """`capacity_core(values)`, one system for all calls with this very table
    object until a call with another replaces it."""
    entry = _entry(values)
    if entry.system is None:
        entry.system = capacity_core(values)
    return entry.system


def shared_full_cover(values) -> CoverMaximum:
    """`cover_maximum(values, full set)`, solved once for this very table
    object until a call with another replaces it."""
    entry = _entry(values)
    if entry.cover is None:
        entry.cover = cover_maximum(values, len(values) - 1)
    return entry.cover


def solved_full_cover(values) -> "CoverMaximum | None":
    """The full-set cover of `values` if it has been solved, else None."""
    return _entry(values).cover


def shared_core_nonempty(values) -> bool:
    """Whether the core of `values` is nonempty: a solved full-set cover of
    value other than 1 says no, else `require_solution` answers; an empty
    core then solves the cover, and one of value 1 is a solver bug."""
    cover = solved_full_cover(values)
    if cover is not None and cover.value != ONE:
        return False
    try:
        shared_capacity_core(values).require_solution()
        return True
    except CoreEmpty as exc:
        if shared_full_cover(values).value == ONE:
            raise InternalInconsistency("weighted-cover value 1 but the core is empty") from exc
        return False


@dataclass(frozen=True)
class CoverMaximum:
    """The weighted-cover value of a subset B with both halves of its
    certificate."""

    value: Fraction
    sets: tuple[int, ...]  # the A with lam_A > 0, in subset-code order
    weights: tuple[Fraction, ...]  # their lam_A
    point: tuple[Fraction, ...]  # a dual y, one weight per point, 0 off B


def cover_maximum(values, bound: int) -> CoverMaximum:
    """The weighted-cover LP of `bound` for the set function `values`, a
    table indexed by subset code over n points (2^n entries), on Bland's
    path from the slack basis, its singleton prefix taken in closed form.

    That path enters singleton {j} whenever v(j) > 0, in subset-code order,
    and leaves it only at the first member A with v(A) above the sum of
    max(v(j), 0) over its points.  One integer scan of the members on the
    memo's table L v (`shared_scaled_table`, so a table other than the
    memo's replaces its entry) finds that member with no tableau.  With
    none, the scan is the certificate: y_j = max(v(j), 0) is a dual point
    with y(A) >= v(A) at every member, the singletons with v(j) > 0 at
    weight 1 load no row beyond 1, and both objectives are y(B).  Else
    `_revised` starts at the path's basis there, those singletons basic, and
    its Bland loop goes on to an optimum `_certify` checks.  Either way the
    value, family, weights and dual point are those of Bland's path."""
    n = len(values).bit_length() - 1
    check_points(n)
    if not 0 < bound < 1 << n:
        raise GroundMismatch(f"subset code {bound:#b} not a nonempty subset of {n} points")
    members = _submasks(bound)
    points = subset_indices(bound)
    scale, scaled = shared_scaled_table(values)
    # sums[c] = L y(member c), the c-th submask of B, y_j = max(v(j), 0)
    sums = subset_sums([max(scaled[1 << j], 0) for j in points])
    stop = next((c for c, a in enumerate(members, 1) if scaled[a] > sums[c]), 0)
    if not stop:
        point = [ZERO] * n
        for i, j in enumerate(points):
            point[j] = Fraction(sums[1 << i], scale)
        sets = tuple(1 << j for j in points if point[j])
        return CoverMaximum(Fraction(sums[-1], scale), sets, (ONE,) * len(sets), tuple(point))
    columns = _cover_columns(values, members)
    # the singletons entered before member `stop`, each basic at its own row
    start = [(i, (1 << i) - 1) for i in range(stop.bit_length()) if sums[1 << i]]
    tab, enter, _ = _revised([1] * len(points), columns, start)
    if enter >= 0:
        raise InternalInconsistency("weighted-cover LP is always feasible and bounded")
    table, value, weights, wden = _certify(tab, (1 << len(points)) - 1, columns, "weighted cover", bound)
    den, mass = table
    point = [ZERO] * n
    for i, j in enumerate(points):
        point[j] = Fraction(mass[1 << i], den)
    used = sorted(t for t, w in weights.items() if w)
    return CoverMaximum(value, tuple(members[t] for t in used),
                        tuple(Fraction(weights[t], wden) for t in used), tuple(point))


def _cover_columns(values, members) -> list[tuple[int, int, int, int]]:
    """(t, 1, num, den) per member A, the nonempty subsets of a bound B in
    ascending order, with values[A] = num / den: lam_A loads the rows of A's
    points, and the t-th submask of B has row mask t."""
    return [(t, 1, values[a].numerator, values[a].denominator) for t, a in enumerate(members, 1)]


def cover_certifies(values, bound: int, best: CoverMaximum) -> bool:
    """Exact check that `best` is optimal for the weighted cover of `bound`;
    never solves.

    Primal side, by `family_total`: every set a nonempty subset of `bound`,
    every weight positive, and each point's load sum_{A contains j} lam_A at
    most 1.  Dual side, by `point_masses` over the points of `bound`: y >= 0
    and 0 off `bound`, and y(A) >= values[A] for every nonempty subset A of
    `bound`.  Both objectives, sum_A lam_A values[A] and y(bound), equal the
    value.  False for a bound that is no nonempty subset of the n points.
    """
    if not 0 < bound < len(values):
        return False
    n = len(values).bit_length() - 1
    value = best.value
    if len(best.sets) != len(best.weights) or len(best.point) != n:
        raise ShapeMismatch("cover certificate length mismatch")
    if any(w <= 0 for w in best.weights) or \
            any(a == 0 or a & ~bound for a in best.sets):
        return False
    if family_total(n, best.sets, best.weights, bound, map(values.__getitem__, best.sets)) != value:
        return False
    if any(q for j, q in enumerate(best.point) if not bound >> j & 1):
        return False
    table = point_masses([best.point[j] for j in subset_indices(bound)],
                         _cover_columns(values, _submasks(bound)))
    if table is None:
        return False
    den, mass = table
    return mass[-1] * value.denominator == value.numerator * den
