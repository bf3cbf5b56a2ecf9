"""Pure-Python dense simplex tableau over exact rationals.

This is the hot kernel: entering/leaving selection by Bland's rule and row
pivoting.  Cells are kept as normalized integer pairs (numerator,
denominator > 0, gcd 1); Fractions appear only at the API boundary.  The
set-system LPs of `core` keep only the basis inverse here and price their
entering column themselves; `leaving_row` is the one primal ratio test.

Every pivot loop records the bases it visits (`visit`).  There are finitely
many, so a loop that would not end repeats one, and exact Bland never does:
a repeat can only be an arithmetic fault, and it raises instead of cycling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import InternalInconsistency

OPTIMAL = 0
UNBOUNDED = 1


def visit(seen: set, basis) -> None:
    """Record `basis` (a list of column ids) in `seen`; raise
    InternalInconsistency when it was visited before."""
    key = tuple(basis)
    if key in seen:
        raise InternalInconsistency("the simplex loop revisited a basis", key)
    seen.add(key)


class Tableau:
    """m constraint rows plus one reduced-cost row, rhs in the last column."""

    __slots__ = ("m", "ncols", "nums", "dens", "basis")

    def __init__(self, matrix, basis, ncols):
        # matrix: m rows of ncols+1 Fractions (rhs last); basis: m column indices
        self.m = len(matrix)
        self.ncols = ncols
        self.nums = [[c.numerator for c in row] for row in matrix]
        self.dens = [[c.denominator for c in row] for row in matrix]
        # reduced-cost row (index m); rhs cell holds -z
        self.nums.append([0] * (self.ncols + 1))
        self.dens.append([1] * (self.ncols + 1))
        self.basis = list(basis)

    def copy(self) -> "Tableau":
        """An independent tableau with the same cells and basis."""
        tab = Tableau.__new__(type(self))
        tab.m, tab.ncols, tab.basis = self.m, self.ncols, list(self.basis)
        tab.nums, tab.dens = [r[:] for r in self.nums], [r[:] for r in self.dens]
        return tab

    def set_objective(self, costs):
        """Install reduced costs c_j - sum_i c_basis[i] * a_ij for a new phase."""
        m, ncols = self.m, self.ncols
        nums, dens = self.nums, self.dens
        cb = [(costs[self.basis[i]].numerator, costs[self.basis[i]].denominator)
              for i in range(m)]
        onums, odens = nums[m], dens[m]
        for j in range(ncols + 1):
            if j < ncols:
                an, ad = costs[j].numerator, costs[j].denominator
            else:
                an, ad = 0, 1
            for i in range(m):
                fn, fd = cb[i]
                if fn == 0:
                    continue
                pn, pd = nums[i][j], dens[i][j]
                if pn == 0:
                    continue
                # an/ad -= (fn/fd) * (pn/pd)
                n = an * fd * pd - fn * pn * ad
                d = ad * fd * pd
                if n == 0:
                    an, ad = 0, 1
                else:
                    g = gcd(n, d)
                    an, ad = n // g, d // g
            onums[j], odens[j] = an, ad

    def run(self, allowed):
        """Bland pivoting until optimal or unbounded.

        allowed: per-column 0/1 flags for entering eligibility.
        Returns (OPTIMAL, -1) or (UNBOUNDED, entering_column).
        """
        m, ncols = self.m, self.ncols
        onums = self.nums[m]
        seen = set()
        while True:
            visit(seen, self.basis)
            enter = -1
            for j in range(ncols):
                if allowed[j] and onums[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, -1
            row = self.leaving_row(enter)
            if row < 0:
                return UNBOUNDED, enter
            self.pivot(row, enter)

    def leaving_row(self, c):
        """Bland's ratio test on column c: the row of min rhs_i / a_ic over
        a_ic > 0, ties to the smallest basis id; -1 when no a_ic is positive."""
        nums, dens, basis = self.nums, self.dens, self.basis
        ncols = self.ncols
        row = -1
        bn = bd = 0  # best ratio bn/bd
        for i in range(self.m):
            an = nums[i][c]
            if an > 0:
                rn = nums[i][ncols] * dens[i][c]
                rd = dens[i][ncols] * an
                if row < 0:
                    row, bn, bd = i, rn, rd
                else:
                    cmp = rn * bd - bn * rd
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[row]):
                        row, bn, bd = i, rn, rd
        return row

    def pivot(self, r, c):
        """Row-reduce on cell (r, c); also usable for driving out artificials."""
        nums, dens = self.nums, self.dens
        ncols = self.ncols
        rn_row, rd_row = nums[r], dens[r]
        pn, pd = rn_row[c], rd_row[c]
        if pn == 0:
            raise ZeroDivisionError("pivot on a zero cell")
        if pn < 0:
            mn, md = -pd, -pn  # multiply by pd/pn keeping denominators positive
        else:
            mn, md = pd, pn
        for k in range(ncols + 1):
            xn = rn_row[k]
            if xn:
                n = xn * mn
                d = rd_row[k] * md
                if d < 0:
                    n, d = -n, -d
                g = gcd(n, d)
                rn_row[k], rd_row[k] = n // g, d // g
        rn_row[c], rd_row[c] = 1, 1
        for i in range(self.m + 1):
            if i == r:
                continue
            in_row, id_row = nums[i], dens[i]
            fn = in_row[c]
            if fn == 0:
                continue
            fd = id_row[c]
            for k in range(ncols + 1):
                pn2 = rn_row[k]
                if pn2 == 0:
                    continue
                pd2 = rd_row[k]
                xn, xd = in_row[k], id_row[k]
                # x -= (fn/fd) * (p2n/p2d)
                n = xn * fd * pd2 - fn * pn2 * xd
                if n == 0:
                    in_row[k], id_row[k] = 0, 1
                else:
                    d = xd * fd * pd2
                    g = gcd(n, d)
                    in_row[k], id_row[k] = n // g, d // g
        self.basis[r] = c

    # --- read-back (Fractions) ---

    def value(self) -> Fraction:
        m, ncols = self.m, self.ncols
        return -Fraction(self.nums[m][ncols], self.dens[m][ncols])

    def solution(self):
        x = [Fraction(0)] * self.ncols
        for i in range(self.m):
            x[self.basis[i]] = Fraction(self.nums[i][self.ncols], self.dens[i][self.ncols])
        return x

    def reduced_costs(self):
        m = self.m
        return [Fraction(self.nums[m][j], self.dens[m][j]) for j in range(self.ncols)]

    def column(self, j):
        """Constraint-row values of column j (j = ncols gives the rhs)."""
        return [Fraction(self.nums[i][j], self.dens[i][j]) for i in range(self.m)]

    def cell(self, i, j) -> Fraction:
        return Fraction(self.nums[i][j], self.dens[i][j])
