"""Independent oracles used by the tests.

Kept deliberately separate from the package: brute-force vertex enumeration
of core polytopes (no LP), the candidate-scan computation of the monad
multiplication, and the core minimum through the general LP layer
(`solve_dualized` of an explicitly built program, as capax computed it before
`CoreSystem`).  These re-derive the quantities the package computes through
simplex pivots or breakpoint walks, by slower but structurally unrelated
means.
"""

from fractions import Fraction
from itertools import combinations

from capax.capacity import Capacity
from capax.classify import ExactnessGap
from capax.lp import EQ, GE, INFEASIBLE, NONNEG, LinearProgram, Row, solve_dualized


def gauss_solve(rows, n):
    """Solve an n x n rational system given as rows [a_0 .. a_{n-1} | b]."""
    a = [row[:] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def core_vertices(nu: Capacity):
    """All vertices of the core polytope by enumerating tight constraint sets."""
    n = nu.ground.n
    constraints = []
    for mask in nu.ground.proper_nonempty_subsets():
        coeffs = [Fraction(1) if mask >> i & 1 else Fraction(0) for i in range(n)]
        constraints.append((coeffs, nu[mask]))
    for i in range(n):
        coeffs = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        constraints.append((coeffs, Fraction(0)))
    mass_row = ([Fraction(1)] * n, Fraction(1))
    vertices = []
    for picks in combinations(constraints, n - 1):
        rows = [list(mass_row[0]) + [mass_row[1]]]
        rows.extend(list(c) + [r] for c, r in picks)
        x = gauss_solve(rows, n)
        if x is None or any(xi < 0 for xi in x):
            continue
        if any(sum(c * xi for c, xi in zip(coeffs, x)) < rhs
               for coeffs, rhs in constraints):
            continue
        if x not in vertices:
            vertices.append(x)
    return vertices


def brute_min_core(nu: Capacity, mask: int):
    """Minimum of mu(mask) over the core via vertex enumeration; None if empty."""
    vertices = core_vertices(nu)
    if not vertices:
        return None
    n = nu.ground.n
    return min(sum(v[i] for i in range(n) if mask >> i & 1) for v in vertices)


def mul_candidate_scan(c2) -> Capacity:
    """Monad multiplication by scanning the finite candidate set
    {0} | {support values at F} | {all weight-game values} and keeping the
    best t with game(superlevel(t)) >= t.  The candidate set provably
    contains the supremum: on each interval between consecutive support
    values the best qualifying t is either the interval top (a support
    value) or the game value of the superlevel set."""
    ground = c2.ground
    values = [Fraction(0)] * ground.table_size
    for mask in ground.nonempty_subsets():
        vals = [nu[mask] for nu in c2.support]
        candidates = {Fraction(0)} | set(vals) | set(c2.game.values)
        best = Fraction(0)
        for t in candidates:
            if not 0 <= t <= 1:
                continue
            idx = 0
            for i, v in enumerate(vals):
                if v >= t:
                    idx |= 1 << i
            if c2.game[idx] >= t and t > best:
                best = t
        values[mask] = best
    return Capacity(ground, values)


def core_lp(n, masks, bounds, subset, sense="min") -> LinearProgram:
    """min (or max) x(subset) over {x >= 0, x(X) = 1, x(A) >= b_A} as a general LP."""
    def char(mask):
        return tuple(Fraction(mask >> i & 1) for i in range(n))

    rows = [Row((Fraction(1),) * n, EQ, Fraction(1))]
    rows.extend(Row(char(a), GE, b) for a, b in zip(masks, bounds))
    return LinearProgram(sense, char(subset), tuple(rows), (NONNEG,) * n)


def dualized_core_min(n, masks, bounds, subset, sense="min"):
    """(value, x, y0, y_A) of the core LP through `solve_dualized`; None if the
    core is empty.  y0 and y_A are the multipliers of x(X) = 1 and of the
    mask rows, in mask order."""
    out = solve_dualized(core_lp(n, masks, bounds, subset, sense), max_cells=None)
    if out.status == INFEASIBLE:
        return None
    return out.value, out.primal, out.dual[0], out.dual[1:]


def reference_is_exact(nu: Capacity):
    """`is_exact` of a balanced capacity by one `solve_dualized` per subset."""
    masks = list(nu.ground.proper_nonempty_subsets())
    bounds = [nu[a] for a in masks]
    for subset in masks:
        value, _, shift, ys = dualized_core_min(nu.ground.n, masks, bounds, subset)
        if value != nu[subset]:
            coeffs = tuple((a, w) for a, w in zip(masks, ys) if w != 0)
            return False, ExactnessGap(subset, value, shift, coeffs)
    return True, None
