"""Independent oracles used by the tests.

Kept deliberately separate from the package: the all-pairs supermodularity
scan (the definition `is_convex` shortcuts), brute-force vertex enumeration
of core polytopes (no LP), the candidate-scan computation of the monad
multiplication, the nonemptiness of the core by the generic two-phase
`solve` of its feasibility program (the route balancedness took through
report v1), the core minimum through the general LP layer
(`solve_dualized` of an explicitly built program, as capax computed it before
`CoreSystem`), total balancedness by one weighted-cover LP per subset (as
capax decided it before certificates settled subsets), `random_monotone`
drawn as Fractions, as capax drew it before it drew grid numerators, and the
lower envelope of a vertex list by Fraction sums per vertex and subset, as
capax computed it before integer mass tables, `random_credal` from validated
Fraction measures and the envelope certificate on a new core system, as capax
ran both before integer rows, the search's support deduplicated by `Capacity`
equality, as capax kept it before integer-table keys, the superadditivity screen
over a whole grid table and the monad multiplication's Fraction breakpoint
walk, as capax ran both before the fused draw and the integer walk, and the
core minimum and weighted cover on the dense tableau of every column, as
capax pivoted them before the revised loop, and the marginal vectors of a
core system by Fraction differences, as capax built them before the
integer floor table.  These
re-derive the quantities the package
computes through simplex pivots or breakpoint walks, by slower but
structurally unrelated means.  Then the seeded tables and explicit core
systems that the kernel tests feed to both sides.  Last, every certificate
check by Fraction sums per point and per subset, as capax ran them before
the shared integer load and mass checks of `capax.ground`.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from capax import search
from capax.capacity import BalancedFamily, Capacity, Measure, random_convex_mixture, random_monotone
from capax.classify import ConvexityViolation, ExactnessGap, TotalBalanceFailure, _core_min_lp
from capax.credal import CredalSet, lower_envelope, random_credal
from capax.errors import InternalInconsistency
from capax.lp import CoreMinimum, CoreSystem, CoverMaximum, cover_maximum
from capax.lp import _tableau_py
from capax.lp.core import capacity_core, check_points
from capax.lp.model import EQ, GE, INFEASIBLE, NONNEG, OPTIMAL, LinearProgram, Row
from capax.lp.solver import solve, solve_dualized
from capax.monad import SecondOrderCapacity
from capax.ground import ONE, ZERO, GroundSet, subset_indices
from capax.rng import SplitMix64


def convex_all_pairs(nu: Capacity):
    """Supermodularity by its definition: v(A|B) + v(A&B) >= v(A) + v(B) over
    all pairs (A, B); returns (True, None) or (False, the first violating pair)."""
    values = nu.values
    for a in nu.ground.subsets():
        for b in nu.ground.subsets():
            if values[a | b] + values[a & b] < values[a] + values[b]:
                return False, ConvexityViolation(a, b)
    return True, None


def convex_local_pairs(nu: Capacity):
    """The local supermodularity scan in Fractions: v(A+{i,j}) + v(A) >=
    v(A+{i}) + v(A+{j}) over all A and pairs i < j outside A, in that order;
    returns (True, None) or (False, the first violating pair)."""
    values = nu.values
    n = nu.ground.n
    for a in nu.ground.subsets():
        for i in range(n):
            for j in range(i + 1, n):
                bi, bj = 1 << i, 1 << j
                if not a & (bi | bj) and \
                        values[a | bi | bj] + values[a] < values[a | bi] + values[a | bj]:
                    return False, ConvexityViolation(a | bi, a | bj)
    return True, None


def integer_solve(rows, n):
    """Solve an n x n integer system given as rows [a_0 .. a_{n-1} | b] by
    fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor, so each division is exact.  Returns (nums, d) with
    x_i = nums[i] / d and d > 0, or None if the system is singular."""
    a = [row[:] for row in rows]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(v * p[col] - f * w) // previous for v, w in zip(a[r], p)]
        previous = p[col]
    sign = 1 if previous > 0 else -1
    return [sign * a[r][n] for r in range(n)], sign * previous


def core_vertices(nu: Capacity):
    """All vertices of the core polytope by enumerating tight constraint sets.

    A vertex solves x(X) = 1 and x(A) = nu(A) for n - 1 proper subsets A.  The
    rows x_i >= 0 are left out: the singleton rows x_i >= nu({i}) >= 0 imply
    them, so the polytope is the same.  Each pick is solved in integers over
    the common denominator of nu, and checked against every row in integers.
    """
    n = nu.ground.n
    den = lcm(*(v.denominator for v in nu.values))
    bound = {a: nu[a].numerator * (den // nu[a].denominator)
             for a in nu.ground.proper_nonempty_subsets()}
    vertices = []
    for picks in combinations(bound, n - 1):
        rows = [[a >> i & 1 for i in range(n)] + [bound.get(a, den)]
                for a in (nu.ground.full, *picks)]
        solved = integer_solve(rows, n)
        if solved is None:
            continue
        nums, d = solved
        mass = [0] * (1 << n)  # mass[a] = d * den * x(A)
        for a in range(1, 1 << n):
            low = a & -a
            mass[a] = mass[a ^ low] + nums[low.bit_length() - 1]
        if any(mass[a] < b * d for a, b in bound.items()):
            continue
        x = [Fraction(v, d * den) for v in nums]
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


def mul_fraction_walk(c2) -> Capacity:
    """Monad multiplication by the ascending Fraction breakpoint walk: over
    the distinct positive support values v at F, t = min(v, game value of the
    superlevel set) qualifies above the previous v; the best t wins.  Values
    are the inputs' own objects (v as the set keeps the first equal one)."""
    ground, support, game = c2.ground, c2.support, c2.game
    values = [ZERO] * ground.table_size
    for mask in ground.nonempty_subsets():
        vals = [nu[mask] for nu in support]
        best = prev = ZERO
        for v in sorted({x for x in vals if x > 0}):
            idx = sum(1 << i for i, x in enumerate(vals) if x >= v)
            cap = game[idx]
            top = v if v < cap else cap
            if top > prev and top > best:
                best = top
            prev = v
        values[mask] = best
    return Capacity(ground, values)


def superadditive(values) -> bool:
    """values[a] + values[b] <= values[a | b] for all disjoint nonempty a, b,
    over a whole table indexed by subset code; every totally balanced table
    passes."""
    full = len(values) - 1
    for a in range(1, full):
        rest = full ^ a
        b = rest
        while b > a:  # submasks of rest, descending: each unordered pair once
            if values[a] + values[b] > values[a | b]:
                return False
            b = (b - 1) & rest
    return True


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
    out = solve_dualized(core_lp(n, masks, bounds, subset, sense))
    if out.status == INFEASIBLE:
        return None
    return out.value, out.primal, out.dual[0], out.dual[1:]


def core_lp_feasible(nu: Capacity):
    """Direct feasibility of {mu >= 0, mu(X) = 1, mu(A) >= v(A)} by the generic `solve`.

    Returns (True, core Measure) or (False, violating BalancedFamily built
    from the Farkas certificate): the general-LP route that `is_balanced`'s
    weighted cover is tested against.  At the 10-point cap it is slow: 19-23 s
    on `dirac(0, GroundSet(10))` against 0.0007 s for `is_balanced` (Python
    3.11, one core of a shared 2-CPU machine).
    """
    check_points(nu.ground.n)
    out = solve(_core_min_lp(nu, 0))
    if out.status == OPTIMAL:
        return True, Measure(nu.ground, out.primal)
    if out.status != INFEASIBLE:
        raise InternalInconsistency("core system cannot be unbounded under min 0")
    lam0 = out.farkas[0]
    if lam0 >= 0:
        raise InternalInconsistency("Farkas certificate of the core system needs a negative mass multiplier")
    sets, weights = [], []
    for a, lam in zip(nu.ground.proper_nonempty_subsets(), out.farkas[1:]):
        if lam != 0:
            sets.append(a)
            weights.append(lam / -lam0)
    return False, BalancedFamily(tuple(sets), tuple(weights))


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


def totally_balanced_every_subset(nu: Capacity):
    """`is_totally_balanced` by one `cover_maximum` per nonempty subset in
    code order; the first subset whose cover value exceeds v(B) fails."""
    for subset in nu.ground.nonempty_subsets():
        best = cover_maximum(nu.values, subset)
        if best.value != nu[subset]:
            return False, TotalBalanceFailure(subset, BalancedFamily(best.sets, best.weights))
    return True, None


def random_monotone_fractions(ground, seed: int, grid: int) -> list[Fraction]:
    """The table of `random_monotone(ground, seed, grid)`: one draw k/grid per
    nonempty proper subset in ascending code order from the same splitmix64
    stream, the full set 1, then v(A) = the largest raw value over all
    subsets of A, by brute force."""
    rng = SplitMix64(seed)
    raw = [Fraction(0)] * ground.table_size
    for mask in ground.proper_nonempty_subsets():
        raw[mask] = Fraction(rng.next_u64() % (grid + 1), grid)
    raw[ground.full] = Fraction(1)
    return [max(raw[s] for s in ground.subsets() if s & ~mask == 0)
            for mask in ground.subsets()]


def vertex_envelope(ground, vertices) -> list[Fraction]:
    """The lower envelope of a vertex list: min mu(A) over the vertices for
    every subset A, each mass a Fraction sum of the point weights."""
    return [min(mu.mass(a) for mu in vertices) for a in ground.subsets()]


def fraction_random_credal(ground, rng, max_vertices: int, grid: int) -> CredalSet:
    """`random_credal` as capax drew it before integer rows: the same
    splitmix64 draws, each measure built by the public, validating `Measure`
    from the Fractions raw / total, and deduplicated by `Measure` equality
    in first-seen order."""
    count = 1 + rng.next_below(max_vertices)
    measures = []
    for _ in range(count):
        raw = [0]
        while not sum(raw):
            raw = [rng.next_below(grid + 1) for _ in ground.points()]
        measures.append(Measure(ground, [Fraction(r, sum(raw)) for r in raw]))
    return CredalSet.from_vertices(dict.fromkeys(measures))


def capacity_keyed_second_order(config, seed: int):
    """`search.build_second_order` as capax built it before members were told
    apart by their integer tables: the same `_generate_member` draws, each
    kept unless a `Capacity` equal to it (its hash over the 2^n Fractions)
    was kept before, in first-seen order.  Returns the second-order capacity
    and the number of support draws."""
    ground, base, support, draws = GroundSet(config.n), SplitMix64(seed), {}, 0
    while len(support) < config.support_size:
        member, _ = search._generate_member(ground, config.target_class,
                                            SplitMix64(base.next_u64()), config.grid)
        support.setdefault(member, None)
        draws += 1
    game, _ = search._generate_member(GroundSet(config.support_size), config.target_class,
                                      SplitMix64(base.next_u64()), config.grid)
    return SecondOrderCapacity(ground, tuple(support), game), draws


def core_system_envelope_certifies(nu: Capacity, vertices, marginals: bool = True) -> bool:
    """`search._envelope_certifies` as capax checked it before the integer
    pass: each vertex admitted to a new core system of nu (`admit`), then
    every proper nonempty subset attained (`attains`).  `attains` also builds
    the system's marginal vectors, core points that are not vertices, so this
    route accepts a vertex list whose envelope lies above nu wherever such a
    vector fills the gap.  With `marginals=False` the system has no floor
    table, so only the vertices count, as in the integer pass."""
    system = capacity_core(nu.values)
    if not marginals:
        system._floor = None
    return all(system.admit(mu.weights) for mu in vertices) and \
        all(system.attains(a) for a in nu.ground.proper_nonempty_subsets())


def _dense_tableau(rows, rhs, costs):
    """max costs . z over z >= 0 with rows . z <= rhs (rhs >= 0): every column
    in one tableau, a slack appended per row and basic, the objective installed."""
    m = len(rows)
    width = len(costs)
    matrix = [[*row, *(int(i == j) for i in range(m)), r]
              for j, (row, r) in enumerate(zip(rows, rhs))]
    tab = _tableau_py.Tableau(matrix, range(width, width + m), width + m)
    tab.set_objective([*costs, *(ZERO,) * m])
    return tab


def dense_core_minimum(system, subset: int):
    """`system.minimum(subset)` on the dense tableau of its dual (columns y0+,
    y0-, the y_A in mask order, then the slacks), with no certificate check.
    Returns a CoreMinimum, or the (shift, multipliers) of the improving ray
    when the dual is unbounded (an empty core)."""
    n, k = system.n, len(system.masks)
    rows = [[1, -1, *(a >> j & 1 for a in system.masks)] for j in range(n)]
    tab = _dense_tableau(rows, [subset >> j & 1 for j in range(n)],
                         [ONE, -ONE, *system.bounds])
    status, enter = tab.run([1] * tab.ncols)
    if status == _tableau_py.UNBOUNDED:
        direction = [ZERO] * tab.ncols
        direction[enter] = ONE
        for i, c in enumerate(tab.column(enter)):
            if c != 0:
                direction[tab.basis[i]] = -c
        return direction[0] - direction[1], tuple(direction[2:2 + k])
    sol = tab.solution()
    reduced = tab.reduced_costs()
    return CoreMinimum(value=tab.value(), point=tuple(-reduced[2 + k + j] for j in range(n)),
                       shift=sol[0] - sol[1], multipliers=tuple(sol[2:2 + k]))


def dense_cover_maximum(values, bound: int) -> CoverMaximum:
    """`cover_maximum(values, bound)` on the dense tableau (the lam_A in
    subset-code order, then the slacks), with no certificate check."""
    n = len(values).bit_length() - 1
    members = [a for a in range(1, bound + 1) if a & bound == a]
    points = subset_indices(bound)
    tab = _dense_tableau([[a >> j & 1 for a in members] for j in points],
                         [1] * len(points), [values[a] for a in members])
    status, _ = tab.run([1] * tab.ncols)
    assert status == _tableau_py.OPTIMAL
    k = len(members)
    lam = tab.solution()[:k]
    reduced = tab.reduced_costs()
    point = [ZERO] * n
    for i, j in enumerate(points):
        point[j] = -reduced[k + i]
    return CoverMaximum(value=tab.value(), sets=tuple(a for a, w in zip(members, lam) if w),
                        weights=tuple(w for w in lam if w), point=tuple(point))


def singleton_path(values, bound: int) -> tuple[int, int]:
    """(prefix, stop): Bland's rule on the weighted cover of `bound` from the
    slack basis, walked in Fractions.  Its dual point starts at y = 0; the
    walk goes through the nonempty subsets A of `bound` in subset-code order,
    entering {j} (one pivot, y_j = v(j)) when v(j) > 0, and stops at the
    first A with v(A) > y(A), the first column that is no singleton to enter.
    `prefix` counts the singletons entered before it, `stop` is that A, or 0
    when the walk ends at an optimum with no other column entered."""
    y = [ZERO] * (len(values).bit_length() - 1)
    prefix = 0
    for a in range(1, bound + 1):
        if a & bound != a:
            continue
        points = subset_indices(a)
        if len(points) == 1 and values[a] > 0:
            y[points[0]] = values[a]
            prefix += 1
        elif values[a] > sum(y[j] for j in points):
            return prefix, a
    return prefix, 0


def fraction_marginal(system: CoreSystem, subset: int) -> list[Fraction]:
    """x_j = b(S + j) - b(S) along the ordering "subset's points ascending,
    then the rest", S the points before j, b(A) the largest bound on A, with
    b(empty) = 0 and b(X) = 1; so x(subset) = b(subset).  Every proper
    nonempty subset of the system must carry a bound."""
    n = system.n
    full = (1 << n) - 1
    order = [j for j in range(n) if subset >> j & 1] + \
            [j for j in range(n) if not subset >> j & 1]
    x = [ZERO] * n
    prefix, before = 0, ZERO
    for j in order:
        prefix |= 1 << j
        after = ONE if prefix == full else \
            max(b for a, b in zip(system.masks, system.bounds) if a == prefix)
        x[j] = after - before
        before = after
    return x


def capacity_tables(n, rng):
    """A random monotone (at n >= 4 mostly with an empty core), a convex and
    an exact table on n points."""
    g = GroundSet(n)
    tables = [random_monotone(g, rng.next_u64(), 6).values,
              random_convex_mixture(g, rng.next_u64(), 6).values]
    if n >= 2:
        tables.append(lower_envelope(random_credal(g, rng, n + 1, 8)).values)
    return tables


def explicit_system(n, rng):
    """Random masks in random order, some repeated with other bounds, each
    bound k / (8 |A|) for k in 0..8: often solvable, sometimes empty."""
    full = (1 << n) - 1
    masks, bounds = [], []
    for _ in range(rng.next_below(2 << n) + 1):
        a = rng.next_below(full) + 1
        masks.append(a)
        bounds.append(Fraction(rng.next_below(9), 8 * bin(a).count("1")))
    return CoreSystem(n, masks, bounds)


# --- certificate checks by Fraction sums --------------------------------------
# A set or subset code off the ground set is refused first; the checks they
# replace raised IndexError on some of those.


def _on_ground(n, masks) -> bool:
    return all(0 <= a < 1 << n for a in masks)


def _mass(x, mask):
    return sum((q for j, q in enumerate(x) if mask >> j & 1), ZERO)


def fraction_loads_fit(n, family, cap, shift=ZERO) -> bool:
    """Every weight of the (set, weight) pairs >= 0, and each point's load,
    shift + the weights of the sets that contain it, at most [j in cap]."""
    if any(w < 0 for _, w in family):
        return False
    return all(shift + sum((w for a, w in family if a >> j & 1), ZERO) <= (cap >> j & 1)
               for j in range(n))


def fraction_admissible(family: BalancedFamily, bound: int, ground) -> bool:
    """`BalancedFamily.is_admissible_within`."""
    pairs = list(zip(family.sets, family.weights))
    return (ground.contains_subset(bound) and _on_ground(ground.n, family.sets)
            and not any(a & ~bound for a in family.sets)
            and fraction_loads_fit(ground.n, pairs, bound))


def fraction_violates(family: BalancedFamily, nu: Capacity, bound: int) -> bool:
    """`BalancedFamily.violates`."""
    return (fraction_admissible(family, bound, nu.ground)
            and sum((w * nu[a] for a, w in zip(family.sets, family.weights)), ZERO) > nu[bound])


def fraction_gap_verifies(gap: ExactnessGap, nu: Capacity) -> bool:
    """`ExactnessGap.verify`."""
    n = nu.ground.n
    if not nu.ground.contains_subset(gap.subset) or not _on_ground(n, [a for a, _ in gap.coeffs]):
        return False
    if not fraction_loads_fit(n, gap.coeffs, gap.subset, gap.shift):
        return False
    attained = gap.shift + sum((w * nu[a] for a, w in gap.coeffs), ZERO)
    return attained == gap.bound and gap.bound > nu[gap.subset]


def fraction_core_witness(mu, nu: Capacity) -> bool:
    """`verify_report`'s check of a core witness: mu(A) >= nu(A) for every A."""
    return all(mu.mass(a) >= nu[a] for a in nu.ground.nonempty_subsets())


def fraction_core_point(system: CoreSystem, x) -> bool:
    """`CoreSystem.admit`: x >= 0, x(X) = 1 and every bound of the system holds."""
    return (all(q >= 0 for q in x) and sum(x, ZERO) == ONE
            and all(_mass(x, a) >= b for a, b in zip(system.masks, system.bounds)))


def fraction_core_certifies(system: CoreSystem, subset: int, best: CoreMinimum) -> bool:
    """`CoreSystem.certifies`: the point is in the core with x(subset) =
    value, the multipliers load no point beyond [j in subset], and y0 +
    sum_A b_A y_A = value."""
    family = list(zip(system.masks, best.multipliers))
    return (fraction_core_point(system, best.point) and _mass(best.point, subset) == best.value
            and fraction_loads_fit(system.n, family, subset, best.shift)
            and best.shift + sum((w * b for w, b in zip(best.multipliers, system.bounds)), ZERO)
            == best.value)


def fraction_refutes(system: CoreSystem, shift, multipliers) -> bool:
    """`CoreSystem.refutes`: no point loaded above 0, yet a positive total."""
    family = list(zip(system.masks, multipliers))
    return (fraction_loads_fit(system.n, family, 0, shift)
            and shift + sum((w * b for w, b in zip(multipliers, system.bounds)), ZERO) > 0)


def fraction_cover_certifies(values, bound: int, best: CoverMaximum) -> bool:
    """`cover_certifies`: positive weights on nonempty subsets of the bound
    that load no point beyond 1, a dual y >= 0, 0 off the bound, with y(A) >=
    values[A] for every nonempty A inside it, and both objectives the value."""
    n = len(values).bit_length() - 1
    family = list(zip(best.sets, best.weights))
    y = best.point
    return (all(w > 0 for w in best.weights) and all(a and not a & ~bound for a in best.sets)
            and fraction_loads_fit(n, family, bound)
            and sum((w * values[a] for a, w in family), ZERO) == best.value
            and all(q >= 0 for q in y) and not any(q for j, q in enumerate(y) if not bound >> j & 1)
            and _mass(y, bound) == best.value
            and all(_mass(y, a) >= values[a] for a in range(1, bound + 1) if a & ~bound == 0))


def shift_cell(tab, i, j, q):
    """Add the Fraction q to cell (i, j) of a kernel tableau, in lowest terms."""
    x = Fraction(tab.nums[i][j], tab.dens[i][j]) + q
    tab.nums[i][j], tab.dens[i][j] = x.numerator, x.denominator
