"""Two-phase primal simplex over exact rationals with Bland's rule.

No scaling, no tolerances, no floating point: every comparison is exact, so
Bland's rule gives unconditional termination.  Every returned outcome carries
a certificate and is checked by `verify_outcome` before leaving this module;
a failed check raises `InternalInconsistency` (a solver bug, never data).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InternalInconsistency
from ..ground import ONE, ZERO
from . import _tableau_py
from .model import (
    EQ,
    FREE,
    GE,
    INFEASIBLE,
    LE,
    MAX_SENSE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    canonical_relations,
    dual_of,
    verify_outcome,
)

_MINUS_ONE = Fraction(-1)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve an exact LP; returns optimal/infeasible/unbounded with certificate."""
    n, m = lp.num_vars, lp.num_rows
    if n == 0:
        raise ValueError("LP needs at least one variable")

    maximizing = lp.sense == MAX_SENSE
    obj = list(lp.objective) if maximizing else [-c for c in lp.objective]

    # variable split: nonneg -> one column, free -> plus/minus pair
    col_of = []      # var -> positive column
    neg_col_of = []  # var -> negative column or -1
    cols = 0
    for kind in lp.var_kinds:
        col_of.append(cols)
        cols += 1
        if kind == FREE:
            neg_col_of.append(cols)
            cols += 1
        else:
            neg_col_of.append(-1)
    nstruct = cols

    # row normalization: rhs >= 0, and prefer <= at rhs 0 so slacks start basic
    int_rows = []  # (coeffs list over structural cols, rel, rhs, flip)
    for row in lp.rows:
        coeffs = [ZERO] * nstruct
        for j, c in enumerate(row.coeffs):
            if c:
                coeffs[col_of[j]] = c
                if neg_col_of[j] >= 0:
                    coeffs[neg_col_of[j]] = -c
        rel, rhs, flip = row.rel, row.rhs, 1
        if rhs < 0 or (rhs == 0 and rel == GE):
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flip = -1
        int_rows.append((coeffs, rel, rhs, flip))

    slack_col = [-1] * m
    art_col = [-1] * m
    for i, (_, rel, _, _) in enumerate(int_rows):
        if rel == LE:
            slack_col[i] = cols
            cols += 1
        elif rel == GE:
            slack_col[i] = cols  # surplus, coefficient -1
            cols += 1
    for i, (_, rel, _, _) in enumerate(int_rows):
        if rel != LE:
            art_col[i] = cols
            cols += 1

    matrix = []
    basis = []
    for i, (coeffs, rel, rhs, _) in enumerate(int_rows):
        full = coeffs + [ZERO] * (cols - nstruct) + [rhs]
        if rel == LE:
            full[slack_col[i]] = ONE
            basis.append(slack_col[i])
        else:
            if rel == GE:
                full[slack_col[i]] = -ONE
            full[art_col[i]] = ONE
            basis.append(art_col[i])
        matrix.append(full)
    init_col = [art_col[i] if art_col[i] >= 0 else slack_col[i] for i in range(m)]

    tab = _tableau_py.Tableau(matrix, basis, cols)
    artificials = {a for a in art_col if a >= 0}
    allowed_all = [1] * cols
    allowed_real = [0 if c in artificials else 1 for c in range(cols)]
    has_artificials = bool(artificials)

    if has_artificials:
        phase1 = [ZERO] * cols
        for a in art_col:
            if a >= 0:
                phase1[a] = _MINUS_ONE
        tab.set_objective(phase1)
        status, _ = tab.run(allowed_all)
        if status != _tableau_py.OPTIMAL:
            raise InternalInconsistency("phase-1 objective is bounded by construction")
        if tab.value() != 0:
            reduced = tab.reduced_costs()
            farkas = []
            for i in range(m):
                c1 = _MINUS_ONE if art_col[i] >= 0 else ZERO
                y1 = c1 - reduced[init_col[i]]
                rho = -y1 * int_rows[i][3]
                lam = -rho if lp.rows[i].rel == LE else rho
                farkas.append(lam)
            return _checked(lp, LpOutcome(INFEASIBLE, farkas=tuple(farkas)))
        # drive artificials out of the basis where possible; rows that cannot
        # release one are redundant and stay inert (all-zero on real columns)
        for i in range(m):
            if tab.basis[i] in artificials:
                for j in range(cols):
                    if allowed_real[j] and tab.cell(i, j) != 0:
                        tab.pivot(i, j)
                        break

    phase2 = [ZERO] * cols
    for j, kind in enumerate(lp.var_kinds):
        phase2[col_of[j]] = obj[j]
        if neg_col_of[j] >= 0:
            phase2[neg_col_of[j]] = -obj[j]
    tab.set_objective(phase2)
    status, enter = tab.run(allowed_real)

    if status == _tableau_py.UNBOUNDED:
        sol = tab.solution()
        point = _to_original(sol, col_of, neg_col_of)
        direction = [ZERO] * cols
        direction[enter] = ONE
        col = tab.column(enter)
        for i in range(m):
            if col[i] != 0:
                direction[tab.basis[i]] = -col[i]
        ray = _to_original(direction, col_of, neg_col_of)
        return _checked(lp, LpOutcome(UNBOUNDED, ray_point=tuple(point),
                                      ray_direction=tuple(ray)))

    sol = tab.solution()
    primal = _to_original(sol, col_of, neg_col_of)
    value = tab.value()
    reduced = tab.reduced_costs()
    dual = []
    for i in range(m):
        y_int = -reduced[init_col[i]]  # phase-2 cost of slack/artificial is 0
        y = y_int * int_rows[i][3]
        dual.append(y if maximizing else -y)
    if not maximizing:
        value = -value
    return _checked(lp, LpOutcome(OPTIMAL, value=value, primal=tuple(primal),
                                  dual=tuple(dual)))


def _to_original(xcols, col_of, neg_col_of):
    out = []
    for p, q in zip(col_of, neg_col_of):
        v = xcols[p]
        if q >= 0:
            v = v - xcols[q]
        out.append(v)
    return out


def _checked(lp: LinearProgram, outcome: LpOutcome) -> LpOutcome:
    if not verify_outcome(lp, outcome):
        raise InternalInconsistency(
            f"solver produced a {outcome.status} outcome whose certificate fails", outcome
        )
    return outcome


def solve_dualized(lp: LinearProgram) -> LpOutcome:
    """Solve an LP through its dual: useful when the dual has far fewer rows.

    Requires the dual to be feasible (true whenever the primal is bounded in
    any feasible direction; all call sites here minimize nonnegative masses).
    Primal infeasibility surfaces as dual unboundedness and is translated to
    a Farkas certificate.
    """
    _, flips = canonical_relations(lp)
    dual = dual_of(lp)
    out = solve(dual)
    if out.status == OPTIMAL:
        primal = out.dual
        dual_vals = tuple(f * y for f, y in zip(flips, out.primal))
        translated = LpOutcome(OPTIMAL, value=out.value, primal=primal, dual=dual_vals)
    elif out.status == UNBOUNDED:
        lam = []
        for f, r, row in zip(flips, out.ray_direction, lp.rows):
            lam.append(f * r if row.rel == EQ else r)
        translated = LpOutcome(INFEASIBLE, farkas=tuple(lam))
    else:
        raise InternalInconsistency(
            "dual instance is infeasible; solve_dualized requires a feasible dual"
        )
    return _checked(lp, translated)
