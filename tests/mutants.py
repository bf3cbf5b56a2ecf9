"""The mutation catalogue: small faults in `src/capax` that the tests must catch.

Each entry names a file under `src/capax`, an exact text in it, the text that
replaces it, and the test node ids that must fail once it does.
`tests/run_mutants.py` applies each entry by one `str.replace` to a copy of
`src/` (the old text must occur exactly once) and runs its tests with `-x`.
An entry whose text no longer matches after a refactor is rewritten for the
new code, never dropped.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/capax
    old: str
    new: str
    tests: tuple[str, ...]


CORE = "lp/core.py"
CLASSIFY = "classify.py"
GROUND = "ground.py"
CAPACITY = "capacity.py"
CREDAL = "credal.py"
SEARCH = "search.py"

CORE_NONEMPTY = "tests/test_core_nonempty.py"
CORE_SYSTEM = "tests/test_core_system.py"
TEST_CLASSIFY = "tests/test_classify.py"
COVER_LP = "tests/test_cover_lp.py"
TEST_CREDAL = "tests/test_credal.py"
ENVELOPE = "tests/test_search.py::TestEnvelopeCertificate"

MUTANTS = (
    # --- the certificate of every LP optimum (`_certify`) ---
    Mutant("no pi check", CORE,
           "table = scaled_masses([-v * (den // d) for v, d in zip(onums, odens[:m])], den, columns)",
           "table = scaled_masses([-v * (den // d) for v, d in zip(onums, odens[:m])], den)",
           (f"{CORE_SYSTEM}::TestCertificates", f"{COVER_LP}::TestCertificates")),
    Mutant("no nonnegativity check", CORE,
           "    if table is None or any(w < 0 for w in weights.values()) or \\\n",
           "    if table is None or \\\n",
           (f"{CORE_SYSTEM}::TestWarmMinima::test_a_corrupted_warm_optimum_raises",)),
    Mutant("no load check", CORE,
           "            any(v > wden * (rhs >> j & 1) for j, v in enumerate(load)) or \\\n",
           "",
           (f"{CORE_SYSTEM}::TestWarmMinima::test_a_corrupted_warm_optimum_raises",
            f"{COVER_LP}::TestCertificates")),
    Mutant("no objective check", CORE,
           "cost * vd != vn * cden * wden or table[1][rhs] * vd != vn * table[0]:",
           "False:",
           (f"{CORE_SYSTEM}::TestCertificates", f"{COVER_LP}::TestCertificates")),
    Mutant("no primal objective", CORE,
           "cost * vd != vn * cden * wden or table[1][rhs]",
           "table[1][rhs]",
           (f"{COVER_LP}::TestCertificates::test_raises_on_a_light_primal",)),
    Mutant("no dual objective", CORE,
           " or table[1][rhs] * vd != vn * table[0]:",
           ":",
           (f"{CORE_SYSTEM}::TestCertificates", f"{COVER_LP}::TestCertificates")),
    # --- the integer point check and the floor table of marginal vectors ---
    Mutant("scaled_masses without the gcd reduction", GROUND,
           "    return (den, mass) if g == 1 else (den // g, [v // g for v in mass])",
           "    return den, mass",
           (CORE_SYSTEM, "tests/test_ground.py")),
    Mutant("scaled_masses without the sign check", GROUND,
           "    if any(v < 0 for v in ints):\n        return None\n",
           "",
           (CORE_SYSTEM, "tests/test_ground.py")),
    Mutant("scaled_masses without the floor comparison", GROUND,
           "any(map(gt, floor, mass)) or \\\n            ",
           "",
           (CORE_SYSTEM, "tests/test_ground.py")),
    Mutant("floor from the last bound per mask", CORE,
           "if a not in top or b > top[a][0]:",
           "if True:",
           (f"{CORE_SYSTEM}::TestIntegerMarginal",)),
    Mutant("floor from the first bound per mask", CORE,
           "if a not in top or b > top[a][0]:",
           "if a not in top:",
           (f"{CORE_SYSTEM}::TestIntegerMarginal",)),
    Mutant("a bound above 1 on X ignored", CORE,
           " and top.get(full, (ONE,))[0] <= 1:",
           ":",
           (f"{CORE_SYSTEM}::TestIntegerMarginal",)),
    # --- one record of certified points, each cold minimum solved once ---
    Mutant("any solved cold minimum answers (wrong cache key)", CORE,
           "best = self._minima.get(subset)",
           "best = next(iter(self._minima.values()), None)",
           (f"{CORE_SYSTEM}::TestOneRecord", CORE_NONEMPTY)),
    Mutant("a cold minimum solved again", CORE,
           "best = self._minima.get(subset)",
           "best = None",
           (f"{CORE_SYSTEM}::TestOneRecord",)),
    Mutant("a solved cold minimum restarted warm", CORE,
           "if subset not in self._minima:",
           "if True:",
           (f"{CORE_NONEMPTY}::TestRoutes::test_a_gap_at_the_first_cold_minimum",)),
    Mutant("warm start from the latest stored tableau", CORE,
           "if tab is not None and (start is None or mass[subset] * best[0] < best[1][subset] * den):",
           "if tab is not None:",
           (f"{CORE_SYSTEM}::TestWarmMinima::test_the_nearest_stored_point_starts",)),
    Mutant("the stored tableau pivoted in place", CORE,
           "tab, n = start.copy(), self.n",
           "tab, n = start, self.n",
           (f"{CORE_SYSTEM}::TestWarmMinima::test_every_stored_tableau_starts_every_minimum",)),
    Mutant("a kept point never gains its tableau", CORE,
           "                if held is None and tab is not None:\n",
           "                if False:\n",
           (f"{CORE_SYSTEM}::TestOneRecord::test_a_kept_point_gains_its_tableau_in_place",)),
    Mutant("a point kept twice", CORE,
           "            if kept == table:\n",
           "            if False:\n",
           (f"{CORE_SYSTEM}::TestIntegerMarginal::test_minimum_equal_to_a_pooled_marginal_vector_is_pooled_once",)),
    Mutant("least's ends unchecked", CORE,
           "            self.require_solution()\n            return ONE if subset else ZERO",
           "            return ONE if subset else ZERO",
           (f"{CORE_SYSTEM}::TestEmptyCore",)),
    # --- "is the core nonempty?", asked once ---
    Mutant("has_point always True", CORE,
           "return bool(self._points) or self._marginal(0) is not None",
           "return True",
           (f"{CORE_SYSTEM}::TestEmptyCore", CORE_NONEMPTY)),
    Mutant("the identity marginal vector built again after it failed", CORE,
           "if floor is None or identity and self._identity_out:",
           "if floor is None:",
           (f"{CORE_NONEMPTY}::TestRoutes::test_is_exact_builds_the_identity_marginal_vector_once",)),
    Mutant("require_solution without the marginal step", CORE,
           "return bool(self._points) or self._marginal(0) is not None",
           "return bool(self._points)",
           (f"{CORE_NONEMPTY}::TestRoutes",)),
    Mutant("require_solution back to minimum(0)", CORE,
           "            self.minimum(1)\n",
           "            self.minimum(0)\n",
           (f"{CORE_NONEMPTY}::TestRoutes",)),
    Mutant("require_solution through least(1)", CORE,
           "            self.minimum(1)\n",
           "            self.least(1)\n",
           (f"{CORE_NONEMPTY}::TestRoutes::test_core_polytope_tries_the_identity_marginal_vector_once",)),
    Mutant("the helper ignores a solved cover", CORE,
           "    if cover is not None and cover.value != ONE:\n        return False\n",
           "",
           (f"{CORE_NONEMPTY}::TestRoutes",)),
    Mutant("is_exact does not ask shared_core_nonempty", CLASSIFY,
           "    if not shared_core_nonempty(values):\n",
           "    if solved_full_cover(values) is not None and solved_full_cover(values).value != ONE:\n",
           (f"{CORE_NONEMPTY}::TestRoutes",)),
    Mutant("the full set asks shared_core_nonempty", CLASSIFY,
           "if solved_full_cover(values) is None and shared_capacity_core(values).has_point():",
           "if solved_full_cover(values) is None and shared_core_nonempty(values):",
           ("tests/test_total_balance.py",)),
    Mutant("is_balanced asks the core system first", CLASSIFY,
           "    cover = shared_full_cover(nu.values)\n    if cover.value != ONE:\n",
           "    shared_core_nonempty(nu.values)\n    cover = shared_full_cover(nu.values)\n"
           "    if cover.value != ONE:\n",
           (f"{CORE_NONEMPTY}::TestRoutes",)),
    Mutant("is_balanced reports another core point", CLASSIFY,
           "return True, Measure(nu.ground, cover.point)",
           "return True, Measure(nu.ground, shared_capacity_core(nu.values).minimum(0).point)",
           (f"{TEST_CLASSIFY}::TestBalanced",)),
    # --- classification on one integer scale ---
    Mutant("is_convex with <=", CLASSIFY,
           "if table[a | bi | bj] - table[a | bj] < gain:",
           "if table[a | bi | bj] - table[a | bj] <= gain:",
           (f"{TEST_CLASSIFY}::TestConvex::test_integer_scan_agrees_with_the_fraction_scans",)),
    Mutant("is_convex on a float-rounded table", CLASSIFY,
           "    _, table = shared_scaled_table(nu.values)\n",
           "    table = [float(v) for v in nu.values]\n",
           (f"{TEST_CLASSIFY}::TestConvex::test_integer_scan_agrees_with_the_fraction_scans",)),
    Mutant("the pair screen with <", CLASSIFY,
           "if table[low] + table[rest] <= table[subset]:",
           "if table[low] + table[rest] < table[subset]:",
           ("tests/test_total_balance.py",)),
    Mutant("the verify_report shortcut for any family", CLASSIFY,
           "return w == report.balanced_witness or w.violates(nu, nu.ground.full)",
           "return isinstance(report.balanced_witness, BalancedFamily) or w.violates(nu, nu.ground.full)",
           (f"{TEST_CLASSIFY}::TestClassifyFull",)),
    Mutant("unscaled core-measure rows", CLASSIFY,
           "rows = [(a, 1, t, scale) for a, t in enumerate(table)]",
           "rows = [(a, 1, t, 1) for a, t in enumerate(table)]",
           (TEST_CLASSIFY,)),
    Mutant("a family total equal to v(B) violates", CAPACITY,
           "return total is not None and total > table[bound_mask]",
           "return total is not None and total >= table[bound_mask]",
           ("tests/test_capacity.py::TestBalancedFamily::test_a_total_equal_to_the_bound_is_refused",)),
    # --- exact search members as integer rows ---
    Mutant("measure rows left unreduced before dedup", CAPACITY,
           "g = gcd(total, *raw)",
           "g = 1",
           (f"{TEST_CREDAL}::TestIntegerDraws",)),
    Mutant("random_credal without the dedup", CREDAL,
           "rows = list(dict.fromkeys(_measure_row(ground, rng, grid) for _ in range(count)))",
           "rows = [_measure_row(ground, rng, grid) for _ in range(count)]",
           (f"{TEST_CREDAL}::TestIntegerDraws",)),
    Mutant("vertex rows not rescaled to the common denominator", CREDAL,
           "subset_sums(ints if d == den else [v * (den // d) for v in ints])",
           "subset_sums(ints)",
           (f"{TEST_CREDAL}::TestLowerEnvelope::test_integer_envelope_is_the_fraction_minimum",)),
    Mutant("envelope core check with <=", SEARCH,
           "any(map(lt, mass, floor))",
           "any(map(le, mass, floor))",
           (f"{ENVELOPE}::test_a_vertex_equal_to_the_capacity_is_a_core_point",)),
    Mutant("envelope core check loosened by one", SEARCH,
           "any(map(lt, mass, floor))",
           "any(m + 1 < f for m, f in zip(mass, floor))",
           (f"{ENVELOPE}::test_rejects_a_vertex_one_unit_below",)),
    Mutant("envelope without the every-subset-attained check", SEARCH,
           "return all(map(le, map(min, zip(*masses)), floor))",
           "return True",
           (f"{ENVELOPE}::test_rejects_a_dropped_vertex", f"{ENVELOPE}::test_no_marginal_vector_fills_a_gap")),
    Mutant("envelope without the sums-to-denominator check", SEARCH,
           "if mass[-1] != den or any(",
           "if any(",
           (f"{ENVELOPE}::test_rejects_a_vertex_of_mass_above_one",)),
)
