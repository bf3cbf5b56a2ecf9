import time
from fractions import Fraction as F

import pytest

from capax import classify, cli, search
from capax.capacity import Measure, new_capacity
from capax.cli import _family_text, main
from capax.credal import CredalSet
from capax.gamefiles import (
    emit_credal,
    emit_game,
    emit_map,
    emit_measure,
    parse_game,
    parse_measure,
)
from capax.ground import GroundSet, PointMap
from capax.selftest import nustar

g2, g3 = GroundSet(2), GroundSet(3)


@pytest.fixture
def nustar_file(tmp_path):
    path = tmp_path / "nustar.game"
    path.write_text(emit_game(nustar()))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_fixture_flags(self, capsys, nustar_file):
        code, out, _ = run(capsys, "classify", nustar_file)
        assert code == 0
        assert out.splitlines()[0] == \
            "convex:no exact:no totally-balanced:no balanced:yes"
        assert any(line.startswith("witness core-measure") for line in out.splitlines())

    def test_dirac_all_yes(self, capsys, tmp_path):
        path = tmp_path / "dirac.game"
        path.write_text("ground 2\nv {0} = 1\nv {1} = 0\n")
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert out.splitlines()[0] == \
            "convex:yes exact:yes totally-balanced:yes balanced:yes"

    def test_malformed_rational_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("ground 2\nv {0} = 1/0\n")
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert "line 2" in err

    def test_missing_subset_exits_3(self, capsys, tmp_path):
        path = tmp_path / "gap.game"
        path.write_text("ground 2\nv {0} = 1/2\n")
        code, _, err = run(capsys, "classify", path)
        assert code == 3
        assert "validation" in err

    def test_lenient_fills(self, capsys, tmp_path):
        path = tmp_path / "gap.game"
        path.write_text("ground 2\nv {0} = 1/2\n")
        code, out, _ = run(capsys, "classify", "--lenient", path)
        assert code == 0

    def test_machine_format(self, capsys, nustar_file):
        code, out, _ = run(capsys, "classify", "--format", "machine", nustar_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "capax-report v3"
        assert lines[2] == "flags convex=no exact=no totally-balanced=no balanced=yes"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", tmp_path / "absent.game")
        assert code == 2

    def test_directory_argument_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", tmp_path)
        assert code == 2
        assert err.startswith("cannot read input:")

    def test_binary_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.game"
        path.write_bytes(b"ground 2\n\xff\xfe\x00\x81\n")
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert err.startswith("cannot read input:") and "binary.game" in err

    @pytest.mark.parametrize("n, expected", [(9, 0), (10, 0), (11, 4)])
    def test_one_size_rule_without_an_opt_in(self, capsys, tmp_path, n, expected):
        path = tmp_path / "vacuous.game"
        path.write_text(f"ground {n}\n")
        code, out, err = run(capsys, "classify", "--lenient", path)
        assert code == expected
        if expected:
            assert err == "configuration error: the subset LPs take at most 10 points, got 11\n"
        else:
            assert out.splitlines()[0] == \
                "convex:yes exact:yes totally-balanced:yes balanced:yes"


class TestCoreCommand:
    def test_balanced_emits_a_core_measure(self, capsys, nustar_file):
        code, out, _ = run(capsys, "core", nustar_file)
        assert code == 0
        mu = parse_measure(out)
        nu = nustar()
        assert all(mu.mass(a) >= nu[a] for a in nu.ground.nonempty_subsets())

    def test_unbalanced_reports_emptiness(self, capsys, tmp_path):
        path = tmp_path / "unbal.game"
        path.write_text("ground 2\nv {0} = 9/10\nv {1} = 9/10\n")
        code, out, _ = run(capsys, "core", path)
        assert code == 0
        assert out.splitlines()[0] == "core empty"
        assert "unbalanced-family" in out

    def test_prints_the_is_balanced_witness_from_one_cover_lp(
            self, capsys, tmp_path, cover_bounds, nustar_file):
        unbalanced = tmp_path / "unbal.game"
        unbalanced.write_text("ground 2\nv {0} = 9/10\nv {1} = 9/10\n")
        for path in (nustar_file, unbalanced):
            nu = parse_game(path.read_text())
            balanced, witness = classify.is_balanced(nu)
            expected = (emit_measure(witness) if balanced else
                        f"core empty\nwitness unbalanced-family {_family_text(witness)}\n")
            cover_bounds.clear()
            code, out, _ = run(capsys, "core", path)
            assert code == 0
            assert cover_bounds == [nu.ground.full]
            # two points worth 9/10 each: the cover is their singletons, no LP
            assert cover_bounds.built == ([nu.ground.full] if balanced else [])
            assert out == expected


class TestEnvelopeCommand:
    def test_single_vertex_gives_the_measure_game(self, capsys, tmp_path):
        mu = Measure(g3, [F(1, 2), F(1, 4), F(1, 4)])
        path = tmp_path / "one.credal"
        path.write_text(emit_credal(CredalSet.from_vertices([mu])))
        code, out, _ = run(capsys, "envelope", path)
        assert code == 0
        assert parse_game(out) == mu.as_capacity()

    def test_two_vertex_values(self, capsys, tmp_path):
        alpha = CredalSet.from_vertices([
            Measure(g3, [F(1, 2), F(1, 2), 0]),
            Measure(g3, [0, F(1, 2), F(1, 2)]),
        ])
        path = tmp_path / "two.credal"
        path.write_text(emit_credal(alpha))
        code, out, _ = run(capsys, "envelope", path)
        assert code == 0
        env = parse_game(out)
        assert env[0b010] == F(1, 2) and env[0b001] == 0 and env[0b101] == F(1, 2)

    def test_unbalanced_core_of_exits_3(self, capsys, tmp_path):
        path = tmp_path / "unbal.credal"
        path.write_text("credal 2 core-of\nv {0} = 9/10\nv {1} = 9/10\n")
        code, _, err = run(capsys, "envelope", path)
        assert code == 3

    def test_core_of_bounding_the_empty_set_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty-bound.credal"
        path.write_text("credal 2 core-of\nv {} = 0\n")
        code, out, err = run(capsys, "envelope", path)
        assert code == 2
        assert out == "" and "line 2" in err and "empty set" in err

    def test_core_of_above_ten_points_exits_4(self, capsys, tmp_path):
        path = tmp_path / "wide.credal"
        path.write_text("credal 11 core-of\nv {0} = 1/2\n")
        code, out, err = run(capsys, "envelope", path)
        assert code == 4
        assert out == "" and "at most 10 points" in err

    def test_output_reparses_and_is_exact(self, capsys, tmp_path):
        from capax.classify import is_exact

        path = tmp_path / "core.credal"
        path.write_text("credal 3 core-of\nv {0,1} = 1/2\nv {2} = 1/4\n")
        code, out, _ = run(capsys, "envelope", path)
        assert code == 0
        assert is_exact(parse_game(out))[0]


class TestPushCommand:
    def test_merge(self, capsys, tmp_path):
        nu = new_capacity(g3, {m: F(m.bit_count(), 4) for m in range(1, 7)})
        game = tmp_path / "g.game"
        game.write_text(emit_game(nu))
        mp = tmp_path / "m.map"
        mp.write_text(emit_map(PointMap(g3, g2, (0, 1, 1))))
        code, out, _ = run(capsys, "push", mp, game)
        assert code == 0
        pushed = parse_game(out)
        assert pushed[0b01] == F(1, 4) and pushed[0b10] == F(1, 2)

    def test_ground_mismatch_exits_3(self, capsys, tmp_path):
        nu = new_capacity(g2, {1: F(1, 2), 2: F(1, 2)})
        game = tmp_path / "g.game"
        game.write_text(emit_game(nu))
        mp = tmp_path / "m.map"
        mp.write_text(emit_map(PointMap(g3, g2, (0, 1, 1))))
        code, _, _ = run(capsys, "push", mp, game)
        assert code == 3


class TestMonadMulCommand:
    def test_unit_gives_back_the_game(self, capsys, tmp_path):
        nu = new_capacity(g3, {m: F(m.bit_count(), 4) for m in range(1, 7)})
        path = tmp_path / "unit.second"
        # the unit at nu: nu as the one support member, the game on one point
        path.write_text("second 3 1\nsupport 0\n"
                        "v {0} = 1/4\nv {1} = 1/4\nv {2} = 1/4\n"
                        "v {0,1} = 1/2\nv {0,2} = 1/2\nv {1,2} = 1/2\n"
                        "game\n")
        code, out, _ = run(capsys, "monad-mul", path)
        assert code == 0
        assert parse_game(out) == nu

    def test_a_support_count_past_the_ground_size_rule_exits_2(self, capsys, tmp_path):
        # the count is the weight game's ground size, so it is a parse error
        path = tmp_path / "many.second"
        path.write_text("second 2 17\n")
        code, _, err = run(capsys, "monad-mul", path)
        assert code == 2
        assert "line 1" in err


class TestSearchCommand:
    def test_single_seed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--class", "exact", "--n", "3",
                           "--k", "2", "--seeds", "0..0", "--out", tmp_path / "run")
        assert code == 0
        report = (tmp_path / "run.report").read_text()
        assert report.splitlines()[0] == "capax-report v3"
        assert sum(1 for l in report.splitlines() if l.startswith("result seed=")) == 1
        assert (tmp_path / "run.log").exists()

    def test_jobs_value_does_not_change_report_bytes(self, capsys, tmp_path):
        args = ["search", "--class", "exact", "--n", "3", "--k", "2",
                "--seeds", "0..7", "--grid", "8"]
        code1, _, _ = run(capsys, *args, "--jobs", "1", "--out", tmp_path / "a")
        code2, _, _ = run(capsys, *args, "--jobs", "4", "--out", tmp_path / "b")
        assert code1 == code2 == 0
        assert (tmp_path / "a.report").read_bytes() == (tmp_path / "b.report").read_bytes()

    def test_dotted_out_prefixes_keep_every_part(self, capsys, tmp_path):
        for k in (3, 4):
            code, out, _ = run(capsys, "search", "--class", "exact", "--n", "2", "--k", k,
                               "--seeds", "0..0", "--out", tmp_path / f"n2.k{k}")
            assert code == 0
            assert f"n2.k{k}.report" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["n2.k3.log", "n2.k3.report", "n2.k4.log", "n2.k4.report"]
        assert (tmp_path / "n2.k3.report").read_text() != (tmp_path / "n2.k4.report").read_text()

    def test_unwritable_out_exits_4(self, capsys, tmp_path, monkeypatch):
        searches = []
        monkeypatch.setattr(cli, "problem1_search", searches.append)
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "run.log").mkdir()  # the report opens, the log does not
        for prefix in (blocker / "run", tmp_path / "run"):
            code, out, err = run(capsys, "search", "--class", "exact", "--n", "2", "--k", "2",
                                 "--seeds", "0..0", "--out", prefix)
            assert code == 4
            assert out == ""
            assert err.startswith("configuration error: cannot write --out")
        assert searches == []  # refused before any seed ran

    def test_out_of_range_exits_4(self, capsys):
        code, _, err = run(capsys, "search", "--class", "exact", "--n", "12",
                           "--k", "2", "--seeds", "0..0")
        assert code == 4

    def test_too_many_jobs_exits_4(self, capsys):
        code, _, err = run(capsys, "search", "--class", "exact", "--n", "3", "--k", "2",
                           "--seeds", "0..0", "--jobs", search.MAX_JOBS + 1)
        assert code == 4
        assert "jobs" in err

    def test_bad_seed_syntax_exits_4(self, capsys):
        code, _, _ = run(capsys, "search", "--class", "exact", "--n", "3",
                         "--k", "2", "--seeds", "5")
        assert code == 4

    def test_exhausted_generator_is_a_config_error(self, capsys, monkeypatch):
        # at n = 4 no random monotone draw in thousands is totally balanced
        monkeypatch.setattr(search, "_REJECTION_CAP", 20)
        code, _, err = run(capsys, "search", "--class", "totally-balanced", "--n", "4",
                           "--k", "2", "--seeds", "0..0")
        assert code == 4
        assert "configuration error" in err
        assert "solver bug" not in err

    @pytest.mark.parametrize("argv", [
        ("--class", "exact", "--n", 1, "--k", 2),
        ("--class", "totally-balanced", "--n", 2, "--k", 6, "--grid", 1),
    ], ids=["one-capacity-on-one-point", "three-members-on-grid-1"])
    def test_too_few_distinct_members_exits_4_in_bounded_time(self, capsys, argv):
        started = time.perf_counter()
        code, _, err = run(capsys, "search", *argv, "--seeds", "0..0")
        assert time.perf_counter() - started < 60  # about 2-4 s on 2 CPUs
        assert code == 4
        assert "distinct members" in err


class TestSelftestCommand:
    def test_passes_and_is_reproducible(self, capsys):
        code1, out1, _ = run(capsys, "selftest")
        code2, out2, _ = run(capsys, "selftest")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS fixture-nustar" in out1

    def test_corrupted_fixture_names_the_check(self, capsys, monkeypatch):
        import capax.selftest as st

        def broken():
            return False

        patched = tuple(("fixture-nustar", broken) if name == "fixture-nustar"
                        else (name, fn) for name, fn in st.CHECKS)
        monkeypatch.setattr(st, "CHECKS", patched)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL fixture-nustar" in out

    def test_passes_with_the_generic_lp_refusing_to_run(self, monkeypatch):
        from capax.lp import _tableau_py, solver
        from capax.selftest import run_selftest

        def refuse(*args):
            raise AssertionError("the generic LP ran")

        monkeypatch.setattr(solver, "solve", refuse)
        monkeypatch.setattr(_tableau_py.Tableau, "run", refuse)
        monkeypatch.setattr(_tableau_py.Tableau, "set_objective", refuse)
        lines = []
        assert run_selftest(lines.append), lines


class TestArgparseContract:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["classify", "--frobnicate", "x"])
        assert e.value.code == 2

    def test_round_trip_of_emitted_files(self, capsys, tmp_path, nustar_file):
        code, out, _ = run(capsys, "core", nustar_file)
        assert parse_measure(out)  # emitted measure re-parses
        nu = nustar()
        assert parse_game(emit_game(nu)) == nu
