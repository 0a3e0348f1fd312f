"""Command-line surface: records, exit codes, file round trips."""

import time
from types import SimpleNamespace

import pytest

from ahj.bounds import layer_recursion_bounds
from ahj.cli import main
from ahj.coloring import Coloring, parse, serialize
from ahj.hypercube import CubeShape
from ahj.search import two_layer_arrangements

from reference import generator_index_maps, point_from_index, point_index


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(out):
    """key=value lines as a dict; repeated keys keep the last value."""
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


class TestLines:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "lines", "--k", "3", "--n", "2", "--count")
        assert code == 0
        assert out.strip() == "7"

    def test_list_single_axis(self, capsys):
        code, out, _ = run(capsys, "lines", "--k", "3", "--n", "1", "--list")
        assert code == 0
        assert out.strip() == "*"

    def test_wide_alphabet_list_has_no_duplicates(self, capsys):
        code, out, _ = run(capsys, "lines", "--k", "11", "--n", "3", "--list")
        assert code == 0
        names = out.split()
        assert len(names) == len(set(names)) == 12**3 - 11**3
        assert "11:1:*" in names and "1:11:*" in names

    def test_two_symbol_count(self, capsys):
        code, out, _ = run(capsys, "lines", "--k", "2", "--n", "2", "--count")
        assert code == 0
        assert out.strip() == "5"

    def test_bad_shape_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lines", "--k", "1", "--n", "2", "--count")
        assert code == 2
        assert "error" in err

    def test_huge_shape_is_usage_error(self, capsys):
        started = time.process_time()
        code, out, _ = run(capsys, "lines", "--k", "10000000", "--n", "10000000", "--count")
        assert (code, out) == (2, "")
        assert time.process_time() - started < 1.0


class TestVerify:
    def test_fixture_passes(self, capsys, tmp_path):
        from ahj.fixtures import load_fixture

        path = tmp_path / "cube.ahj"
        path.write_text(serialize(load_fixture("cube-rf-10-a.ahj")))
        code, out, _ = run(
            capsys, "verify", str(path), "--expect-rf", "--expect-colors", "10"
        )
        assert code == 0
        assert record(out)["verified"] == "true"

    def test_rainbow_coloring_fails_with_first_line(self, capsys, tmp_path):
        path = tmp_path / "rainbow.ahj"
        path.write_text(serialize(Coloring(CubeShape(3, 2), tuple(range(1, 10)))))
        code, out, _ = run(capsys, "verify", str(path), "--expect-rf")
        assert code == 1
        assert record(out)["first_rainbow"] == "1*"

    def test_wrong_color_count_fails(self, capsys, tmp_path):
        path = tmp_path / "mono.ahj"
        path.write_text(serialize(Coloring(CubeShape(3, 2), (1,) * 9)))
        code, out, _ = run(capsys, "verify", str(path), "--expect-colors", "2")
        assert code == 1

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.ahj"
        path.write_text("not a coloring\n")
        code, _, err = run(capsys, "verify", str(path), "--expect-rf")
        assert code == 2
        assert "error" in err

    def test_non_ascii_shape_digit_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "arabic-indic.ahj"
        path.write_text("ahj-coloring v1\nk=٣ n=2\n1 2 3\n4 5 6\n7 8 9\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "shape,entry",
        [
            ("k=3 n=2", "7" * 5000),
            ("k=" + "3" * 5000 + " n=2", "5"),
            ("k=10000000 n=10000000", "5"),
        ],
        ids=["long-entry", "long-k", "huge-shape"],
    )
    def test_oversized_numbers_are_usage_errors(self, capsys, tmp_path, shape, entry):
        # Not a traceback and exit 1, the code of a failed claim.
        path = tmp_path / "oversized.ahj"
        path.write_text(f"ahj-coloring v1\n{shape}\n1 2 3\n4 {entry} 6\n7 8 9\n")
        started = time.process_time()
        code, out, err = run(capsys, "verify", str(path), "--expect-rf")
        assert (code, out) == (2, "")
        assert "line " in err
        assert time.process_time() - started < 1.0

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "absent.ahj"))
        assert code == 2

    def test_partial_coloring_reports_unknown(self, capsys, tmp_path):
        partial = Coloring(CubeShape(3, 2), (1, 0, 0, 0, 0, 0, 0, 0, 2))
        path = tmp_path / "partial.ahj"
        path.write_text(serialize(partial))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert record(out)["rf"] == "unknown"
        code, _, _ = run(capsys, "verify", str(path), "--expect-rf")
        assert code == 1


class TestConstruct:
    def test_digit_position_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "digit.ahj"
        code, out, _ = run(
            capsys, "construct", "digit-position", "--k", "3", "--n", "4",
            "-o", str(path),
        )
        assert code == 0
        assert record(out)["colors"] == "16"
        code, _, _ = run(
            capsys, "verify", str(path), "--expect-rf", "--expect-colors", "16"
        )
        assert code == 0

    def test_stdout_when_no_output_path(self, capsys):
        code, out, _ = run(capsys, "construct", "digit-position", "--k", "3", "--n", "2")
        assert code == 0
        assert out.startswith("ahj-coloring v1")
        assert parse(out).shape == CubeShape(3, 2)

    def test_recursive_from_base_file(self, capsys, tmp_path):
        base = tmp_path / "base.ahj"
        out_file = tmp_path / "stacked.ahj"
        run(capsys, "construct", "digit-position", "--k", "3", "--n", "3",
            "-o", str(base))
        code, out, _ = run(
            capsys, "construct", "recursive", "--base", str(base), "-o", str(out_file)
        )
        assert code == 0
        rec = record(out)
        assert rec["n"] == "4"
        assert rec["colors"] == "9"

    def test_singleton_collinear_exits_two_with_witness(self, capsys):
        code, _, err = run(
            capsys, "construct", "singleton", "--k", "3", "--n", "2",
            "--points", "0,1,2",
        )
        assert code == 2
        assert "witnessing line" in err

    def test_singleton_independent_set(self, capsys, tmp_path):
        path = tmp_path / "single.ahj"
        code, out, _ = run(
            capsys, "construct", "singleton", "--k", "3", "--n", "2",
            "--points", "0,5,7", "-o", str(path),
        )
        assert code == 0
        assert record(out)["colors"] == "4"

    @pytest.mark.parametrize("points", ["٣,1_0", "٣", "1_0", "+3"])
    def test_singleton_points_take_ascii_digits_only(self, capsys, points):
        code, _, err = run(
            capsys, "construct", "singleton", "--k", "3", "--n", "4", "--points", points
        )
        assert code == 2
        assert "bad point list" in err

    def test_singleton_repeated_point_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "construct", "singleton", "--k", "4", "--n", "3", "--points", "4,4,4"
        )
        assert code == 2
        assert out == ""
        assert "point 4 is repeated" in err

    def test_missing_parameters_are_usage_errors(self, capsys):
        assert run(capsys, "construct", "digit-position")[0] == 2
        assert run(capsys, "construct", "recursive")[0] == 2
        assert run(capsys, "construct", "singleton", "--k", "3", "--n", "2")[0] == 2


class TestSearch:
    def test_square_record(self, capsys):
        code, out, _ = run(capsys, "search", "max-colors", "--k", "3", "--n", "2")
        assert code == 0
        rec = record(out)
        assert rec["status"] == "OPTIMAL"
        assert rec["value"] == "4"

    def test_certificate_verifies(self, capsys, tmp_path):
        cert = tmp_path / "witness.ahj"
        code, _, _ = run(
            capsys, "search", "max-colors", "--k", "3", "--n", "2",
            "--certificate", str(cert),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", str(cert), "--expect-rf", "--expect-colors", "4"
        )
        assert code == 0

    def test_node_budget_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "search", "max-colors", "--k", "3", "--n", "3",
            "--node-limit", "10",
        )
        assert code == 3
        assert record(out)["status"] == "FEASIBLE_ONLY"

    def test_capped_four_cube_value(self, capsys):
        """[4]^3 under a 100,000-node cap reports 28 colors, one above the
        digit-position 27, and exits 3."""
        code, out, _ = run(
            capsys, "search", "max-colors", "--k", "4", "--n", "3",
            "--node-limit", "100000",
        )
        assert code == 3
        rec = record(out)
        assert (rec["value"], rec["nodes"]) == ("28", "100000")

    def test_records_byte_identical_modulo_wall_time(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "search", "max-colors", "--k", "3", "--n", "2")
            outs.append(
                [l for l in out.splitlines() if not l.startswith("wall_time=")]
            )
        assert outs[0] == outs[1]


class TestEnumerate:
    def test_independent_sets(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--k", "3", "--n", "2", "--independent-size", "3"
        )
        assert code == 0
        rec = record(out)
        assert rec["count"] == "5"

    def test_largest_hypercube_sets_up_to_symmetry(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--k", "3", "--n", "4", "--independent-size", "22",
            "--up-to-symmetry",
        )
        assert code == 0
        assert record(out)["count"] == "3"

    def test_symmetry_table_too_large_is_an_input_error(self, capsys, monkeypatch):
        """[3]^8 has a group of 241,920 maps of 6,561 points: refused (exit
        2, nothing printed) before any map is built.  The builder fails if
        called, so a missing guard fails here without allocating."""

        def refuse(*_):
            raise AssertionError("a map was built")

        monkeypatch.setattr("ahj.hypercube.permutations", refuse)
        code, out, err = run(
            capsys, "enumerate", "--k", "3", "--n", "8", "--independent-size", "1",
            "--up-to-symmetry",
        )
        assert (code, out) == (2, "")
        assert "index-map entries" in err

    def test_minimal_colorings_written(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--k", "3", "--n", "3", "--colors", "10",
            "--minimal-only", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert record(out)["count"] == "2"
        written = sorted(tmp_path.glob("*.ahj"))
        assert len(written) == 2
        for path in written:
            code, _, _ = run(
                capsys, "verify", str(path), "--expect-rf",
                "--expect-colors", "10", "--expect-minimal",
            )
            assert code == 0

    def test_symmetry_quotient(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--k", "3", "--n", "3", "--colors", "10",
            "--minimal-only", "--up-to-symmetry",
        )
        assert code == 0
        assert record(out)["count"] == "1"

    def test_hypercube_four_colorings_up_to_symmetry(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--k", "3", "--n", "4", "--colors", "4",
            "--minimal-only", "--up-to-symmetry",
        )
        assert code == 0
        assert record(out)["count"] == "452"

    def test_colors_without_minimal_only_rejected(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--k", "3", "--n", "2", "--colors", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--k", "4", "--n", "2", "--independent-size", "2"),
            ("--k", "3", "--n", "2", "--colors", "0", "--minimal-only"),
            ("--k", "3", "--n", "2", "--colors", "3"),
            ("--k", "3", "--n", "2", "--independent-size", "10"),
        ],
    )
    def test_usage_error_prints_no_records(self, capsys, flags):
        """Input is checked before the first record, so stdout stays empty."""
        code, out, err = run(capsys, "enumerate", *flags)
        assert code == 2
        assert out == ""
        assert "error" in err


class TestComplete:
    def test_arrangement_infeasible(self, capsys, tmp_path):
        path = tmp_path / "arrangement.ahj"
        path.write_text(serialize(two_layer_arrangements()[0]))
        code, out, _ = run(capsys, "complete", str(path), "--total-colors", "27")
        assert code == 0
        rec = record(out)
        assert rec["status"] == "INFEASIBLE"
        assert rec["forced_cell"] == "3333"
        witnesses = [l for l in out.splitlines() if l.startswith("witness_line=")]
        assert witnesses == ["witness_line=*33*", "witness_line=*3*3"]

    def test_feasible_completion_writes_certificate(self, capsys, tmp_path):
        blank = tmp_path / "blank.ahj"
        cert = tmp_path / "done.ahj"
        blank.write_text(serialize(Coloring(CubeShape(3, 2), (0,) * 9)))
        code, _, _ = run(
            capsys, "complete", str(blank), "--total-colors", "4",
            "--certificate", str(cert),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", str(cert), "--expect-rf", "--expect-colors", "4"
        )
        assert code == 0

    def test_budget_exhaustion_exit_three(self, capsys, tmp_path):
        blank = tmp_path / "blank.ahj"
        blank.write_text(serialize(Coloring(CubeShape(3, 3), (0,) * 27)))
        code, out, _ = run(
            capsys, "complete", str(blank), "--total-colors", "10",
            "--node-limit", "1",
        )
        assert code == 3
        assert record(out)["status"] == "TIMEOUT"


# (argv, exit code, stdout without its wall_time line): every branch of the
# search and complete records, run from a directory holding the inputs below.
GOLDEN_RECORDS = [
    (
        "search max-colors --k 3 --n 2",
        0,
        "subcommand=search.max-colors\nk=3\nn=2\ntime_limit=none\nnode_limit=none\n"
        "status=OPTIMAL\nvalue=4\nnodes=19\n",
    ),
    (
        "search max-colors --k 3 --n 2 --time-limit 30 --node-limit 1000 --certificate w.ahj",
        0,
        "subcommand=search.max-colors\nk=3\nn=2\ntime_limit=30.0\nnode_limit=1000\n"
        "status=OPTIMAL\nvalue=4\nnodes=19\ncertificate=w.ahj\n",
    ),
    (
        "search max-colors --k 3 --n 3 --node-limit 50",
        3,
        "subcommand=search.max-colors\nk=3\nn=3\ntime_limit=none\nnode_limit=50\n"
        "status=FEASIBLE_ONLY\nvalue=10\nnodes=50\n",
    ),
    (
        "complete endgame.ahj --total-colors 27",
        0,
        "subcommand=complete\nfile=endgame.ahj\ntotal_colors=27\ntime_limit=none\n"
        "node_limit=none\nstatus=INFEASIBLE\nnodes=1\nforced_cell=3333\n"
        "witness_line=*33*\nwitness_line=*3*3\n",
    ),
    (
        "complete rainbow.ahj --total-colors 4",
        0,
        "subcommand=complete\nfile=rainbow.ahj\ntotal_colors=4\ntime_limit=none\n"
        "node_limit=none\nstatus=INFEASIBLE\nnodes=0\nrainbow_line=1*\n",
    ),
    (
        "complete blank.ahj --total-colors 4 --certificate c.ahj",
        0,
        "subcommand=complete\nfile=blank.ahj\ntotal_colors=4\ntime_limit=none\n"
        "node_limit=none\nstatus=OPTIMAL\nnodes=10\ncertificate=c.ahj\n",
    ),
    (
        "complete blank.ahj --total-colors 5 --certificate c.ahj",
        0,
        "subcommand=complete\nfile=blank.ahj\ntotal_colors=5\ntime_limit=none\n"
        "node_limit=none\nstatus=INFEASIBLE\nnodes=71\n",
    ),
    (
        "complete cube.ahj --total-colors 10 --time-limit 60 --node-limit 1",
        3,
        "subcommand=complete\nfile=cube.ahj\ntotal_colors=10\ntime_limit=60.0\n"
        "node_limit=1\nstatus=TIMEOUT\nnodes=1\n",
    ),
]

# (argv, stderr) of input errors, each exit 2 with nothing on stdout.
GOLDEN_ERRORS = [
    ("verify garbage.ahj", "error: line 1: expected magic line 'ahj-coloring v1'\n"),
    (
        "construct singleton --k 3 --n 2 --points 0,1,2",
        "error: line 1* meets the special set in 3 points (at most 1 allowed)\n"
        "witnessing line: 1*\n",
    ),
    ("verify absent.ahj", "error: [Errno 2] No such file or directory: 'absent.ahj'\n"),
]

# (argv, stderr) of an output path that cannot be written, one per subcommand
# that writes files: also exit 2 with nothing on stdout.
UNWRITABLE_OUTPUTS = [
    (
        "search max-colors --k 3 --n 2 --certificate nodir/w.ahj",
        "error: [Errno 2] No such file or directory: 'nodir/w.ahj'\n",
    ),
    (
        "complete blank.ahj --total-colors 4 --certificate nodir/w.ahj",
        "error: [Errno 2] No such file or directory: 'nodir/w.ahj'\n",
    ),
    (
        "enumerate --k 3 --n 2 --colors 4 --minimal-only --out-dir garbage.ahj/sub",
        "error: [Errno 20] Not a directory: 'garbage.ahj/sub'\n",
    ),
    (
        "construct digit-position --k 3 --n 2 -o nodir/c.ahj",
        "error: [Errno 2] No such file or directory: 'nodir/c.ahj'\n",
    ),
]


class TestGoldenRecords:
    """The whole record of each search and complete branch, and the exact
    text of each kind of input error, pinned byte for byte."""

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        files = {
            "endgame.ahj": serialize(two_layer_arrangements()[0]),
            "rainbow.ahj": "ahj-coloring v1\nk=3 n=2\n1 2 3\n0 0 0\n0 0 0\n",
            "blank.ahj": serialize(Coloring(CubeShape(3, 2), (0,) * 9)),
            "cube.ahj": serialize(Coloring(CubeShape(3, 3), (0,) * 27)),
            "garbage.ahj": "not a coloring\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)

    @pytest.mark.parametrize(
        "argv, code, out", GOLDEN_RECORDS, ids=[a for a, _, _ in GOLDEN_RECORDS]
    )
    def test_record(self, capsys, tmp_path, argv, code, out):
        got_code, got_out, err = run(capsys, *argv.split())
        assert (got_code, err) == (code, "")
        lines = got_out.splitlines(keepends=True)
        assert lines[-1].startswith("wall_time=")
        assert "".join(lines[:-1]) == out
        for name in ("w.ahj", "c.ahj"):
            assert (tmp_path / name).exists() == (f"certificate={name}" in out)

    @pytest.mark.parametrize("argv, err", GOLDEN_ERRORS, ids=[a for a, _ in GOLDEN_ERRORS])
    def test_input_error(self, capsys, argv, err):
        assert run(capsys, *argv.split()) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, err", UNWRITABLE_OUTPUTS, ids=[a.split()[0] for a, _ in UNWRITABLE_OUTPUTS]
    )
    def test_unwritable_output_prints_no_records(self, capsys, argv, err):
        """Every file is written before the first record line, so a path
        that cannot be written leaves stdout empty."""
        assert run(capsys, *argv.split()) == (2, "", err)


class TestBounds:
    def test_table_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "3", "--n-max", "4")
        assert code == 0
        machine = [l for l in out.splitlines() if l.startswith("n=")]
        assert machine == [
            "n=1 lower=3 upper=3 lower_source=known-value upper_source=known-value",
            "n=2 lower=5 upper=5 lower_source=known-value upper_source=known-value",
            "n=3 lower=11 upper=11 lower_source=known-value upper_source=known-value",
            "n=4 lower=24 upper=27 lower_source=known-value upper_source=known-value",
        ]

    def test_two_symbol_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "2", "--n-max", "6")
        assert code == 0
        for line in out.splitlines():
            if line.startswith("n="):
                assert "lower=2 upper=2" in line

    def test_power_lower_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "4", "--n-max", "3")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("n=3")]
        assert rows and "lower=28" in rows[0]

    def test_recompute_replaces_fast_entries(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--k", "3", "--n-max", "2", "--recompute",
            "--time-limit", "30",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("n=2")]
        assert rows and "recomputed-search" in rows[0]
        assert "lower=5 upper=5" in rows[0]

    def test_recompute_keeps_rows_past_the_index_budget(self, capsys):
        """[3]^21 has more points than a shape may index, so its row keeps
        the formula bounds rather than failing the command."""
        code, out, err = run(
            capsys, "bounds", "--k", "3", "--n-max", "21", "--recompute",
            "--time-limit", "0.05",
        )
        assert (code, err) == (0, "")
        rows = [l for l in out.splitlines() if l.startswith("n=21 ")]
        assert rows and rows[0].endswith("upper_source=layer-recursion")

    def test_bound_too_long_to_print_is_an_input_error(self, capsys):
        # From n = 4,301 the k = 10 upper bounds have more digits than int()
        # prints by default (4,300); no row is printed before the error.
        started = time.process_time()
        code, out, err = run(capsys, "bounds", "--k", "10", "--n-max", "5000")
        # The largest bound is refused before any row is formatted.
        assert time.process_time() - started < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: a bound is too long to print")

    def test_table_stops_at_the_first_bound_too_long_to_print(self, capsys, monkeypatch):
        """Rows n = 2.. each take one layer-recursion step, so the refusal at
        n = 4,301 builds 4,300 rows of the 20,000 asked for."""
        steps = []

        def counted(*args):
            steps.append(args)
            return layer_recursion_bounds(*args)

        monkeypatch.setattr("ahj.bounds.layer_recursion_bounds", counted)
        code, out, err = run(capsys, "bounds", "--k", "10", "--n-max", "20000")
        assert (code, out) == (2, "")
        assert "upper bound at n=4301 has more than 4300 digits" in err
        assert len(steps) == 4300

    def test_time_limit_without_recompute_rejected(self, capsys):
        code, out, err = run(capsys, "bounds", "--k", "3", "--n-max", "2", "--time-limit", "1")
        assert code == 2
        assert out == ""
        assert "--time-limit" in err

    @pytest.mark.parametrize("limit", ["-5", "0", "nan"])
    def test_recompute_rejects_non_positive_time_limit(self, capsys, limit):
        code, out, err = run(
            capsys, "bounds", "--k", "3", "--n-max", "2", "--recompute", "--time-limit", limit
        )
        assert code == 2
        assert out == ""
        assert "--time-limit" in err

    def test_recompute_default_budget_is_sixty_seconds(self, capsys, monkeypatch):
        """One 60 s deadline bounds the whole command: each entry searches
        with the time left, and an entry reached with none keeps its row."""
        import ahj.cli

        clock = [1000.0]
        budgets = []
        real = ahj.cli.max_rf_colors

        def spy(shape, config):
            budgets.append(config.time_limit)
            clock[0] += 45.0
            return real(shape, config)

        monkeypatch.setattr(ahj.cli, "max_rf_colors", spy)
        monkeypatch.setattr(ahj.cli, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        code, out, _ = run(capsys, "bounds", "--k", "3", "--n-max", "3", "--recompute")
        assert code == 0
        assert budgets == [60.0, 15.0]
        machine = [l for l in out.splitlines() if l.startswith("n=")]
        assert [l.split()[3] for l in machine] == [
            "lower_source=recomputed-search",
            "lower_source=recomputed-search",
            "lower_source=known-value",
        ]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "{}"),
            ("complete", "{}", "--total-colors", "3"),
            ("construct", "recursive", "--base", "{}"),
        ],
        ids=["verify", "complete", "construct"],
    )
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, argv):
        # Not a UnicodeDecodeError traceback and exit 1, the code of a failed claim.
        path = tmp_path / "utf16.ahj"
        path.write_bytes(b"\xff\xfe" + "ahj-coloring v1\nk=3 n=2\n".encode("utf-16-le"))
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: not UTF-8 text")

    def test_non_utf8_byte_is_reported_at_its_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.ahj"
        path.write_bytes(b"ahj-coloring v1\nk=3 n=2\n1 1 1\n1 \xe9 1\n1 1 1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert "line 4: not UTF-8 text" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "max-colors", "--k", "3", "--n", "8", "--time-limit", "1"),
            ("enumerate", "--k", "3", "--n", "8", "--independent-size", "1108"),
        ],
        ids=["search", "enumerate"],
    )
    def test_search_too_deep_is_usage_error(self, capsys, argv):
        # The warm start of [3]^8 nests one frame per point of a 1,107-point
        # set, past Python's recursion limit.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: search of [3]^8 nests too deeply")

    def test_search_too_large_for_its_tables_is_usage_error(self, capsys, monkeypatch):
        # Not a MemoryError traceback and exit 1.  The warm start and the
        # line table are replaced by ones that fail, so a search that got
        # past the refusal would fail here without allocating.
        def refuse(*_):
            raise AssertionError("the search got past the refusal")

        monkeypatch.setattr("ahj.search._seed_coloring", refuse)
        monkeypatch.setattr("ahj.search.line_index_table", refuse)
        argv = ("search", "max-colors", "--k", "2", "--n", "30", "--node-limit", "5")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: search of [2]^30 needs line tables over 2^32 bits")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_repro_subset(self, capsys):
        code, out, _ = run(capsys, "repro", "--only", "4,7")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("claim")]
        assert len(lines) == 2
        assert all("PASS" in l for l in lines)

    @pytest.mark.parametrize("only", ["x", "4,", "0", "11", "\u0663", "\uff13"])
    def test_repro_only_rejects_bad_claim_numbers(self, capsys, only):
        code, out, err = run(capsys, "repro", "--only", only)
        assert code == 2
        assert "claim numbers 1..10" in err
        assert out == ""

    def test_repro_failing_claims_exit_one(self, capsys, monkeypatch):
        import ahj.repro

        def refuted():
            return False, "refuted on purpose"

        def broken():
            raise RuntimeError("broken on purpose")

        claims = list(ahj.repro.CLAIMS)
        claims[3] = (claims[3][0], refuted)
        claims[4] = (claims[4][0], broken)
        monkeypatch.setattr(ahj.repro, "CLAIMS", tuple(claims))
        code, out, _ = run(capsys, "repro", "--only", "4,5,7")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("claim  4 FAIL")
        assert lines[0].endswith("counts 5/2/0: refuted on purpose")
        assert lines[1].startswith("claim  5 FAIL")
        assert lines[1].endswith("censuses: RuntimeError: broken on purpose")
        assert lines[2].startswith("claim  7 PASS")

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "BLANK", "--total-colors", "4"],
            ["search", "max-colors", "--k", "3", "--n", "2"],
        ],
        ids=["complete", "search"],
    )
    def test_non_positive_time_limit_rejected(self, capsys, tmp_path, argv, limit):
        # NaN would never be reached by the clock, so it is refused too.
        blank = tmp_path / "blank.ahj"
        blank.write_text(serialize(Coloring(CubeShape(3, 2), (0,) * 9)))
        argv = [str(blank) if arg == "BLANK" else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--time-limit", limit)
        assert code == 2
        assert out == ""
        assert "time_limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "BLANK", "--total-colors", "4"],
            ["search", "max-colors", "--k", "3", "--n", "2"],
            ["repro", "--only", "7"],
        ],
        ids=["complete", "search", "repro"],
    )
    def test_threads_flag_rejected(self, capsys, tmp_path, argv):
        # The search is serial, so no subcommand offers the flag.
        blank = tmp_path / "blank.ahj"
        blank.write_text(serialize(Coloring(CubeShape(3, 2), (0,) * 9)))
        argv = [str(blank) if arg == "BLANK" else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--threads", "2")
        assert code == 2
        assert out == ""
        assert "--threads" in err


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["construct", "digit-position", "--k", "3", "--n", "2",
              "--stacking-coord", "7", "-o", "OUT"], "stacking-coord"),
            (["construct", "digit-position", "--k", "3", "--n", "2",
              "--points", "0,1", "-o", "OUT"], "points"),
            (["construct", "digit-position", "--k", "3", "--n", "2",
              "--base", "BASE", "-o", "OUT"], "base"),
            (["construct", "recursive", "--base", "BASE", "--k", "3", "-o", "OUT"], "k"),
            (["construct", "recursive", "--base", "BASE", "--points", "0", "-o", "OUT"],
             "points"),
            (["construct", "singleton", "--k", "3", "--n", "2", "--points", "0",
              "--stacking-coord", "1", "-o", "OUT"], "stacking-coord"),
            (["construct", "singleton", "--k", "3", "--n", "2", "--points", "0",
              "--base", "BASE", "-o", "OUT"], "base"),
            (["enumerate", "--k", "3", "--n", "2", "--independent-size", "3",
              "--colors", "9"], "colors"),
            (["enumerate", "--k", "3", "--n", "2", "--independent-size", "3",
              "--out-dir", "OUT"], "out-dir"),
            (["enumerate", "--k", "3", "--n", "2", "--independent-size", "3",
              "--minimal-only"], "minimal-only"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[1] if v[0] == "construct" else v[0],
    )
    def test_flag_the_mode_ignores_rejected(self, capsys, tmp_path, argv, flag):
        # A flag the chosen kind or mode would not read is a usage error, and
        # nothing is printed or written.
        base = tmp_path / "base.ahj"
        base.write_text(serialize(Coloring(CubeShape(3, 2), (1,) * 9)))
        out = tmp_path / "out"
        argv = [{"BASE": str(base), "OUT": str(out)}.get(arg, arg) for arg in argv]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert f"--{flag} does not apply" in err
        assert not out.exists()


class TestClaimBudgets:
    def test_exact_values_stop_at_the_proof_limit(self, capsys, monkeypatch):
        """Claim 1 hands each proof its time limit, so a [3]^3 proof allowed
        0.001 s, about a tenth of what it takes, stops there and fails the
        claim instead of running to the end."""
        import ahj.repro

        rows = [
            (k, n, value, 0.001 if (k, n) == (3, 3) else limit)
            for k, n, value, limit in ahj.repro._EXACT_VALUES
        ]
        monkeypatch.setattr(ahj.repro, "_EXACT_VALUES", tuple(rows))
        started = time.monotonic()
        code, out, _ = run(capsys, "repro", "--only", "1")
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert out.startswith("claim  1 FAIL")
        # The incumbent found by then depends on the machine; the status does not.
        assert "[3]^3:" in out and "FEASIBLE_ONLY" in out


class TestInvariantCheck:
    """Claim 9 checks the line table against generators of the whole group."""

    @pytest.mark.parametrize("k, n", [(2, 4), (3, 3), (4, 3), (5, 4)])
    def test_line_table_is_invariant(self, k, n):
        from ahj.repro import _lines_invariant
        from ahj.hypercube import line_index_table

        shape = CubeShape(k, n)
        assert _lines_invariant(shape, line_index_table(shape))

    def test_generators_match_coordinate_reference(self):
        """The digit-built generator maps equal the coordinate-built ones
        on every shape claim 9 checks."""
        from ahj.repro import _generator_index_maps

        shapes = [CubeShape(k, n) for k in (2, 3, 4, 5) for n in (1, 2, 3, 4)]
        for shape in (s for s in shapes if s.point_count <= 700):
            assert _generator_index_maps(shape) == generator_index_maps(shape)

    def test_badly_permuted_line_table_fails(self):
        from ahj.repro import _lines_invariant
        from ahj.hypercube import line_index_table

        shape = CubeShape(3, 2)
        swap = {0: 1, 1: 0}
        lines = [tuple(swap.get(i, i) for i in idxs) for idxs in line_index_table(shape)]
        assert not _lines_invariant(shape, lines)

    def test_coordinate_permutations_are_checked(self):
        """Swapping the first two coordinates of the points with three
        distinct symbols commutes with every symbol permutation, so only a
        coordinate permutation can expose the mapped table."""
        from ahj.repro import _lines_invariant
        from ahj.hypercube import automorphism_index_maps, line_index_table

        shape = CubeShape(4, 3)

        def bad(i):
            c = point_from_index(i, shape).coords
            return point_index((c[1], c[0], c[2]), shape) if len(set(c)) == 3 else i

        lines = [tuple(bad(i) for i in idxs) for idxs in line_index_table(shape)]
        table = {tuple(sorted(idxs)) for idxs in lines}
        for mapping in automorphism_index_maps(shape)[:24]:  # the symbol permutations
            assert {tuple(sorted(mapping[i] for i in idxs)) for idxs in lines} == table
        assert not _lines_invariant(shape, lines)
