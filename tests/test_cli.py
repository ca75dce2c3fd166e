import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slnbranch import cli
from slnbranch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCore:
    def test_example_eight(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--n", "3", "8")
        assert code == 0
        assert out.strip() == '{"core":[2],"weight":2,"rectangle":[2,1]}'

    def test_non_rectangular_core(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--n", "3", "5,4,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rectangle"] is None or sum(payload["rectangle"]) <= 3

    def test_empty_partition_argument(self, capsys):
        code, out, _ = run_cli(capsys, "core", "--n", "4", "-")
        assert code == 0
        assert json.loads(out) == {"core": [], "weight": 0, "rectangle": [0, 0]}

    def test_invalid_partition_is_diagnosed(self, capsys):
        code, out, err = run_cli(capsys, "core", "--n", "3", "1,2,3")
        assert code == 2
        assert not out
        assert "error" in err


class TestBranching:
    def test_method_all_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "branching", "--n", "3", "--j", "1", "--k", "0",
            "--order", "2", "--method", "all",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "AGREE"
        assert set(payload["methods"]) == {"paths", "fow", "crystal", "fermionic"}
        assert all(c == [1, 1, 2] for c in payload["methods"].values())

    def test_single_method_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "branching", "--n", "3", "--j", "0", "--k", "1",
            "--order", "3", "--method", "fow",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 3, "j": 0, "k": 1, "order": 3, "coeffs": [0, 1, 2, 2], "method": "fow",
        }

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "branching", "--n", "3", "--j", "1", "--k", "0",
            "--order", "2", "--method", "all", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,c0,c1,c2"
        assert "fow,1,1,2" in lines

    def test_text_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "branching", "--n", "3", "--j", "2", "--k", "1",
            "--order", "3", "--method", "all", "--format", "text",
        )
        assert code == 0
        assert out.strip().endswith("verdict: AGREE")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_disagreement_names_first_d(self, capsys, monkeypatch, fmt):
        real = cli.branching_series

        def bumped(n, j, k, order, method):
            series = real(n, j, k, order, method)
            return tuple(c + (method == "crystal" and d == 2) for d, c in enumerate(series))

        monkeypatch.setattr(cli, "branching_series", bumped)
        code, out, _ = run_cli(
            capsys, "branching", "--n", "3", "--j", "1", "--k", "0",
            "--order", "3", "--method", "all", "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert list(payload)[-2:] == ["verdict", "first_d"]
            assert (payload["verdict"], payload["first_d"]) == ("DISAGREE", 2)
            assert payload["methods"]["crystal"][2] == payload["methods"]["fow"][2] + 1
        else:
            assert out.splitlines()[-2:] == ["verdict: DISAGREE", "first_d: 2"]


class TestFermionic:
    def test_reports_lattice_point_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "fermionic", "--n", "3", "--s", "1", "--t", "2", "--order", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == [0, 1, 2, 2]
        assert payload["lattice_points"] >= 2

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("csv", "method,c0,c1,c2,c3\nfermionic,0,1,2,2\n"),
            ("text", "fermionic 0 1 2 2\nlattice points: 2\n"),
        ],
        ids=["csv", "text"],
    )
    def test_csv_and_text(self, capsys, fmt, expected):
        code, out, _ = run_cli(
            capsys, "fermionic", "--n", "3", "--s", "1", "--t", "2", "--order", "3",
            "--format", fmt,
        )
        assert code == 0
        assert out == expected

    def test_folded_pair_json(self, capsys):
        # s + t > n: the pair is folded to (1, 2) before the lattice walk
        code, out, _ = run_cli(
            capsys, "fermionic", "--n", "4", "--s", "2", "--t", "3", "--order", "6"
        )
        assert code == 0
        assert out == (
            '{"n":4,"s":2,"t":3,"order":6,"coeffs":[0,1,2,3,5,8,12],'
            '"lattice_points":4}\n'
        )

    def test_n6_finishes_with_17_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "fermionic", "--n", "6", "--s", "0", "--t", "1", "--order", "12"
        )
        assert code == 0
        assert json.loads(out)["lattice_points"] == 17


class TestJs:
    def test_list_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "js", "list", "--n", "3", "--core", "-", "--weight", "2"
        )
        assert code == 0
        members = [tuple(p) for p in json.loads(out)]
        assert set(members) == {(6,), (5, 1), (4, 1, 1), (3, 3), (3, 2, 1)}

    def test_list_rejects_non_core(self, capsys):
        code, _, err = run_cli(
            capsys, "js", "list", "--n", "3", "--core", "3", "--weight", "1"
        )
        assert code == 2
        assert "core" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("list", "--weight", "1"),
            ("chi", "--order", "2", "--method", "direct"),
            ("chi", "--order", "2", "--method", "both"),
        ],
        ids=["list", "chi-direct", "chi-both"],
    )
    def test_non_core_fails_at_the_library_boundary(self, capsys, argv):
        # The CLI only parses --core; the library's core check is the one message.
        command, *rest = argv
        code, out, err = run_cli(capsys, "js", command, "--n", "3", "--core", "3", *rest)
        assert code == 2
        assert out == ""
        assert err == "error: (3,) is not an n-core for n=3\n"

    def test_chi_both_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "js", "chi", "--n", "3", "--core", "-", "--order", "2",
            "--method", "both",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "AGREE"
        assert payload["methods"]["direct"] == [1, 2, 5]
        assert payload["methods"]["branching"] == [1, 2, 5]

    def test_chi_single_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "js", "chi", "--n", "3", "--core", "1,1", "--order", "2",
            "--method", "direct",
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == [1, 1, 2]

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("csv", "method,c0,c1,c2\ndirect,1,2,5\nbranching,1,2,5\n"),
            ("text", "direct    1 2 5\nbranching 1 2 5\nverdict: AGREE\n"),
        ],
        ids=["csv", "text"],
    )
    def test_chi_csv_and_text(self, capsys, fmt, expected):
        code, out, _ = run_cli(
            capsys, "js", "chi", "--n", "3", "--core", "-", "--order", "2",
            "--format", fmt,
        )
        assert code == 0
        assert out == expected


class TestCrystal:
    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "crystal", "graph", "--n", "3", "--max-size", "4",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert '"3,1" [label="3,1"];' in out      # not a member: no asterisk
        assert '"2,1" [label="2,1*"];' in out     # member: starred

    def test_text_output(self, capsys):
        # vertices with their eps vectors and weights, then the edges
        code, out, _ = run_cli(
            capsys, "crystal", "graph", "--n", "2", "--max-size", "3",
            "--format", "text",
        )
        assert code == 0
        assert out == (
            "-*  eps=(0,0)  wt=L0\n"
            "1*  eps=(1,0)  wt=2*L1 - L0 - d\n"
            "2*  eps=(0,1)  wt=L0 - d\n"
            "3*  eps=(1,0)  wt=2*L1 - L0 - 2*d\n"
            "2,1  eps=(0,2)  wt=3*L0 - 2*L1 - d\n"
            "- -0-> 1\n"
            "1 -1-> 2\n"
            "2 -0-> 3\n"
            "2 -1-> 2,1\n"
        )

    def test_text_output_n3(self, capsys):
        # the export CI runs: weights with several L terms of each sign
        code, out, _ = run_cli(
            capsys, "crystal", "graph", "--n", "3", "--max-size", "6",
            "--format", "text",
        )
        assert code == 0
        assert out == (
            "-*  eps=(0,0,0)  wt=L0\n"
            "1*  eps=(1,0,0)  wt=L1 + L2 - L0 - d\n"
            "2*  eps=(0,1,0)  wt=2*L2 - L1 - d\n"
            "1,1*  eps=(0,0,1)  wt=2*L1 - L2 - d\n"
            "3*  eps=(0,0,1)  wt=L0 - d\n"
            "2,1*  eps=(0,1,0)  wt=L0 - d\n"
            "4*  eps=(1,0,0)  wt=L1 + L2 - L0 - 2*d\n"
            "3,1  eps=(0,0,2)  wt=2*L0 + L1 - 2*L2 - d\n"
            "2,2*  eps=(1,0,0)  wt=L1 + L2 - L0 - 2*d\n"
            "2,1,1  eps=(0,2,0)  wt=2*L0 + L2 - 2*L1 - d\n"
            "5*  eps=(0,1,0)  wt=2*L2 - L1 - 2*d\n"
            "4,1  eps=(1,0,1)  wt=2*L1 - L2 - 2*d\n"
            "3,2*  eps=(0,0,1)  wt=2*L1 - L2 - 2*d\n"
            "3,1,1  eps=(0,1,1)  wt=3*L0 - L1 - L2 - d\n"
            "2,2,1  eps=(1,1,0)  wt=2*L2 - L1 - 2*d\n"
            "6*  eps=(0,0,1)  wt=L0 - 2*d\n"
            "5,1*  eps=(0,1,0)  wt=L0 - 2*d\n"
            "4,2  eps=(2,0,0)  wt=3*L1 - 2*L0 - 3*d\n"
            "4,1,1*  eps=(1,0,0)  wt=L0 - 2*d\n"
            "3,3*  eps=(0,1,0)  wt=L0 - 2*d\n"
            "3,2,1*  eps=(0,0,1)  wt=L0 - 2*d\n"
            "2,2,1,1  eps=(2,0,0)  wt=3*L2 - 2*L0 - 3*d\n"
            "- -0-> 1\n"
            "1 -1-> 2\n"
            "1 -2-> 1,1\n"
            "2 -2-> 3\n"
            "1,1 -1-> 2,1\n"
            "3 -0-> 4\n"
            "3 -2-> 3,1\n"
            "2,1 -0-> 2,2\n"
            "2,1 -1-> 2,1,1\n"
            "4 -1-> 5\n"
            "4 -2-> 4,1\n"
            "3,1 -0-> 4,1\n"
            "3,1 -1-> 3,1,1\n"
            "2,2 -1-> 2,2,1\n"
            "2,2 -2-> 3,2\n"
            "2,1,1 -0-> 2,2,1\n"
            "2,1,1 -2-> 3,1,1\n"
            "5 -2-> 6\n"
            "4,1 -0-> 4,2\n"
            "4,1 -1-> 5,1\n"
            "3,2 -1-> 3,3\n"
            "3,1,1 -0-> 4,1,1\n"
            "2,2,1 -0-> 2,2,1,1\n"
            "2,2,1 -2-> 3,2,1\n"
        )

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "crystal", "graph", "--n", "2", "--max-size", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert {tuple(v["partition"]) for v in payload["vertices"]} == {
            (), (1,), (2,), (2, 1), (3,),
        }


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--n", "3",
            "--max-size", "6", "--order", "3",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["suite"].split("(")[0] for r in reports] == [
            "fow", "methods", "js", "cores", "crystal",
        ]
        assert all(r["ok"] for r in reports)

    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "fow", "--n", "2", "--max-size", "8",
            "--format", "text",
        )
        assert code == 0
        assert out.startswith("suite fow")


class TestValidation:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("branching", "--n", "0", "--j", "0", "--k", "0", "--order", "3"), "--n"),
            (("fermionic", "--n", "1", "--s", "0", "--t", "0", "--order", "3"), "--n"),
            (("verify", "--suite", "methods", "--n", "0"), "--n"),
            (("verify", "--max-size", "-1"), "--max-size"),
            (("js", "list", "--n", "3", "--core", "-", "--weight", "-1"), "--weight"),
            (("branching", "--n", "3", "--j", "0", "--k", "0", "--order", "-1"), "--order"),
            (("crystal", "graph", "--n", "3", "--max-size", "-2"), "--max-size"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert not out
        assert err.startswith(f"error: {flag} must be at least")

    def test_jobs_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("core", "--n", "3", "8"),
            ("verify", "--suite", "fow", "--n", "3", "--max-size", "4"),
            ("js", "list", "--n", "3", "--core", "-", "--weight", "2"),
        ],
        ids=["core", "verify", "js-list"],
    )
    def test_csv_is_rejected_where_not_written(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--format", "csv"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "invalid choice: 'csv'" in captured.err


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["core", "--n", "3", "--bogus", "8"])
    assert excinfo.value.code != 0
    assert "bogus" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("branching", "--n", "3", "--j", "0", "--k", "1", "--order", "4"),
            ("js", "list", "--n", "3", "--core", "1", "--weight", "2"),
            ("crystal", "graph", "--n", "3", "--max-size", "5"),
            ("core", "--n", "3", "5,5,4,1,1"),
        ],
    )
    def test_outputs_byte_stable(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_closed_stdout_exits_141_without_a_traceback():
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails as it would under `| head -1` once head is gone.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "slnbranch.cli", "crystal", "graph", "--n", "4",
             "--max-size", "12", "--format", "text"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 141


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of `call`, whether it returns or exits."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference_parser(command):
    """The parser with every subcommand's arguments added, from the CLI's own
    command table, built by the running interpreter's argparse."""
    parser = argparse.ArgumentParser(
        prog="slnbranch",
        description="Level-1 affine sl(n) branching functions and partition classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, adder in cli._COMMANDS:
        getattr(cli, adder)(sub.add_parser(name, help=help_text))
    return parser


class TestSurface:
    """`main` adds arguments only to the subcommand its argv names; what it
    writes and returns must match a parser that adds every argument."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([name, "--help"] for name, _, _ in cli._COMMANDS),
            ["js", "list", "--help"],
            ["js", "chi", "--help"],
            ["crystal", "graph", "--help"],
            ["-h", "fermionic"],
            [],
            ["bogus"],
            ["fermionic", "--n", "4"],
            ["core", "--n", "3", "--format", "csv", "5"],
            ["core", "--n", "3", "5", "extra"],
            ["core", "--n", "3", "--", "2,1"],
            ["fermionic", "--n", "1", "--s", "0", "--t", "0", "--order", "3"],
        ],
        ids=lambda argv: " ".join(argv) or "empty",
    )
    def test_matches_a_parser_with_every_argument(self, capsys, monkeypatch, argv):
        got = _outcome(capsys, lambda: main(list(argv)))
        monkeypatch.setattr(cli, "_build_parser", _reference_parser)
        assert got == _outcome(capsys, lambda: main(list(argv)))

    def test_reads_sys_argv_when_argv_is_none(self, capsys, monkeypatch):
        argv = ["fermionic", "--n", "5", "--s", "0", "--t", "1", "--order", "15"]
        expected = _outcome(capsys, lambda: main(argv))
        monkeypatch.setattr(sys, "argv", ["slnbranch", *argv])
        assert _outcome(capsys, main) == expected
        monkeypatch.setattr(sys, "argv", ["slnbranch", "fermionic", "--help"])
        code, out, _ = _outcome(capsys, main)
        assert code == 0 and out.startswith("usage: slnbranch fermionic [-h] --n N")

    def test_other_subcommands_get_only_their_help(self):
        parser = cli._build_parser("fermionic")
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        added = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
        assert added.pop("fermionic") == ["help", "n", "s", "t", "order", "format"]
        assert all(dests == ["help"] for dests in added.values())

    def test_handler_is_looked_up_when_main_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_fermionic", lambda args: 7)
        assert main(["fermionic", "--n", "5", "--s", "0", "--t", "1", "--order", "3"]) == 7
