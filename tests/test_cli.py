import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from negaseq.cli import main
from negaseq.tuples import TupleClass

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


@pytest.fixture
def runner():
    return CliRunner()


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def _src_env():
    """Environment for a child interpreter that imports this checkout's src/."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestUsageErrors:
    def test_k_below_three_is_usage_error(self, runner):
        result = runner.invoke(main, ["bound", "--n", "2", "--k", "2"])
        assert result.exit_code == 2
        assert "k must be at least 3" in result.output

    def test_bad_range(self, runner):
        result = runner.invoke(main, ["table", "--n", "x..y", "--k", "3..4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n_text, k_text, reversed_text", [
        ("5..3", "3..4", "5..3"), ("2..3", "4..3", "4..3"),
    ], ids=["n", "k"])
    def test_reversed_range_is_usage_error(self, runner, n_text, k_text,
                                           reversed_text, fmt):
        result = runner.invoke(main, ["table", "--n", n_text, "--k", k_text,
                                      "--format", fmt])
        assert result.exit_code == 2
        assert repr(reversed_text) in result.output
        assert "Traceback" not in result.output

    def test_missing_required_option(self, runner):
        result = runner.invoke(main, ["bound", "--n", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, line", [
        ("0,1,1\n0,1,2,\n", "line 2"),  # trailing comma
        ("# header\n\n0,1,5\n", "line 3"),  # symbol out of range for k=3
    ])
    def test_verify_bad_line_is_usage_error(self, runner, text, line):
        result = runner.invoke(main, ["verify", "--n", "2", "--k", "3"], input=text)
        assert result.exit_code == 2
        assert line in result.output
        assert "Traceback" not in result.output

    # Symbols are ASCII decimal digits: no underscore, no full-width digit.
    @pytest.mark.parametrize("symbol", ["1_0", "\uff12"], ids=["underscore", "fullwidth"])
    @pytest.mark.parametrize("args, stdin", [
        (["verify", "--n", "2", "--k", "12"], "0,{},2\n"),
        (["classify", "--k", "12", "--tuple", "0,{},2"], None),
        (["profile", "--n", "4", "--k", "12", "--vertex", "0,{},2"], None),
        (["export-dot", "--n", "2", "--k", "12", "--sequence", "0,{},2"], None),
    ], ids=["verify", "classify", "profile", "export-dot"])
    def test_malformed_symbol_is_usage_error(self, runner, args, stdin, symbol):
        args = [a.format(symbol) for a in args]
        stdin = stdin and stdin.format(symbol)
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 2
        message = f"symbol {symbol!r} is not a decimal number"
        assert (f"line 1: {message}" if stdin else f"Error: {message}") in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args, stdin, message", [
        (["verify", "--n", "2", "--k", "3"], "0, 1 ,-1\n",
         "line 1: symbols (0, 1, -1) out of range for k=3"),
        (["verify", "--n", "2", "--k", "3"], "0,1,3\n",
         "line 1: symbols (0, 1, 3) out of range for k=3"),
        (["classify", "--k", "3", "--tuple", " -1,0"],
         None, "symbols (-1, 0) out of range for k=3"),
        (["profile", "--n", "3", "--k", "3", "--vertex", "0,3"],
         None, "symbols (0, 3) out of range for k=3"),
        (["export-dot", "--n", "2", "--k", "3", "--sequence", "0,1,-2"],
         None, "symbols (0, 1, -2) out of range for k=3"),
    ], ids=["verify-negative", "verify-range", "classify", "profile", "export-dot"])
    def test_symbol_out_of_range_message(self, runner, args, stdin, message):
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("option, value", [
        ("--budget", "0"), ("--time-budget", "0"), ("--time-budget", "-1"),
    ])
    def test_search_budget_must_be_positive(self, runner, option, value):
        result = runner.invoke(main, ["search", "--n", "3", "--k", "3", option, value])
        assert result.exit_code == 2
        assert "Traceback" not in result.output


class TestExitContract:
    """Library errors map to the README's 0/1/2/3 exit codes."""

    @pytest.mark.parametrize("args, code, message", [
        (["count", "--class", "uniform", "--n", "12", "--k", "9", "--enumerate"],
         3, "k^n = 282429536481 exceeds the enumeration budget of 10000000\n"),
        (["search", "--n", "30", "--k", "3"],
         3, "k^n = 205891132094649 exceeds the search bitmap budget of 16777216\n"),
        (["export-dot", "--n", "9", "--k", "5"],
         3, "1952500 edges exceed the DOT export budget of 100000\n"),
        (["export-dot", "--n", "2", "--k", "3", "--sequence", "0,1,2"],
         1, "window -S^R[0] duplicates S[1]: not an order-2 NOS\n"),
    ], ids=["count-enumerate", "search", "export-dot", "export-dot-not-nos"])
    def test_library_error_exit_code_and_message(self, runner, args, code, message):
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == message

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["edges", "bound"])
    def test_value_too_large_to_print_is_usage_error(self, runner, command, fmt):
        result = runner.invoke(main, [command, "--n", "5000", "--k", "9",
                                      "--format", fmt])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert f"Usage: main {command}" in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("args, n, k", [
        (["edges", "--n", "10000000", "--k", "9"], 10000000, 9),
        (["bound", "--n", "5000", "--k", "9", "--format", "json"], 5000, 9),
        (["table", "--n", "2..5000", "--k", "3..9"], 5000, 9),
    ], ids=["edges", "bound", "table"])
    def test_too_large_to_print_names_options_and_limit(self, runner, args, n, k):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: --n {n} with --k {k} gives a value of about " in result.output
        assert f"over this interpreter's limit of {limit} digits" in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["edges", "bound", "table"])
    def test_just_past_the_digit_limit_names_options_and_limit(
            self, runner, command, fmt):
        # Past the limit by one digit, under the up-front estimate: the
        # refusal comes from printing, in the same words.
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        n = limit + 1
        result = runner.invoke(main, [command, "--n", str(n), "--k", "10",
                                      "--format", fmt])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert (f"Error: --n {n} with --k 10 gives a value of about {n} digits, "
                f"over this interpreter's limit of {limit} digits") in result.output
        assert "set_int_max_str_digits" not in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("command", ["edges", "bound"])
    def test_value_at_the_digit_limit_still_prints(self, runner, command):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        result = runner.invoke(main, [command, "--n", str(limit), "--k", "10"])
        assert result.exit_code == 0
        assert len(result.stdout) == limit + 1  # all digits and a newline

    def test_reference_csv_directory_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["table", "--n", "2..3", "--k", "3..4",
                                      "--reference-csv", str(tmp_path)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"Error: {tmp_path}: " in result.output
        help_text = runner.invoke(main, ["table", "--help"]).output
        assert hashlib.sha256(help_text.encode()).hexdigest() == HELP_SHA256["table"]

    @pytest.mark.parametrize("args, option", [
        (["search", "--n", "3", "--k", "3", "--certificate"], "--certificate"),
        (["search", "--n", "3", "--k", "3", "--output"], "--output"),
        (["export-dot", "--n", "3", "--k", "3", "--output"], "--output"),
    ], ids=["search-certificate", "search-output", "export-dot-output"])
    def test_bad_output_path_fails_before_any_work(self, runner, tmp_path,
                                                    args, option):
        result = runner.invoke(main, args + [str(tmp_path / "missing" / "out")])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Invalid value for '{option}'" in result.output
        assert "elapsed" not in result.output


def test_cli_import_loads_no_numpy():
    env = _src_env()
    code = "import sys, negaseq.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# The negaseq modules a cold start of each command loads: the command's own
# modules and nothing else.  No command loads numpy or dataclasses (click
# does not load it either).  `export-dot --sequence` loads `verify` to parse
# the sequence.  Only a certificate loads hashlib (and OpenSSL with it), for
# its graph hash.
COLD_COMMANDS = {
    "classify": (["classify", "--k", "3", "--tuple", "1,0,2"], {"tuples"}),
    "count": (["count", "--class", "negasymmetric", "--n", "3", "--k", "3"],
              {"tuples"}),
    "edges": (["edges", "--n", "3", "--k", "3"], {"tuples", "graph"}),
    "profile": (["profile", "--n", "3", "--k", "4", "--vertex", "0,0"],
                {"tuples", "graph"}),
    "bound": (["bound", "--n", "5", "--k", "3"], {"tuples", "graph", "bounds"}),
    "table": (["table", "--n", "2..4", "--k", "3..5", "--check-reference"],
              {"tuples", "graph", "bounds"}),
    "verify": (["verify", "--n", "2", "--k", "3"], {"tuples", "verify"}),
    "export-dot": (["export-dot", "--n", "3", "--k", "3"], {"tuples", "graph"}),
    "export-dot-sequence": (["export-dot", "--n", "2", "--k", "3",
                             "--sequence", "0,1,1"],
                            {"tuples", "graph", "verify"}),
    "search": (["search", "--n", "3", "--k", "3"],
               {"tuples", "graph", "bounds", "verify", "search"}),
    "search-certificate": (["search", "--n", "3", "--k", "3",
                            "--certificate", "cert.txt"],
                           {"tuples", "graph", "bounds", "verify", "search"}),
}


@pytest.mark.parametrize("args, modules", COLD_COMMANDS.values(),
                         ids=list(COLD_COMMANDS))
def test_cold_command_loads_only_its_modules(args, modules, tmp_path):
    env = _src_env()
    code = ("import sys\nfrom negaseq.cli import main\n"
            "try:\n    main(sys.argv[1:], standalone_mode=False)\n"
            "finally:\n    print(*sorted(sys.modules), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            cwd=tmp_path, input="0,1,1\n",
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    loaded = set(result.stderr.split())
    assert {m for m in loaded if m.startswith("negaseq")} == (
        {"negaseq", "negaseq.cli", "negaseq.errors"}
        | {f"negaseq.{m}" for m in modules})
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded
    hashing = "--certificate" in args
    assert bool({"hashlib", "_hashlib"} & loaded) == hashing
    if hashing:  # the (3, 3) graph hash pinned in tests/test_search.py
        assert ("graph_edges_sha256=20368f81d1a6ee4d84708b6b12ae0cdd"
                "09bf0f21d3f0af5e937117db72a6ec93\n") in (
                    tmp_path / "cert.txt").read_text()


# SHA-256 of each command's --help as CliRunner renders it, recorded before
# the commands imported their modules lazily; the text must not change.
# `search` was re-recorded when its --symmetry and --prune toggles went.
HELP_SHA256 = {
    "": "3c5ed6193e0ec143d046f3b23f17128fcd37f09c8bb2bf4ada6a5cbc90f0ebcc",
    "classify": "00dce68368d28deeb37d96709caeada700c3e24b8484e5d5f91f3ee3d5988348",
    "count": "fcede7d2147f988903f0a00a6d92aacd2731ec5ea99e3f7a633bee051dd8e845",
    "edges": "34afde5c7f07f0b3e6d473efdc374f896aa8024c9e530debef1cad3a7db67150",
    "profile": "db289a6829ca6077bea033a678047e9cbd1c80293b48e4156a14907e36fa5348",
    "bound": "161540a87615c2478e74a204e18ce10da93a6f60e532a638ea90d779dc72709f",
    "table": "55426b02c1dec4c58ecb9839aef0437d3fb0822c2274b1546b166eb598815422",
    "verify": "736ac08d66d2670d3104eed83fb4dfe26ed80e5df871097e919cba42b357b36f",
    "search": "849ddc7cbe848bd0fd537c36fec8698afd108f02c8ed455013cc967b51998e1e",
    "export-dot": "4675154d02f738cc95115e4b676bc5b95e8e61eeb11190a94ab1c19edfd34b4c",
}


class TestHelp:
    def test_search_help_shows_default_budget(self, runner):
        from negaseq.search import DEFAULT_NODE_BUDGET

        result = runner.invoke(main, ["search", "--help"])
        assert result.exit_code == 0
        assert f"[default: {DEFAULT_NODE_BUDGET}; x>=1]" in " ".join(result.output.split())

    def test_default_budget_reaches_the_search(self, runner, monkeypatch):
        from negaseq import search as search_mod

        seen = []
        original = search_mod.max_nos_search
        monkeypatch.setattr(search_mod, "max_nos_search",
                            lambda cfg: seen.append(cfg.node_budget) or original(cfg))
        assert runner.invoke(main, ["search", "--n", "2", "--k", "3"]).exit_code == 0
        assert seen == [search_mod.DEFAULT_NODE_BUDGET]

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_text_unchanged(self, runner, command):
        result = runner.invoke(main, [command, "--help"] if command else ["--help"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == HELP_SHA256[command]


class TestClassify:
    def test_text(self, runner):
        result = runner.invoke(main, ["classify", "--k", "3", "--tuple", "1,0,2"])
        assert result.exit_code == 0
        assert "negasymmetric: True" in result.output

    def test_json(self, runner):
        result = runner.invoke(
            main, ["classify", "--k", "3", "--tuple", "1,0,2", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["flags"]["negasymmetric"] is True

    def test_one_tuple_leaves_sns_undefined(self, runner):
        result = runner.invoke(main, ["classify", "--k", "3", "--tuple", "1"])
        assert result.exit_code == 0
        assert "  left_sns: None\n  right_sns: None\n" in result.output
        assert "  alternating: False\n" in result.output
        result = runner.invoke(
            main, ["classify", "--k", "3", "--tuple", "1", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["flags"]["left_sns"] is None
        assert payload["flags"]["right_sns"] is None
        assert payload["flags"]["alternating"] is False


class TestCount:
    def test_text(self, runner):
        result = runner.invoke(
            main, ["count", "--class", "negasymmetric", "--n", "3", "--k", "3"])
        assert result.exit_code == 0
        assert result.output == "3\n"

    def test_enumerate_cross_check(self, runner):
        result = runner.invoke(
            main, ["count", "--class", "uniform", "--n", "4", "--k", "5",
                   "--enumerate", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        validate(payload)
        assert payload["count"] == payload["enumerated"] == 5
        assert payload["matches"] is True

    def test_unknown_class_rejected(self, runner):
        result = runner.invoke(
            main, ["count", "--class", "bogus", "--n", "3", "--k", "3"])
        assert result.exit_code == 2

    def test_n_below_minimum_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["count", "--class", "uniform", "--n", "1", "--k", "3"])
        assert result.exit_code == 2


class TestBoundAndTable:
    def test_bound_text(self, runner):
        result = runner.invoke(main, ["bound", "--n", "5", "--k", "3"])
        assert result.exit_code == 0
        assert result.output == "105\n"

    def test_bound_json_breakdown(self, runner):
        result = runner.invoke(
            main, ["bound", "--n", "5", "--k", "3", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["bound"] == 105
        assert payload["breakdown"]["edge_cap"] == 210

    def test_table_check_reference_passes(self, runner):
        result = runner.invoke(
            main, ["table", "--n", "2..9", "--k", "3..9", "--check-reference"])
        assert result.exit_code == 0
        assert "!" not in result.output

    def test_table_json(self, runner):
        result = runner.invoke(
            main, ["table", "--n", "2..3", "--k", "3..4", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert len(payload) == 4

    @pytest.mark.parametrize("text, message", [
        ("n,k,new_bound\n2,3,3\n", "line 2: no value in column 'old_bound'"),
        ("# comment\nn,k,new_bound,old_bound,best_known,maximal\n2,3,x,3,3,1\n",
         "line 3: column 'new_bound' is not an integer: 'x'"),
    ], ids=["missing-column", "non-integer"])
    def test_malformed_reference_csv_is_usage_error(self, runner, tmp_path,
                                                    text, message):
        path = tmp_path / "reference.csv"
        path.write_text(text)
        result = runner.invoke(
            main, ["table", "--n", "2", "--k", "3", "--reference-csv", str(path)])
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output

    def test_missing_packaged_csv_is_named(self, runner, tmp_path, monkeypatch):
        from types import SimpleNamespace

        from negaseq import bounds

        monkeypatch.setattr(bounds, "resources",
                            SimpleNamespace(files=lambda package: tmp_path))
        result = runner.invoke(main, ["table", "--n", "2..3", "--k", "3..4"])
        assert result.exit_code == 2
        assert result.output.endswith(
            "Error: packaged reference_bounds.csv: No such file or directory\n")

    def test_table_single_value_range(self, runner):
        result = runner.invoke(main, ["table", "--n", "2", "--k", "3"])
        assert result.exit_code == 0
        assert "3" in result.output


class TestEdgesAndProfile:
    def test_edges(self, runner):
        result = runner.invoke(main, ["edges", "--n", "3", "--k", "3"])
        assert result.output == "24\n"

    def test_profile_json(self, runner):
        result = runner.invoke(
            main, ["profile", "--n", "3", "--k", "3", "--vertex", "0,0",
                   "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["in_degree"] == 2
        assert payload["out_degree"] == 2
        assert payload["flags"]["left_sns"] and payload["flags"]["right_sns"]

    def test_profile_parity(self, runner):
        # At k=4, (0,0) is left- and right-sns (degrees k-1 both ways) and
        # (1,2) is right-sns only (2 = -2 mod 4).
        for vertex, in_degree, in_parity, out_degree, out_parity in [
                ("0,0", 3, "odd", 3, "odd"), ("1,2", 4, "even", 3, "odd")]:
            args = ["profile", "--n", "3", "--k", "4", "--vertex", vertex]
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.output.startswith(
                f"vertex {vertex}: in={in_degree} ({in_parity}), "
                f"out={out_degree} ({out_parity})\n")
            payload = json.loads(
                runner.invoke(main, args + ["--format", "json"]).output)
            validate(payload)
            assert (payload["in_degree"], payload["in_parity"],
                    payload["out_degree"], payload["out_parity"]) == (
                in_degree, in_parity, out_degree, out_parity)

    def test_profile_length_one_label(self, runner):
        args = ["profile", "--n", "2", "--k", "4", "--vertex", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "left_sns=True right_sns=True" in result.output
        payload = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        validate(payload)
        assert payload["flags"]["left_sns"] is True
        assert payload["flags"]["right_sns"] is True
        assert payload["flags"]["alternating"] is False

    def test_profile_wrong_length(self, runner):
        result = runner.invoke(
            main, ["profile", "--n", "3", "--k", "3", "--vertex", "0,0,0"])
        assert result.exit_code == 2


class TestVerify:
    def test_valid_from_stdin(self, runner):
        result = runner.invoke(main, ["verify", "--n", "2", "--k", "3"],
                               input="0,1,1\n")
        assert result.exit_code == 0
        assert result.output == "valid NOS, period 3\n"

    def test_invalid_exits_one(self, runner):
        result = runner.invoke(main, ["verify", "--n", "2", "--k", "3"],
                               input="0,0,1\n")
        assert result.exit_code == 1
        assert "negasymmetric-window" in result.output

    def test_seed_file_and_json(self, runner, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# two candidates\n0,1,1\n0,1,2\n")
        result = runner.invoke(
            main, ["verify", "--n", "2", "--k", "3", "--seed-file", str(path),
                   "--format", "json"])
        assert result.exit_code == 1  # second candidate is invalid
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        for payload in payloads:
            validate(payload)
        assert payloads[0]["valid"] is True
        assert payloads[1]["valid"] is False

    def test_window_property(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "2", "--k", "3", "--property", "window"],
            input="0,1,2\n")
        assert result.exit_code == 0
        assert "valid window sequence" in result.output


class TestSearch:
    def test_search_text(self, runner):
        result = runner.invoke(main, ["search", "--n", "2", "--k", "4"])
        assert result.exit_code == 0
        assert "period 5 (optimal), bound 5" in result.output

    def test_search_json_and_round_trip(self, runner):
        result = runner.invoke(
            main, ["search", "--n", "2", "--k", "5", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        validate(payload)
        verify = runner.invoke(main, ["verify", "--n", "2", "--k", "5"],
                               input=payload["sequence"] + "\n")
        assert verify.exit_code == 0

    def test_search_deterministic_stdout(self, runner):
        args = ["search", "--n", "3", "--k", "3", "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("flag", ["--symmetry", "--no-symmetry",
                                      "--prune", "--no-prune"])
    def test_removed_toggles_are_usage_errors(self, runner, flag):
        result = runner.invoke(main, ["search", "--n", "2", "--k", "3", flag])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "No such option" in result.output and flag in result.output
        assert "Traceback" not in result.output

    def test_nothing_found_text(self, runner):
        """A search that records no walk says so in words, not `None`,
        keeps JSON's null, and exits 1."""
        args = ["search", "--n", "3", "--k", "4", "--budget", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ("period 0 (budget exhausted), bound 25\n"
                                 "no sequence found\n")
        result = runner.invoke(main, args + ["--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["sequence"] is None

    def test_budget_exhausted_exits_three(self, runner):
        result = runner.invoke(
            main, ["search", "--n", "3", "--k", "4", "--budget", "2000"])
        assert result.exit_code == 3

    def test_certificate_written(self, runner, tmp_path):
        cert = tmp_path / "cert.txt"
        result = runner.invoke(
            main, ["search", "--n", "2", "--k", "3", "--certificate", str(cert)])
        assert result.exit_code == 0
        text = cert.read_text()
        assert "period=3" in text
        assert "optimal=true" in text

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(
            main, ["search", "--n", "2", "--k", "3", "--format", "json",
                   "--output", str(out)])
        assert result.exit_code == 0
        validate(json.loads(out.read_text()))


def _readme_cli_lines():
    """The `negaseq ...` lines of the README's CLI code block."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("negaseq ")]


@pytest.mark.parametrize("line", _readme_cli_lines(),
                         ids=lambda line: line.split()[1])
def test_readme_cli_example_runs(runner, line):
    with runner.isolated_filesystem():
        Path("seqs.txt").write_text("0,1,1\n")  # an order-2 NOS over Z_3
        result = runner.invoke(main, shlex.split(line, comments=True)[1:])
    assert result.exit_code == 0, result.output


class TestExportDot:
    def test_full_graph(self, runner):
        result = runner.invoke(main, ["export-dot", "--n", "2", "--k", "3"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        again = runner.invoke(main, ["export-dot", "--n", "2", "--k", "3"])
        assert again.output == result.output

    def test_sequence_subgraph(self, runner):
        result = runner.invoke(
            main, ["export-dot", "--n", "2", "--k", "3", "--sequence", "0,1,1"])
        assert result.exit_code == 0
        assert result.output.count("->") == 6

    def test_full_graph_loads_no_numpy(self, tmp_path):
        env = _src_env()
        out = tmp_path / "graph.dot"
        code = ("import sys\nfrom negaseq.cli import main\n"
                f"main(['export-dot', '--n', '3', '--k', '3', '--output', {str(out)!r}],"
                " standalone_mode=False)\nprint('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        assert result.stdout.strip() == "False"
        assert out.read_text().count("->") == 24

    def test_subgraph_vertex_budget_exits_three(self, runner):
        # Six edges, but one vertex statement for each of 3^11 vertices.
        result = runner.invoke(
            main, ["export-dot", "--n", "12", "--k", "3", "--sequence", "0,1,1"])
        assert result.exit_code == 3
        assert "177147 vertices exceed the DOT export budget" in result.output

    def test_non_nos_sequence_exits_one(self, runner):
        result = runner.invoke(
            main, ["export-dot", "--n", "2", "--k", "3", "--sequence", "0,0,1"])
        assert result.exit_code == 1


# -- fuzz: every subcommand keeps the exit-code contract ------------------

GARBAGE = st.sampled_from(["", " ", "x", "-", "1.5", "0x3", "3e1", "1,,2",
                           "2..", "..", "..3", "3..x", "\u0663"])
SMALL_N = st.one_of(st.integers(-1, 5).map(str), GARBAGE)
SMALL_K = st.one_of(st.integers(0, 7).map(str), GARBAGE)
SYMBOLS = st.one_of(st.lists(st.integers(-1, 8), max_size=7).map(
    lambda xs: ",".join(map(str, xs))), GARBAGE)
RANGE = st.one_of(st.tuples(st.integers(0, 6), st.integers(0, 8)).map(
    lambda ab: f"{ab[0]}..{ab[1]}"), st.integers(0, 6).map(str), GARBAGE)
CLASS = st.one_of(st.sampled_from([c.value for c in TupleClass]), GARBAGE)
FORMAT = st.sampled_from(["text", "json"])


@st.composite
def invocations(draw):
    """(args, stdin) for one run of a random subcommand on small inputs."""
    command = draw(st.sampled_from(["classify", "count", "edges", "profile",
                                    "bound", "table", "verify", "search",
                                    "export-dot"]))
    if command == "table":
        args = ["--n", draw(RANGE), "--k", draw(RANGE)]
        args += draw(st.sampled_from([[], ["--check-reference"]]))
    elif command == "classify":
        args = ["--k", draw(SMALL_K), "--tuple", draw(SYMBOLS)]
    else:
        args = ["--n", draw(SMALL_N), "--k", draw(SMALL_K)]
    if command == "count":
        args += ["--class", draw(CLASS)]
        args += draw(st.sampled_from([[], ["--enumerate"]]))
    elif command == "profile":
        args += ["--vertex", draw(SYMBOLS)]
    elif command == "search":
        args += ["--budget", str(draw(st.integers(-1, 1000)))]
    elif command == "export-dot":
        args += draw(st.one_of(st.just([]), SYMBOLS.map(lambda s: ["--sequence", s])))
    elif command == "verify":
        args += ["--property", draw(st.sampled_from(["window", "nos", "os"]))]
    if command != "export-dot":
        args += ["--format", draw(FORMAT)]
    stdin = "".join(line + "\n" for line in draw(st.lists(SYMBOLS, max_size=3)))
    return [command] + args, stdin


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocations())
def test_fuzz_exit_codes_follow_the_contract(invocation):
    args, stdin = invocation
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    assert "Traceback" not in result.output
