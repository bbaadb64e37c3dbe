import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli, src_env
from negaseq.tuples import TupleClass

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


class TestUsageErrors:
    def test_k_below_three_is_usage_error(self):
        result = run_cli(["bound", "--n", "2", "--k", "2"])
        assert result.exit_code == 2
        assert "k must be at least 3" in result.output

    # An integer option reads as a symbol does: no underscore, no full-width digit.
    @pytest.mark.parametrize("k", ["abc", "3.5", "1_0", "\uff13"])
    def test_k_not_an_integer_keeps_clicks_message(self, k):
        result = run_cli(["bound", "--n", "2", "--k", k])
        assert result.exit_code == 2
        assert f"Invalid value for '--k': {k!r} is not a valid integer." in result.output
        assert "k must be at least 3" not in result.output
        for option, args in [("--n", ["bound", "--k", "3", "--n", k]),
                             ("--budget", ["search", "--n", "2", "--k", "3", "--budget", k])]:
            result = run_cli(args)
            assert result.exit_code == 2
            assert f"Invalid value for '{option}': {k!r} is not a valid integer." in result.output

    def test_bad_range(self):
        for text in ["x..y", "1_0", "\uff13", "2..1_0"]:
            for args in (["--n", text, "--k", "3..4"], ["--n", "2..3", "--k", text]):
                result = run_cli(["table", *args])
                assert result.exit_code == 2
                assert f"Error: bad range {text!r}; expected a..b" in result.output

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n_text, k_text, reversed_text", [
        ("5..3", "3..4", "5..3"), ("2..3", "4..3", "4..3"),
    ], ids=["n", "k"])
    def test_reversed_range_is_usage_error(self, n_text, k_text,
                                           reversed_text, fmt):
        result = run_cli(["table", "--n", n_text, "--k", k_text,
                          "--format", fmt])
        assert result.exit_code == 2
        assert repr(reversed_text) in result.output
        assert "Traceback" not in result.output

    def test_missing_required_option(self):
        result = run_cli(["bound", "--n", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, line", [
        ("0,1,1\n0,1,2,\n", "line 2"),  # trailing comma
        ("# header\n\n0,1,5\n", "line 3"),  # symbol out of range for k=3
    ])
    def test_verify_bad_line_is_usage_error(self, text, line):
        result = run_cli(["verify", "--n", "2", "--k", "3"], input=text)
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
    def test_malformed_symbol_is_usage_error(self, args, stdin, symbol):
        args = [a.format(symbol) for a in args]
        stdin = stdin and stdin.format(symbol)
        result = run_cli(args, input=stdin)
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
    def test_symbol_out_of_range_message(self, args, stdin, message):
        result = run_cli(args, input=stdin)
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("option, value", [
        ("--budget", "0"), ("--time-budget", "0"), ("--time-budget", "-1"),
        ("--time-budget", "nan"),
    ])
    def test_search_budget_must_be_positive(self, option, value):
        result = run_cli(["search", "--n", "3", "--k", "3", option, value])
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
        # Counts past the interpreter's digit limit are named by their power,
        # and k^n is not worked out to test it.
        (["count", "--class", "left-sns", "--n", "5000", "--k", "9", "--enumerate"],
         3, "k^n = 9^5000 exceeds the enumeration budget of 10000000\n"),
        (["search", "--n", "5000", "--k", "9"],
         3, "k^n = 9^5000 exceeds the search bitmap budget of 16777216\n"),
        (["search", "--n", "100000000", "--k", "9"],
         3, "k^n = 9^100000000 exceeds the search bitmap budget of 16777216\n"),
        (["export-dot", "--n", "5000", "--k", "9"],
         3, "about 9^5000 edges exceed the DOT export budget of 100000\n"),
        (["export-dot", "--n", "100000000", "--k", "9"],
         3, "about 9^100000000 edges exceed the DOT export budget of 100000\n"),
    ], ids=["count-enumerate", "search", "export-dot", "export-dot-not-nos",
            "count-enumerate-5000", "search-5000", "search-1e8",
            "export-dot-5000", "export-dot-1e8"])
    def test_library_error_exit_code_and_message(self, args, code, message):
        result = run_cli(args)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == message

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["edges", "bound"])
    def test_value_too_large_to_print_is_usage_error(self, command, fmt):
        result = run_cli([command, "--n", "5000", "--k", "9",
                          "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Usage: negaseq {command}" in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("args, n, k", [
        (["edges", "--n", "10000000", "--k", "9"], 10000000, 9),
        (["bound", "--n", "5000", "--k", "9", "--format", "json"], 5000, 9),
        (["table", "--n", "2..5000", "--k", "3..9"], 5000, 9),
        (["count", "--class", "negasymmetric", "--n", "10000", "--k", "9"], 10000, 9),
        (["count", "--class", "non-uniform-left-sns", "--n", "200000000", "--k", "9",
          "--format", "json"], 200000000, 9),
    ], ids=["edges", "bound", "table", "count", "count-2e8"])
    def test_too_large_to_print_names_options_and_limit(self, args, n, k):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: --n {n} with --k {k} gives a value of about " in result.output
        assert f"over this interpreter's limit of {limit} digits" in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["edges", "bound", "table"])
    def test_just_past_the_digit_limit_names_options_and_limit(
            self, command, fmt):
        # Past the limit by one digit, under the up-front estimate: the
        # refusal comes from printing, in the same words.
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        n = limit + 1
        result = run_cli([command, "--n", str(n), "--k", "10",
                          "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert (f"Error: --n {n} with --k 10 gives a value of about {n} digits, "
                f"over this interpreter's limit of {limit} digits") in result.output
        assert "set_int_max_str_digits" not in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_just_past_the_digit_limit_names_options_and_limit(
            self, fmt):
        # left-sns at odd n and k = 10 is 10^((n+1)/2): at n = 2*limit + 1 it
        # has limit + 2 digits, under the up-front estimate of about k^(n//2).
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        n = 2 * limit + 1
        result = run_cli(["count", "--class", "left-sns", "--n", str(n),
                          "--k", "10", "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert (f"Error: --n {n} with --k 10 gives a value of about {limit} digits, "
                f"over this interpreter's limit of {limit} digits") in result.output

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints integers of any size")
    @pytest.mark.parametrize("command", ["edges", "bound"])
    def test_value_at_the_digit_limit_still_prints(self, command):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("the digit limit is switched off")
        result = run_cli([command, "--n", str(limit), "--k", "10"])
        assert result.exit_code == 0
        assert len(result.stdout) == limit + 1  # all digits and a newline

    def test_reference_csv_directory_is_usage_error(self, tmp_path):
        result = run_cli(["table", "--n", "2..3", "--k", "3..4",
                          "--reference-csv", str(tmp_path)])
        assert result.exit_code == 2
        assert f"Error: {tmp_path}: " in result.output
        help_text = run_cli(["table", "--help"]).output
        assert hashlib.sha256(help_text.encode()).hexdigest() == HELP_SHA256["table"]

    @pytest.mark.parametrize("args, option", [
        (["search", "--n", "3", "--k", "3", "--certificate"], "--certificate"),
        (["search", "--n", "3", "--k", "3", "--output"], "--output"),
        (["export-dot", "--n", "3", "--k", "3", "--output"], "--output"),
    ], ids=["search-certificate", "search-output", "export-dot-output"])
    def test_bad_output_path_fails_before_any_work(self, tmp_path,
                                                    args, option):
        result = run_cli(args + [str(tmp_path / "missing" / "out")])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Invalid value for '{option}'" in result.output
        assert "elapsed" not in result.output


def test_cli_import_loads_no_numpy():
    env = src_env()
    code = "import sys, negaseq.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# The negaseq modules a cold start of each command loads: the command's own
# modules and nothing else.  No command loads click, numpy or dataclasses.
# `--help` builds no parser but the one asked for, so neither help loads
# `search` for the default budget.  `export-dot --sequence` loads `verify`
# to parse the sequence.  A (3, 3) search reaches its k^n-th expansion and
# loads `flow` for the flow bound.  No command loads OpenSSL (`_hashlib`):
# the certificate's graph hash uses the interpreter's own SHA-256.
COLD_COMMANDS = {
    "help": (["--help"], {"tuples"}),
    "classify-help": (["classify", "--help"], {"tuples"}),
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
               {"tuples", "graph", "bounds", "verify", "search", "flow"}),
    "search-certificate": (["search", "--n", "3", "--k", "3",
                            "--certificate", "cert.txt"],
                           {"tuples", "graph", "bounds", "verify", "search",
                            "flow"}),
}


@pytest.mark.parametrize("args, modules", COLD_COMMANDS.values(),
                         ids=list(COLD_COMMANDS))
def test_cold_command_loads_only_its_modules(args, modules, tmp_path):
    env = src_env()
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
    assert "click" not in loaded
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded
    assert "_hashlib" not in loaded
    if "--certificate" in args:  # the (3, 3) graph hash pinned in tests/test_search.py
        assert ("graph_edges_sha256=20368f81d1a6ee4d84708b6b12ae0cdd"
                "09bf0f21d3f0af5e937117db72a6ec93\n") in (
                    tmp_path / "cert.txt").read_text()


# SHA-256 of each command's --help.  Re-recorded when the front end moved
# from click to argparse, with the same options, help strings, choices and
# defaults; the text is 78 columns wide on any terminal, and the same on
# Python 3.10 to 3.13.
HELP_SHA256 = {
    "": "e0db28014672f13a7859ec5a83a6771763b4d7ba39f67b9a2aecba6c6c09cefa",
    "classify": "608572a3e1fdb3d7e3267992c5b3c6458d8c299b2ea179a5f30ef9447d166e69",
    "count": "fb10dca05720a76036980087416059e3c06ee843d6164c356a8e5ba5e5c7a3a2",
    "edges": "5d1679f8e137c3d734c30da92574f32132a3413358571919c6c9c06c39f52b02",
    "profile": "e2466fee8b72fea98bbd41fd344a4e18123a744bd8382146aa6d8ffebe0e68ae",
    "bound": "bd0dad55d8de98f680bcacf3a5d63e23014283514af581a4753028617abec29b",
    "table": "26ff159ca32fd0422b651b325c18bce76b76cbcf5a0c6f9b8c75cc8404fb7c8f",
    "verify": "a239c11cdea3c790809465439a5a8b2f79e349f21197f8dcfa4f25c7a25b2aff",
    "search": "953c91f2d3bd5c1bf8c29cfd246c0fcc1c45dc8a36c8b140924c8c54a556fd47",
    "export-dot": "a3d449811a7cc0fd2fc167562a040e4513855ad2db3cf68ede2a8088583aba2f",
}


class TestHelp:
    def test_search_help_shows_default_budget(self):
        from negaseq.search import DEFAULT_NODE_BUDGET

        result = run_cli(["search", "--help"])
        assert result.exit_code == 0
        assert f"(default: {DEFAULT_NODE_BUDGET})" in " ".join(result.output.split())

    def test_default_budget_reaches_the_search(self, monkeypatch):
        from negaseq import search as search_mod

        seen = []
        original = search_mod.max_nos_search
        monkeypatch.setattr(search_mod, "max_nos_search",
                            lambda cfg: seen.append(cfg.node_budget) or original(cfg))
        assert run_cli(["search", "--n", "2", "--k", "3"]).exit_code == 0
        assert seen == [search_mod.DEFAULT_NODE_BUDGET]

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_text_unchanged(self, command):
        result = run_cli([command, "--help"] if command else ["--help"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == HELP_SHA256[command]


class TestClassify:
    def test_text(self):
        result = run_cli(["classify", "--k", "3", "--tuple", "1,0,2"])
        assert result.exit_code == 0
        assert "negasymmetric: True" in result.output

    def test_json(self):
        result = run_cli(
            ["classify", "--k", "3", "--tuple", "1,0,2", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["flags"]["negasymmetric"] is True

    def test_one_tuple_is_sns_and_not_alternating(self):
        # Its empty prefix and suffix are negasymmetric.
        result = run_cli(["classify", "--k", "3", "--tuple", "1"])
        assert result.exit_code == 0
        assert "  left_sns: True\n  right_sns: True\n" in result.output
        assert "  alternating: False\n" in result.output
        result = run_cli(
            ["classify", "--k", "3", "--tuple", "1", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["flags"]["left_sns"] is True
        assert payload["flags"]["right_sns"] is True
        assert payload["flags"]["alternating"] is False

    @pytest.mark.parametrize("n, k", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
    def test_flags_match_profile(self, n, k):
        def flags(*args):
            result = run_cli([*args, "--k", str(k), "--format", "json"])
            return json.loads(result.output)["flags"]

        for label in itertools.product(range(k), repeat=n - 1):
            text = ",".join(map(str, label))
            assert flags("classify", "--tuple", text) == \
                flags("profile", "--n", str(n), "--vertex", text), text

    @pytest.mark.parametrize("n, k", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
    def test_flag_order_matches_profile(self, n, k):
        """`profile`'s text line lists the flags in `classify`'s order."""
        for label in itertools.product(range(k), repeat=n - 1):
            text = ",".join(map(str, label))
            lines = run_cli(["classify", "--k", str(k), "--tuple",
                             text]).output.splitlines()[1:]
            pairs = run_cli(["profile", "--n", str(n), "--k", str(k),
                             "--vertex", text]).output.splitlines()[1].split()
            assert [line.split(":")[0].strip() for line in lines] == \
                [pair.split("=")[0] for pair in pairs], text


    def test_huge_k_answers_at_once(self):
        """No table indexed by symbol: classify and profile at k = 10^21."""
        k = 10**21
        start = time.process_time()
        classify = run_cli(["classify", "--k", str(k), "--tuple", f"1,0,{k - 1}",
                            "--format", "json"])
        profile = run_cli(["profile", "--n", "3", "--k", str(k), "--vertex", "0,0"])
        assert time.process_time() - start < 1
        assert classify.exit_code == profile.exit_code == 0
        assert json.loads(classify.stdout)["flags"] == {
            "negasymmetric": True, "uniform": False, "alternating": False,
            "uniform_alternating": False, "left_sns": False, "right_sns": False}
        assert profile.stdout.startswith(f"vertex 0,0: in={k - 1} (odd), out={k - 1} (odd)\n")


class TestCount:
    def test_text(self):
        result = run_cli(
            ["count", "--class", "negasymmetric", "--n", "3", "--k", "3"])
        assert result.exit_code == 0
        assert result.output == "3\n"

    def test_enumerate_cross_check(self):
        result = run_cli(
            ["count", "--class", "uniform", "--n", "4", "--k", "5",
             "--enumerate", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        validate(payload)
        assert payload["count"] == payload["enumerated"] == 5
        assert payload["matches"] is True

    def test_enumerate_mismatch_exits_one(self, monkeypatch):
        from negaseq import tuples

        real = tuples.count_class
        monkeypatch.setattr(tuples, "count_class", lambda *a: real(*a) + 1)
        result = run_cli(
            ["count", "--class", "uniform", "--n", "4", "--k", "5",
             "--enumerate", "--format", "json"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert (payload["count"], payload["enumerated"]) == (6, 5)
        assert payload["matches"] is False
        assert result.stderr == "enumeration found 5 words, the closed form gives 6\n"

    def test_enumerate_mismatch_names_both_counts_in_text(self, monkeypatch):
        """stdout keeps its bytes: the closed-form value alone."""
        from negaseq import tuples

        real = tuples.count_class
        monkeypatch.setattr(tuples, "count_class", lambda *a: real(*a) + 1)
        result = run_cli(
            ["count", "--class", "uniform", "--n", "4", "--k", "5", "--enumerate"])
        assert result.exit_code == 1
        assert result.stdout == "6\n"
        assert result.stderr == "enumeration found 5 words, the closed form gives 6\n"

    def test_unknown_class_rejected(self):
        result = run_cli(
            ["count", "--class", "bogus", "--n", "3", "--k", "3"])
        assert result.exit_code == 2

    # Each class whose count does not grow with n, at n = 10^9 and k = 9.
    @pytest.mark.parametrize("class_name, value", [
        ("uniform", 9), ("alternating", 72), ("uniform-alternating", 9),
        ("uniform-and-uniform-alternating", 1), ("uniform-negasymmetric", 1),
        ("uniform-alternating-negasymmetric", 9), ("alternating-negasymmetric", 8),
    ])
    def test_constant_count_answers_at_any_n(self, class_name, value):
        result = run_cli(["count", "--class", class_name,
                          "--n", "1000000000", "--k", "9"])
        assert result.exit_code == 0
        assert result.output == f"{value}\n"

    def test_n_below_minimum_is_usage_error(self):
        result = run_cli(
            ["count", "--class", "uniform", "--n", "1", "--k", "3"])
        assert result.exit_code == 2


class TestBoundAndTable:
    def test_bound_text(self):
        result = run_cli(["bound", "--n", "5", "--k", "3"])
        assert result.exit_code == 0
        assert result.output == "105\n"

    def test_bound_json_breakdown(self):
        result = run_cli(
            ["bound", "--n", "5", "--k", "3", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["bound"] == 105
        assert payload["breakdown"]["edge_cap"] == 210

    # SHA-256 of the concatenated output of `bound` over n = 2..15 and
    # k = 3..15 in each format, recorded when the command listed the
    # breakdown's keys by hand.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "ae85dc907020719fb042782d62790e5cdd5e8bdc2d85325518a6d363755411d4"),
        ("text", "889b917e74890fcc5362cdbf781abcb883dcd51d59383658764ea95bf6668b5e"),
    ])
    def test_bound_output_pinned(self, fmt, digest):
        sha = hashlib.sha256()
        for n in range(2, 16):
            for k in range(3, 16):
                result = run_cli(["bound", "--n", str(n), "--k", str(k),
                                  "--format", fmt])
                assert result.exit_code == 0, (n, k, result.output)
                sha.update(result.output.encode())
        assert sha.hexdigest() == digest

    def test_table_check_reference_passes(self):
        result = run_cli(
            ["table", "--n", "2..9", "--k", "3..9", "--check-reference"])
        assert result.exit_code == 0
        assert "!" not in result.output

    def test_table_check_reference_mismatch_exits_one(self, tmp_path):
        from importlib import resources

        text = (resources.files("negaseq") / "data"
                / "reference_bounds.csv").read_text()
        assert text.count("\n2,5,10,") == 1
        path = tmp_path / "reference.csv"
        path.write_text(text.replace("\n2,5,10,", "\n2,5,11,"))
        result = run_cli(["table", "--n", "2..3", "--k", "3..5",
                          "--check-reference", "--reference-csv",
                          str(path)])
        assert result.exit_code == 1
        assert result.stderr == "mismatch at n=2, k=5: computed 10, reference 11\n"
        assert result.stdout.count("!") == 1
        assert "  10!" in result.stdout

    def test_best_known_above_the_bound_is_a_mismatch(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text("n,k,new_bound,old_bound,best_known,maximal\n5,3,105,106,200,1\n")
        result = run_cli(["table", "--n", "5", "--k", "3",
                          "--check-reference", "--reference-csv",
                          str(path)])
        assert result.exit_code == 1
        assert result.stderr == ("mismatch at n=5, k=3: best_known 200 exceeds "
                                 "the computed bound 105\n")
        assert result.stdout == "n   k=3\n5  105!\n"

    def test_table_json(self):
        result = run_cli(
            ["table", "--n", "2..3", "--k", "3..4", "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert len(payload) == 4

    @pytest.mark.parametrize("text, message", [
        ("n,k,new_bound\n2,3,3\n", "line 2: no value in column 'old_bound'"),
        ("# comment\nn,k,new_bound,old_bound,best_known,maximal\n2,3,x,3,3,1\n",
         "line 3: column 'new_bound' is not an integer: 'x'"),
        ("a,b\n", "line 1: no column 'n'"),
        ("n,k,new_bound,old_bound,best_known,maximal\n5,3,999,999,,\n5,3,105,106,,\n",
         "line 3: n=5, k=3 repeats line 2"),
        ("n,k,new_bound,old_bound,best_known,maximal\n5,3,105,106,,,999\n",
         "line 2: more fields than the header's 6 columns"),
        ("n,k,new_bound,old_bound,best_known,maximal\n5,3,105,106,,7\n",
         "line 2: column 'maximal' is not 0 or 1: 7"),
        ("# comment\nn,k,new_bound,old_bound,best_known,maximal,n\n5,3,105,106,,,7\n",
         "line 2: column 'n' repeats in the header"),
        # past the csv module's field size limit, which raises csv.Error
        ("# comment\nn,k,new_bound,old_bound,best_known,maximal\n2,3," + "9" * 200_000
         + ",3,,\n", "line 3: field larger than field limit (131072)"),
    ], ids=["missing-column", "non-integer", "header-only", "repeated-cell",
            "field-past-header", "maximal-not-0-or-1", "repeated-column",
            "oversized-field"])
    def test_malformed_reference_csv_is_usage_error(self, tmp_path,
                                                    text, message):
        path = tmp_path / "reference.csv"
        path.write_text(text)
        result = run_cli(
            ["table", "--n", "2", "--k", "3", "--reference-csv", str(path),
             "--check-reference"])
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output

    def test_reference_csv_with_byte_order_mark(self, tmp_path):
        """A spreadsheet's UTF-8 byte-order mark does not hide column 'n'."""
        from importlib import resources

        text = (resources.files("negaseq") / "data"
                / "reference_bounds.csv").read_text()
        path = tmp_path / "reference.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        result = run_cli(["table", "--n", "2..9", "--k", "3..9",
                          "--check-reference", "--reference-csv",
                          str(path)])
        assert result.exit_code == 0, result.output
        assert "!" not in result.output

    def test_missing_packaged_csv_is_named(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        from negaseq import bounds

        monkeypatch.setattr(bounds, "resources",
                            SimpleNamespace(files=lambda package: tmp_path))
        result = run_cli(["table", "--n", "2..3", "--k", "3..4"])
        assert result.exit_code == 2
        assert result.output.endswith(
            "Error: packaged reference_bounds.csv: No such file or directory\n")

    @pytest.mark.parametrize("n_text, k_text", [
        ("1..3", "3..4"), ("2..3", "0..0"), ("2..3", "-5..-3")])
    def test_range_below_the_domain_is_usage_error(self, n_text, k_text):
        """Checked before any bound is computed: k = 0 would otherwise reach
        math.log10 and fail with a math domain error."""
        result = run_cli(["table", "--n", n_text, "--k", k_text])
        assert result.exit_code == 2
        assert "ranges must satisfy n >= 2 and k >= 3" in result.output
        assert "Traceback" not in result.output

    def test_table_single_value_range(self):
        result = run_cli(["table", "--n", "2", "--k", "3"])
        assert result.exit_code == 0
        assert "3" in result.output

    def test_table_over_budget_exits_three(self, monkeypatch):
        """Refused before any cell is computed, naming the count and the budget."""
        from negaseq import bounds

        def no_bound(n, k):
            raise AssertionError("a cell computed before the table budget check")

        monkeypatch.setattr(bounds, "TABLE_BUDGET", 11)
        monkeypatch.setattr(bounds, "nos_bound", no_bound)
        result = run_cli(["table", "--n", "2..5", "--k", "3..5"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "12 cells exceed the table budget of 11\n"

    def test_huge_table_exits_three_at_once(self):
        """10^30 columns: counted from the range ends, as len() cannot."""
        start = time.process_time()
        result = run_cli(["table", "--n", "2..3", "--k", f"3..{10**30}"])
        assert time.process_time() - start < 1
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == \
            f"{2 * (10**30 - 2)} cells exceed the table budget of 100000\n"


class TestEdgesAndProfile:
    def test_edges(self):
        result = run_cli(["edges", "--n", "3", "--k", "3"])
        assert result.output == "24\n"

    def test_profile_json(self):
        result = run_cli(
            ["profile", "--n", "3", "--k", "3", "--vertex", "0,0",
             "--format", "json"])
        payload = json.loads(result.output)
        validate(payload)
        assert payload["in_degree"] == 2
        assert payload["out_degree"] == 2
        assert payload["flags"]["left_sns"] and payload["flags"]["right_sns"]

    def test_profile_parity(self):
        # At k=4, (0,0) is left- and right-sns (degrees k-1 both ways) and
        # (1,2) is right-sns only (2 = -2 mod 4).
        for vertex, in_degree, in_parity, out_degree, out_parity in [
                ("0,0", 3, "odd", 3, "odd"), ("1,2", 4, "even", 3, "odd")]:
            args = ["profile", "--n", "3", "--k", "4", "--vertex", vertex]
            result = run_cli(args)
            assert result.exit_code == 0
            assert result.output.startswith(
                f"vertex {vertex}: in={in_degree} ({in_parity}), "
                f"out={out_degree} ({out_parity})\n")
            payload = json.loads(
                run_cli(args + ["--format", "json"]).output)
            validate(payload)
            assert (payload["in_degree"], payload["in_parity"],
                    payload["out_degree"], payload["out_parity"]) == (
                in_degree, in_parity, out_degree, out_parity)

    def test_profile_length_one_label(self):
        args = ["profile", "--n", "2", "--k", "4", "--vertex", "2"]
        result = run_cli(args)
        assert result.exit_code == 0
        assert "left_sns=True right_sns=True" in result.output
        payload = json.loads(run_cli(args + ["--format", "json"]).output)
        validate(payload)
        assert payload["flags"]["left_sns"] is True
        assert payload["flags"]["right_sns"] is True
        assert payload["flags"]["alternating"] is False

    def test_profile_json_pinned(self):
        """SHA-256 of the concatenated JSON output over every vertex of
        (2,3), (3,3), (3,4) and (4,3), recorded when `profile` listed each
        field by hand."""
        sha = hashlib.sha256()
        for n, k in [(2, 3), (3, 3), (3, 4), (4, 3)]:
            for vertex in itertools.product(range(k), repeat=n - 1):
                result = run_cli([
                    "profile", "--n", str(n), "--k", str(k),
                    "--vertex", ",".join(map(str, vertex)), "--format", "json"])
                assert result.exit_code == 0, result.output
                sha.update(result.output.encode())
        assert sha.hexdigest() == (
            "f915ae7bb96794fe5bb8086fc61f34f0ccd2ffc4e978f83bb375cae3cc2f1458")

    def test_profile_wrong_length(self):
        result = run_cli(
            ["profile", "--n", "3", "--k", "3", "--vertex", "0,0,0"])
        assert result.exit_code == 2

    def test_profile_wrong_length_at_huge_n(self):
        # The graph does not work out 9^(10^8 - 1) before it checks the label.
        result = run_cli(
            ["profile", "--n", "100000000", "--k", "9", "--vertex", "0"])
        assert result.exit_code == 2
        assert ("Error: vertex label must have length 99999999 over Z_9, got 0"
                in result.output)


class TestVerify:
    def test_valid_from_stdin(self):
        result = run_cli(["verify", "--n", "2", "--k", "3"],
                   input="0,1,1\n")
        assert result.exit_code == 0
        assert result.output == "valid NOS, period 3\n"

    def test_invalid_exits_one(self):
        result = run_cli(["verify", "--n", "2", "--k", "3"],
                   input="0,0,1\n")
        assert result.exit_code == 1
        assert "negasymmetric-window" in result.output

    def test_seed_file_and_json(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# two candidates\n0,1,1\n0,1,2\n")
        result = run_cli(
            ["verify", "--n", "2", "--k", "3", "--seed-file", str(path),
             "--format", "json"])
        assert result.exit_code == 1  # second candidate is invalid
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        for payload in payloads:
            validate(payload)
        assert payloads[0]["valid"] is True
        assert payloads[1]["valid"] is False

    @staticmethod
    def run_on_bytes(tmp_path, source, data):
        """`verify --n 2 --k 3` on data, from --seed-file or from stdin,
        under a strict stdin encoding."""
        path = tmp_path / "seqs.txt"
        path.write_bytes(data)
        args = ["--seed-file", str(path)] if source == "seed-file" else []
        with open(path, "rb") as stdin:
            return subprocess.run(
                [sys.executable, "-m", "negaseq.cli", "verify", "--n", "2", "--k", "3",
                 *args], stdin=stdin, capture_output=True, text=True,
                env=dict(src_env(), PYTHONIOENCODING="utf-8:strict"))

    @pytest.mark.parametrize("source", ["seed-file", "stdin"])
    def test_undecodable_byte_names_its_line(self, tmp_path, source):
        """A file and stdin are read alike, even under a strict stdin
        encoding: a byte that is not UTF-8 is a malformed symbol."""
        proc = self.run_on_bytes(tmp_path, source, b"0,1\n0,1,\xff\n")
        assert proc.returncode == 2
        assert proc.stderr.endswith(
            "Error: line 2: symbol '\\udcff' is not a decimal number\n")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("source", ["seed-file", "stdin"])
    def test_byte_order_mark_opening_the_input_is_skipped(self, tmp_path, source):
        """A UTF-8 byte-order mark at the start is skipped, as
        --reference-csv skips it."""
        proc = self.run_on_bytes(tmp_path, source, b"\xef\xbb\xbf0,1,1\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "valid NOS, period 3\n", "")

    @pytest.mark.parametrize("source", ["seed-file", "stdin"])
    def test_byte_order_mark_on_a_later_line_is_malformed(self, tmp_path, source):
        proc = self.run_on_bytes(tmp_path, source, b"0,1,1\n\xef\xbb\xbf0,1,1\n")
        assert proc.returncode == 2
        assert proc.stderr.endswith(
            "Error: line 2: symbol '\\ufeff0' is not a decimal number\n")
        assert "Traceback" not in proc.stderr

    def test_closed_stdin_reads_as_empty(self):
        """With fd 0 closed, verify reads no sequence, like </dev/null."""
        proc = subprocess.run(
            [sys.executable, "-m", "negaseq.cli", "verify", "--n", "2", "--k", "3"],
            capture_output=True, text=True, preexec_fn=lambda: os.close(0),
            env=src_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_json_pinned(self):
        """SHA-256 of the JSON stdout for 200 seeded words (valid and not)
        under each property, n = 2..4 and k = 3..5, recorded when `verify`
        listed each field by hand."""
        rng = random.Random(2026)
        words = []
        for _ in range(200):
            k = rng.randint(3, 5)
            words.append((k, [rng.randrange(k) for _ in range(rng.randint(1, 12))]))
        sha = hashlib.sha256()
        for prop in ("window", "nos", "os"):
            for n in (2, 3, 4):
                for k in (3, 4, 5):
                    text = "".join(",".join(map(str, w)) + "\n"
                                   for wk, w in words if wk == k)
                    result = run_cli([
                        "verify", "--n", str(n), "--k", str(k), "--property", prop,
                        "--format", "json"], input=text)
                    sha.update(result.stdout.encode())
        assert sha.hexdigest() == (
            "aee46227321ece1f80b7ea4356e5f6ff1d764bf40f4a666648b4630dbf246199")

    def test_window_property(self):
        result = run_cli(
            ["verify", "--n", "2", "--k", "3", "--property", "window"],
      input="0,1,2\n")
        assert result.exit_code == 0
        assert "valid window sequence" in result.output


class TestSearch:
    def test_search_text(self):
        result = run_cli(["search", "--n", "2", "--k", "4"])
        assert result.exit_code == 0
        assert "period 5 (optimal), bound 5" in result.output

    def test_search_json_and_round_trip(self):
        result = run_cli(
            ["search", "--n", "2", "--k", "5", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        validate(payload)
        verify = run_cli(["verify", "--n", "2", "--k", "5"],
                   input=payload["sequence"] + "\n")
        assert verify.exit_code == 0

    def test_search_deterministic_stdout(self):
        args = ["search", "--n", "3", "--k", "3", "--format", "json"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("flag", ["--symmetry", "--no-symmetry",
                                      "--prune", "--no-prune"])
    def test_removed_toggles_are_usage_errors(self, flag):
        result = run_cli(["search", "--n", "2", "--k", "3", flag])
        assert result.exit_code == 2
        assert "No such option" in result.output and flag in result.output
        assert "Traceback" not in result.output

    def test_nothing_found_text(self, tmp_path):
        """A search that records no walk says so in words, not `None`,
        keeps JSON's null, exits 1 and still writes its certificate."""
        args = ["search", "--n", "3", "--k", "4", "--budget", "1"]
        result = run_cli(args)
        assert result.exit_code == 1
        assert result.stdout == ("period 0 (budget exhausted), bound 25\n"
                                 "no sequence found\n")
        result = run_cli(args + ["--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["sequence"] is None
        cert = tmp_path / "cert.txt"
        result = run_cli(args + ["--certificate", str(cert)])
        assert result.exit_code == 1
        lines = cert.read_text().splitlines()
        for line in ("period=0", "optimal=false", "sequence=",
                     "verifier=no sequence found"):
            assert line in lines

    def test_budget_exhausted_exits_three(self):
        result = run_cli(
            ["search", "--n", "3", "--k", "5", "--budget", "2000"])
        assert result.exit_code == 3

    def test_certificate_written(self, tmp_path):
        cert = tmp_path / "cert.txt"
        result = run_cli(
            ["search", "--n", "2", "--k", "3", "--certificate", str(cert)])
        assert result.exit_code == 0
        text = cert.read_text()
        assert "period=3" in text
        assert "optimal=true" in text

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("args, option", [
        (["search", "--n", "2", "--k", "3", "--certificate"], "--certificate"),
        (["search", "--n", "2", "--k", "3", "--output"], "--output"),
        (["export-dot", "--n", "2", "--k", "3", "--output"], "--output"),
    ], ids=["search-certificate", "search-output", "export-dot-output"])
    def test_unwritable_file_exits_two(self, args, option):
        """A write that fails (the device is full) is a one-line error that
        names the option and the reason, not a traceback or a silent exit 0."""
        result = run_cli(args + ["/dev/full"])
        assert result.exit_code == 2
        assert result.stderr.endswith(
            f"Error: cannot write {option}: No space left on device\n")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout(self, unbuffered):
        """A full stdout or a closed pipe exits 2 with one line, also when the
        unwritten bytes wait in stdout's buffer for the flush at exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        targets = [(write_end, 2, "Error: cannot write stdout: Broken pipe\n")]
        if os.path.exists("/dev/full"):
            targets.append((os.open("/dev/full", os.O_WRONLY), 2,
                            "Error: cannot write stdout: No space left on device\n"))
        for fd, code, stderr in targets:
            proc = subprocess.run(
                [sys.executable, "-m", "negaseq.cli", "bound", "--n", "2", "--k", "3"],
                stdout=fd, stderr=subprocess.PIPE, text=True,
                env=dict(src_env(), PYTHONUNBUFFERED=unbuffered))
            os.close(fd)
            assert (proc.returncode, proc.stderr) == (code, stderr)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_two(self, unbuffered):
        """With fd 1 closed, Python's sys.stdout is None and click.echo would
        drop the result; it is an unwritable stdout instead."""
        proc = subprocess.run(
            [sys.executable, "-m", "negaseq.cli", "bound", "--n", "2", "--k", "3"],
            stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1),
            env=dict(src_env(), PYTHONUNBUFFERED=unbuffered))
        assert (proc.returncode, proc.stderr) == (
            2, "Error: cannot write stdout: Bad file descriptor\n")

    def test_pipe_closed_mid_write(self):
        """`export-dot | head -c 0`: the 203 KB of DOT overrun the pipe's
        buffer, so the write meets the closed pipe whenever the reader quits."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "negaseq.cli", "export-dot", "--n", "6", "--k", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env())
        proc.stdout.close()
        assert (proc.wait(), proc.stderr.read()) == (
            2, "Error: cannot write stdout: Broken pipe\n")
        proc.stderr.close()

    def test_json_names_the_flow_bound(self):
        """The record carries F // 2 where the search computed it, and null
        where it ended first; the text output does not change."""
        for args, flow in ((["--n", "3", "--k", "3"], 10),
                           (["--n", "2", "--k", "3"], None)):
            result = run_cli(["search", *args, "--format", "json"])
            assert result.exit_code == 0
            record = json.loads(result.stdout)
            validate(record)
            assert record["flow_bound"] == flow
        result = run_cli(["search", "--n", "3", "--k", "3"])
        assert result.stdout.splitlines()[0] == "period 10 (optimal), bound 11"

    def test_output_and_certificate_same_file_is_usage_error(self, tmp_path):
        """One file for both would keep only the certificate: refused before
        the search runs, also when the two paths are spelt differently."""
        path = tmp_path / "both.txt"
        for other in (path, tmp_path / "." / "both.txt"):
            result = run_cli(["search", "--n", "2", "--k", "3",
                              "--output", str(path),
                              "--certificate", str(other)])
            assert result.exit_code == 2
            assert result.stderr.endswith(
                "Error: --output and --certificate name the same file\n")
            assert "expansions" not in result.stderr

    def test_output_and_certificate_both_stdout(self):
        result = run_cli(["search", "--n", "2", "--k", "3",
                          "--output", "-", "--certificate", "-"])
        assert result.exit_code == 0
        assert result.stdout.startswith("period 3 (optimal), bound 3\n"
                                        "sequence 0,1,1\n"
                                        "negative-orientable-sequence search certificate\n")

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        result = run_cli(
            ["search", "--n", "2", "--k", "3", "--format", "json",
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
def test_readme_cli_example_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("seqs.txt").write_text("0,1,1\n")  # an order-2 NOS over Z_3
    result = run_cli(shlex.split(line, comments=True)[1:])
    assert result.exit_code == 0, result.output


class TestExportDot:
    def test_full_graph(self):
        result = run_cli(["export-dot", "--n", "2", "--k", "3"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        again = run_cli(["export-dot", "--n", "2", "--k", "3"])
        assert again.output == result.output

    def test_sequence_subgraph(self):
        result = run_cli(
            ["export-dot", "--n", "2", "--k", "3", "--sequence", "0,1,1"])
        assert result.exit_code == 0
        assert result.output.count("->") == 6

    def test_full_graph_loads_no_numpy(self, tmp_path):
        env = src_env()
        out = tmp_path / "graph.dot"
        code = ("import sys\nfrom negaseq.cli import main\n"
                f"main(['export-dot', '--n', '3', '--k', '3', '--output', {str(out)!r}],"
                " standalone_mode=False)\nprint('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True)
        assert result.stdout.strip() == "False"
        assert out.read_text().count("->") == 24

    def test_subgraph_vertex_budget_exits_three(self):
        # Six edges, but one vertex statement for each of 3^11 vertices.
        result = run_cli(
            ["export-dot", "--n", "12", "--k", "3", "--sequence", "0,1,1"])
        assert result.exit_code == 3
        assert "177147 vertices exceed the DOT export budget" in result.output

    def test_non_nos_sequence_exits_one(self):
        result = run_cli(
            ["export-dot", "--n", "2", "--k", "3", "--sequence", "0,0,1"])
        assert result.exit_code == 1

    def test_vertex_budget_checked_before_the_subgraph(self, monkeypatch):
        from negaseq import graph as graph_mod

        def no_subgraph(*args):
            raise AssertionError("subgraph built before the vertex budget check")

        monkeypatch.setattr(graph_mod, "sequence_subgraph", no_subgraph)
        result = run_cli(
            ["export-dot", "--n", "2000000", "--k", "9", "--sequence", "0,1,1"])
        assert result.exit_code == 3
        assert result.output == \
            "9^1999999 vertices exceed the DOT export budget of 100000\n"

    def test_over_budget_non_nos_sequence_exits_three(self):
        # The size refusal comes first: 0,1,2 is not an NOS, but 3^11
        # vertices are over the budget before any window is coded.
        result = run_cli(
            ["export-dot", "--n", "12", "--k", "3", "--sequence", "0,1,2"])
        assert result.exit_code == 3
        assert "177147 vertices exceed the DOT export budget" in result.output


# -- fuzz: every subcommand keeps the exit-code contract ------------------

GARBAGE = st.sampled_from(["", " ", "x", "-", "1.5", "0x3", "3e1", "1,,2",
                           "2..", "..", "..3", "3..x", "\u0663"])
SMALL_N = st.one_of(st.integers(-1, 5).map(str), st.just("5000"), GARBAGE)
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
    result = run_cli(args, input=stdin)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert "Traceback" not in result.output
