from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import click
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import K_TABLE
from palfact import cli, enumeration, lemmas
from palfact.cache import SCHEMA_VERSION, ResultCache
from palfact.cli import MAX_WORD_LENGTH, VERIFY_TARGETS, RunConfig, dispatch
from palfact.lemmas import LemmaReport
from palfact.rows import LengthRow, length_row


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_m_prints_measure(self, capsys):
        code, out, _ = run(capsys, "m", "aababbaabab")
        assert code == 0
        assert out.strip() == "5"

    def test_factor_prints_blocks(self, capsys):
        code, out, _ = run(capsys, "factor", "aabab")
        assert code == 0
        assert out.strip() == "(aa)(bab)"

    def test_m_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "m", "ab")
        assert code == 0
        assert json.loads(out) == {"word": "ab", "m": 2}

    def test_digit_alias_accepted(self, capsys):
        code, out, _ = run(capsys, "m", "01101")
        assert code == 0

    def test_invalid_word_is_usage_error(self, capsys):
        code, _, err = run(capsys, "m", "aXb")
        assert code == 2
        assert "position 2" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "m", "--zap", "ab")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "kmax" in out


class TestKmaxCommand:
    def test_csv_matches_table(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "kmax", "--max-n", "15")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,K,maximizer_count"
        assert len(lines) == 16
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert int(fields[0]) == n
            assert int(fields[1]) == K_TABLE[n - 1]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "kmax", "--max-n", "11")
        assert code == 0
        rows = json.loads(out)
        row11 = rows[-1]
        assert set(row11) == {"n", "K", "maximizer_count", "orbits"}
        assert row11["K"] == 5
        assert row11["maximizer_count"] == 4
        assert row11["orbits"][0]["representative"] == "aababbaabab"
        assert row11["orbits"][0]["size"] == 4

    def test_long_guard(self, capsys):
        # Lengths above 26 need no flag; --allow-long is accepted and ignored.
        code, out, err = run(capsys, "kmax", "--max-n", "27")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f" 27  {K_TABLE[26]}          64  aaababbbaababbaababbaaababb"
        assert run(capsys, "kmax", "--max-n", "27", "--allow-long") == (0, out, "")

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "--format", "json", "kmax", "--max-n", "9")
        _, second, _ = run(capsys, "--format", "json", "kmax", "--max-n", "9")
        assert first == second

    def test_options_accepted_after_subcommand(self, capsys):
        code, post, _ = run(capsys, "kmax", "--max-n", "15", "--format", "csv")
        assert code == 0
        _, pre, _ = run(capsys, "--format", "csv", "kmax", "--max-n", "15")
        assert post == pre

    def test_subcommand_option_wins(self, capsys):
        # Given before the subcommand, after it, or both (the value after it
        # wins), in either spelling; repeated, the last value wins.
        for argv in (
            ("--format", "csv", "m", "ab"),
            ("m", "ab", "--format", "csv"),
            ("--format", "json", "m", "ab", "--format", "csv"),
            ("-f", "csv", "m", "ab"),
            ("m", "ab", "-f", "csv"),
            ("-f", "json", "m", "ab", "-f", "csv"),
            ("--format", "json", "--format", "csv", "m", "ab"),
            ("m", "ab", "-f", "json", "--format", "csv"),
        ):
            assert run(capsys, *argv) == (0, "word,m\nab,2\n", ""), argv


class TestKbarAndHistogram:
    def test_kbar_csv_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "kbar", "--max-n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,S,kbar_decimal,kbar_num,kbar_den_pow2"
        assert lines[4] == "4,28,1.75,7,2"
        assert lines[6] == "6,132,2.06,33,4"

    def test_histogram_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "histogram", "--n", "3")
        assert code == 0
        assert out.strip().splitlines() == ["n,k,x_k", "3,1,4", "3,2,4"]

    def test_histogram_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "histogram", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"n": 2, "counts": {"1": 2, "2": 2}}

    def test_worst_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "worst", "--n", "11")
        assert code == 0
        doc = json.loads(out)
        assert doc["K"] == 5
        assert len(doc["orbits"]) == 1
        assert doc["orbits"][0]["size"] == 4


class TestVerifyCommand:
    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, "--seed", "42", "verify", "all", "--max-n", "14", "--trials", "500")
        assert code == 0
        assert "theorem1: PASS" in out
        assert "lemma3: PASS" in out

    def test_verify_all_with_trailing_seed(self, capsys):
        code, _, _ = run(capsys, "verify", "all", "--max-n", "14", "--seed", "42", "--trials", "500")
        assert code == 0

    def test_verify_all_standard_invocation(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "20", "--seed", "42")
        assert code == 0
        assert out.count("PASS") == 11  # 8 claim reports + theorem1 + subadditivity + counting

    def test_verify_json_is_single_document(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "lemma9")
        assert code == 0
        reports = json.loads(out)
        assert isinstance(reports, list) and len(reports) == 1
        assert set(reports[0]) == {"lemma", "params", "verdict", "counterexamples"}
        assert reports[0]["verdict"] == "pass"

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        fake = LemmaReport("lemma9", {"n_max": 5}, 6, ({"n": 0, "m": 99, "expected": 6},))
        monkeypatch.setattr(lemmas, "verify_lemma9", lambda n_max: fake)
        code, out, _ = run(capsys, "verify", "lemma9")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in out

    def test_verify_seed_changes_params_only(self, capsys):
        _, out1, _ = run(capsys, "--seed", "1", "--format", "json", "verify", "ksum", "--trials", "200")
        _, out2, _ = run(capsys, "--seed", "1", "--format", "json", "verify", "ksum", "--trials", "200")
        assert out1 == out2

    def test_json_lemma_entries_equal_standard_runs(self, capsys):
        for max_n in (9, 20):
            code, out, _ = run(
                capsys, "--format", "json", "verify", "all", "--max-n", str(max_n), "--seed", "3", "--trials", "300"
            )
            assert code == 0
            entries = json.loads(out)
            reports = [claim() for claim in lemmas.standard_runs(ksum_trials=300, seed=3, max_n=max_n).values()]
            assert len(entries) == len(reports) == 11
            for entry, rep in zip(entries, reports):
                assert entry["lemma"] == rep.lemma_id
                assert entry["params"] == json.loads(json.dumps({**rep.params, "cases": rep.cases}))
                assert entry["verdict"] == rep.verdict
                assert entry["counterexamples"] == json.loads(json.dumps(list(rep.counterexamples)))

    def test_table_output_is_pinned(self, capsys):
        # JSON sorts its keys; only the table shows the order of each report's params.
        code, out, err = run(capsys, "--seed", "3", "verify", "all", "--max-n", "9", "--trials", "300")
        assert (code, err) == (0, "")
        assert out == (
            "lemma1: PASS (cases=60) {'n_max': 8}\n"
            "lemma2: PASS (cases=192) {'stems': 3, 'suffix_length': 6}\n"
            "lemma3: PASS (cases=774144) {'stems': 3, 'suffix_lengths': '12..17'}\n"
            "lemma4: PASS (cases=131072) {'length': 18}\n"
            "lemma7: PASS (cases=25) {'n_max': 10}\n"
            "lemma8: PASS (cases=75) {'t_max': 6}\n"
            "lemma9: PASS (cases=6) {'n_max': 5}\n"
            "ksum: PASS (cases=300) {'trials': 300, 'seed': 3}\n"
            "theorem1: PASS (cases=9) {'n_max': 9}\n"
            "subadditivity: PASS (cases=20) {'n_max': 9, 'min_ratio_n': 9, 'min_ratio': '35/128'}\n"
            "counting: PASS (cases=4) {'n_range': '9..9'}\n"
        )

    def test_csv_rows_equal_json_entries(self, capsys):
        argv = ("--seed", "3", "verify", "all", "--max-n", "9", "--trials", "300")
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        entries = json.loads(out)
        code, out, _ = run(capsys, "--format", "csv", *argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(entries) == 11
        for row, entry in zip(rows, entries):
            assert list(row) == ["lemma", "verdict", "cases", "counterexamples", "params"]
            assert row["lemma"] == entry["lemma"]
            assert row["verdict"] == entry["verdict"]
            assert int(row["cases"]) == entry["params"]["cases"]
            assert int(row["counterexamples"]) == len(entry["counterexamples"])
            assert json.loads(row["params"]) == {k: v for k, v in entry["params"].items() if k != "cases"}

    def test_csv_output_is_pinned(self, capsys):
        argv = ("--seed", "3", "--format", "csv", "verify", "all", "--max-n", "9", "--trials", "300")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            "lemma,verdict,cases,counterexamples,params\n"
            'lemma1,pass,60,0,"{""n_max"":8}"\n'
            'lemma2,pass,192,0,"{""stems"":3,""suffix_length"":6}"\n'
            'lemma3,pass,774144,0,"{""stems"":3,""suffix_lengths"":""12..17""}"\n'
            'lemma4,pass,131072,0,"{""length"":18}"\n'
            'lemma7,pass,25,0,"{""n_max"":10}"\n'
            'lemma8,pass,75,0,"{""t_max"":6}"\n'
            'lemma9,pass,6,0,"{""n_max"":5}"\n'
            'ksum,pass,300,0,"{""seed"":3,""trials"":300}"\n'
            'theorem1,pass,9,0,"{""n_max"":9}"\n'
            'subadditivity,pass,20,0,"{""min_ratio"":""35/128"",""min_ratio_n"":9,""n_max"":9}"\n'
            'counting,pass,4,0,"{""n_range"":""9..9""}"\n'
        )

    def test_csv_counts_counterexamples(self, capsys, monkeypatch):
        bad = ({"n": 0, "m": 99, "expected": 6}, {"n": 1, "m": 99, "expected": 8})
        fake = LemmaReport("lemma9", {"n_max": 5}, 6, bad)
        monkeypatch.setattr(lemmas, "verify_lemma9", lambda n_max: fake)
        code, out, _ = run(capsys, "--format", "csv", "verify", "lemma9")
        assert code == 1
        assert out.splitlines()[1:] == ['lemma9,fail,6,2,"{""n_max"":5}"']

    def test_table_cuts_long_counterexample_lists(self, capsys, monkeypatch):
        bad = tuple({"n": n, "m": 99, "expected": 2 * n + 6} for n in range(12))
        fake = LemmaReport("lemma9", {"n_max": 11}, 12, bad)
        monkeypatch.setattr(lemmas, "verify_lemma9", lambda n_max: fake)
        code, out, _ = run(capsys, "verify", "lemma9")
        assert code == 1
        assert out.splitlines() == [
            "lemma9: FAIL (cases=12) {'n_max': 11}",
            *(f"  counterexample: {entry}" for entry in bad[:10]),
            "  ... and 2 more",
        ]
        code, out, _ = run(capsys, "--format", "csv", "verify", "lemma9")
        assert code == 1
        assert out.splitlines()[1:] == ['lemma9,fail,12,12,"{""n_max"":11}"']
        code, out, _ = run(capsys, "--format", "json", "verify", "lemma9")
        assert code == 1
        assert json.loads(out)[0]["counterexamples"] == list(bad)

    def test_targets_are_the_suite(self):
        assert VERIFY_TARGETS == ("all", *lemmas.standard_runs())
        assert len(VERIFY_TARGETS) == 12

    def test_verify_rejects_bad_target(self, capsys):
        code, _, _ = run(capsys, "verify", "lemma6")
        assert code == 2


PINNED_STDOUT = json.loads((Path(__file__).resolve().parent / "data" / "cli_stdout.json").read_text())


class TestPinnedOutput:
    @pytest.mark.parametrize("pinned", PINNED_STDOUT, ids=lambda pinned: " ".join(pinned["argv"][1:]))
    def test_stdout_is_pinned(self, capsys, monkeypatch, pinned):
        # Every rendering of the row tables, orbits and bounds, byte for byte.
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        assert run(capsys, *pinned["argv"]) == (0, pinned["stdout"], "")


class TestSubcommandOptions:
    """A subcommand accepts only the global options it uses; all stay
    accepted before the subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("m", "aabab"),
            ("factor", "aabab"),
            ("kmax", "--max-n", "3"),
            ("kbar", "--max-n", "3"),
            ("histogram", "--n", "3"),
            ("worst", "--n", "3"),
            ("bounds",),
        ],
    )
    def test_seed_only_after_verify(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "5")
        assert code == 2
        assert "No such option" in err and "--seed" in err
        assert "Usage:" in err
        assert out == ""
        assert run(capsys, "--seed", "5", *argv)[0] == 0

    @pytest.mark.parametrize("command", ["m", "factor", "kmax", "worst", "verify"])
    def test_no_cache_dir_after_single_word_commands(self, capsys, tmp_path, monkeypatch, command):
        # None of these reads or writes the cache.
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        args = {"kmax": ("--max-n", "5"), "worst": ("--n", "5"), "verify": ("lemma9",)}.get(command, ("aabab",))
        cache_dir = tmp_path / "D"
        code, out, err = run(capsys, command, *args, "--cache-dir", str(cache_dir))
        assert code == 2
        assert "No such option" in err and "--cache-dir" in err
        assert "Usage:" in err
        assert out == ""
        assert not cache_dir.exists()
        assert run(capsys, "--cache-dir", str(cache_dir), command, *args)[0] == 0
        assert not cache_dir.exists()

    def test_verify_seed_in_either_position(self, capsys):
        after = run(capsys, "verify", "all", "--max-n", "9", "--seed", "3")
        assert after[0] == 0
        assert run(capsys, "--seed", "3", "verify", "all", "--max-n", "9") == after
        expected = "ksum: PASS (cases=5) {'trials': 5, 'seed': 3}\n"
        for argv in (
            ("--seed", "3", "verify", "ksum", "--trials", "5"),
            ("verify", "ksum", "--trials", "5", "--seed", "3"),
            ("--seed", "7", "verify", "ksum", "--trials", "5", "--seed", "3"),
            ("--seed", "7", "--seed", "3", "verify", "ksum", "--trials", "5"),
            ("verify", "ksum", "--seed", "7", "--trials", "5", "--seed", "3"),
        ):
            assert run(capsys, *argv) == (0, expected, ""), argv

    def test_dispatch_calls_share_no_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        cache_dir = tmp_path / "D"
        code, out, _ = run(capsys, "-f", "json", "--seed", "3", "--cache-dir", str(cache_dir), "factor", "ab")
        assert (code, json.loads(out)["blocks"]) == (0, ["a", "b"])
        assert run(capsys, "factor", "ab") == (0, "(a)(b)\n", "")
        _, out, _ = run(capsys, "verify", "ksum", "--trials", "5")
        assert out == "ksum: PASS (cases=5) {'trials': 5, 'seed': 42}\n"
        assert run(capsys, "kmax", "--max-n", "2")[0] == 0
        assert not cache_dir.exists()


class TestInputContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("kmax", "--max-n", "0"),
            ("kbar", "--max-n", "0"),
            ("histogram", "--n", "0"),
            ("worst", "--n", "0"),
            ("kmax", "--max-n", "-4"),
            ("worst", "--n", "-1"),
        ],
    )
    def test_nonpositive_length_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), *argv)
        assert code == 2
        assert "must be positive" in err
        assert out == ""
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_empty_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # Path("") is the working directory, which must not fill with rows.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        for argv in (("--cache-dir", "", "kbar", "--max-n", "3"), ("kbar", "--max-n", "3", "--cache-dir", "")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == "Error: Invalid value for '--cache-dir': must not be empty"
            assert list(tmp_path.iterdir()) == []
        # An empty PALIN_CACHE_DIR means unset.
        monkeypatch.setenv("PALIN_CACHE_DIR", "")
        assert run(capsys, "kbar", "--max-n", "3")[0] == 0
        assert list(tmp_path.iterdir()) == []
        assert run(capsys, "--cache-dir", "D", "kbar", "--max-n", "3")[0] == 0
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "row_1.json", "row_2.json", "row_3.json"]

    def test_empty_cache_dir_rejected_for_library_callers(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        with pytest.raises(ValueError, match="must not be empty"):
            ResultCache("")
        with pytest.raises(ValueError, match="must not be empty"):
            RunConfig(cache_dir="").cache
        # An empty PALIN_CACHE_DIR means unset, whatever the config says.
        monkeypatch.setenv("PALIN_CACHE_DIR", "")
        assert RunConfig().cache.directory is None
        assert RunConfig(cache_dir="D").cache.directory == Path("D")
        assert list(tmp_path.iterdir()) == []

    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "ksum", "--trials", "0")
        assert code == 2
        assert "--trials must be positive" in err
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize("trials", ["1000001", "100000000000000000000"])
    def test_trials_above_the_ceiling_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "ksum", "--trials", trials)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"Error: --trials must be at most 1000000, got {trials}"

    def test_trials_at_the_ceiling_are_run(self, capsys, monkeypatch):
        monkeypatch.setattr(lemmas, "ksum_property", lambda trials, seed: LemmaReport("ksum", {}, trials))
        assert run(capsys, "verify", "ksum", "--trials", "1000000") == (0, "ksum: PASS (cases=1000000)\n", "")

    @pytest.mark.parametrize("target,max_n", [("counting", "5"), ("all", "8"), ("counting", "1")])
    def test_counting_below_nine_is_usage_error(self, capsys, target, max_n):
        code, out, err = run(capsys, "verify", target, "--max-n", max_n, "--trials", "10")
        assert code == 2
        assert "--max-n >= 9" in err
        assert out == ""

    def test_subadditivity_below_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "subadditivity", "--max-n", "1")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "Error: verify subadditivity needs --max-n >= 2, got 1"

    def test_subadditivity_at_two_checks_one_pair(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "subadditivity", "--max-n", "2")
        assert code == 0
        (report,) = json.loads(out)
        assert (report["verdict"], report["params"]["n_max"], report["params"]["cases"]) == ("pass", 2, 1)

    def test_counting_at_nine_checks_cases(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "counting", "--max-n", "9")
        assert code == 0
        (report,) = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["params"]["cases"] > 0

    def test_theorem1_keeps_small_max_n(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--max-n", "5")
        assert code == 0
        assert "theorem1: PASS (cases=5)" in out

    @pytest.mark.parametrize("target", ["theorem1", "subadditivity", "all"])
    @pytest.mark.parametrize("max_n", ["33", "40"])
    def test_verify_max_n_above_packed_limit_is_usage_error(self, capsys, target, max_n):
        code, out, err = run(capsys, "verify", target, "--max-n", max_n, "--trials", "10")
        assert code == 2
        assert f"--max-n must be in 1..32, got {max_n}" in err
        assert out == ""

    def test_huge_length_is_rejected_before_the_cache(self, capsys, tmp_path):
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "kmax", "--max-n", "1000000000", "--allow-long")
        assert code == 2
        assert "must be in 1..32" in err
        assert out == ""

    def test_tolerance_option_is_gone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        code, out, err = run(capsys, "bounds", "--tolerance", "1e-3", "--cache-dir", str(tmp_path))
        assert code == 2
        assert "No such option" in err
        assert out == ""
        assert not any(tmp_path.iterdir())


class TestOneProcess:
    def test_a_long_scan_starts_no_process(self):
        """kbar --max-n 27, a scan of more than 2^26 words, run on every CPU
        the test process may use, imports no process pool and leaves no
        child process: every shard runs in the calling process."""
        code = (
            "import json, os, sys\n"
            "from palfact import cli\n"
            "status = cli.dispatch(['kbar', '--max-n', '27'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = True\n"
            "except ChildProcessError:\n"
            "    children = False\n"
            "pools = sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules))\n"
            "print(json.dumps([status, pools, children]), file=sys.stderr)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PALIN_CACHE_DIR"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert json.loads(proc.stderr) == [0, [], False]
        assert proc.stdout.splitlines()[-1].split()[0] == "27"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in procfs")
class TestBlasPool:
    """The command-line process starts numpy's OpenBLAS pool at one thread,
    which the scan never calls, unless its caller chose a size."""

    CODE = (
        "import os, sys\n"
        "from palfact import cli\n"
        "sys.argv = ['palfact', 'kbar', '--max-n', '12']\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    threads = len(os.listdir('/proc/self/task'))\n"
        "    print(exc.code, 'numpy' in sys.modules, threads, os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n"
    )

    def _main(self, **env):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PALIN_CACHE_DIR")} | env
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=env, capture_output=True, text=True, timeout=60)
        return proc.stderr.split()

    def test_main_runs_numpy_on_one_thread(self):
        assert self._main() == ["0", "True", "1", "1"]

    def test_a_callers_setting_is_kept(self):
        code, loaded, _, setting = self._main(OPENBLAS_NUM_THREADS="2")
        assert (code, loaded, setting) == ("0", "True", "2")


class TestWordFromStdin:
    LONG = "a" * 100_000 + "b" * 100_000  # m = 2, and the witness is unique

    @pytest.fixture
    def stdin(self, monkeypatch):
        return lambda text: monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_long_word_for_m(self, capsys, stdin):
        stdin(f"  {self.LONG}\n")
        code, out, _ = run(capsys, "m", "-")
        assert code == 0
        assert out == "2\n"

    def test_long_word_for_factor(self, capsys, stdin):
        stdin(f"\n{self.LONG} \n\n")
        code, out, _ = run(capsys, "--format", "json", "factor", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["word"] == self.LONG
        assert doc["m"] == 2
        assert doc["cuts"] == [0, 100_000, 200_000]

    def test_matches_the_argument_form(self, capsys, stdin):
        stdin("aababbaabab\n")
        assert run(capsys, "factor", "-") == run(capsys, "factor", "aababbaabab")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty word"),
            (" \n\t", "empty word"),
            ("ab1\n", "mixed alphabets: '1' at position 3"),
            ("a b", "invalid character ' ' at position 2"),
        ],
    )
    @pytest.mark.parametrize("command", ["m", "factor"])
    def test_bad_text_is_usage_error(self, capsys, stdin, command, text, message):
        stdin(text)
        code, out, err = run(capsys, command, "-")
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("argv,text", [(("factor", ""), ""), (("m", "-"), " \n")])
    def test_empty_word_message(self, capsys, stdin, argv, text):
        stdin(text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "Error: empty word"

    @pytest.mark.parametrize("command", ["m", "factor"])
    def test_word_over_the_ceiling_is_usage_error(self, capsys, stdin, command):
        stdin("a" * (MAX_WORD_LENGTH + 1))
        code, out, err = run(capsys, command, "-")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"Error: WORD must be at most {MAX_WORD_LENGTH} letters"

    def test_word_at_the_ceiling_is_read(self, stdin):
        stdin("a" * MAX_WORD_LENGTH + "\n")
        assert cli._read_stdin_word() == "a" * MAX_WORD_LENGTH

    def test_endless_stdin_is_refused_after_the_ceiling(self, monkeypatch):
        class Endless:
            """A stdin of letters that never ends, counting what is read."""

            read_chars = 0

            def read(self, size):
                self.read_chars += size
                return "a" * size

        endless = Endless()
        monkeypatch.setattr("sys.stdin", endless)
        with pytest.raises(click.UsageError):
            cli._read_stdin_word()
        assert endless.read_chars <= MAX_WORD_LENGTH + (1 << 20)

    def test_whitespace_runs_across_pieces(self, stdin):
        pad = " " * (3 << 20)  # three pieces of stdin
        stdin(pad + "ab" + pad + "\n")
        assert cli._read_stdin_word() == "ab"
        stdin("ab" + pad + "ab")
        with pytest.raises(click.UsageError, match="invalid character ' ' at position 3"):
            cli._parse_word_arg("-")


class TestBoundsCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bounds")
        assert code == 0
        doc = json.loads(out)
        assert doc["upper_exact"] == {"num": 372487, "den": "7*2^18"}
        assert abs(doc["theta_prime"] - 0.09488) < 1e-4
        assert abs(doc["lower"] - 0.08781) < 1e-4
        assert abs(doc["upper"] - 372487 / (7 * 2**18)) < 1e-12
        assert len(doc["g_prime_roots"]) == 2

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        assert "0.08781" in out
        assert "0.2030" in out

    def test_forged_row_21_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        _forge_row_21(capsys, tmp_path, monkeypatch)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PALIN_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "palfact.cli", "--cache-dir", str(tmp_path), "bounds"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "372487/1835008" in proc.stderr and "row_21.json" in proc.stderr

    def test_forged_row_21_never_reaches_the_memo(self, capsys, tmp_path, monkeypatch):
        _forge_row_21(capsys, tmp_path, monkeypatch)
        # An empty memo: the readers below get the true row only by a new scan.
        monkeypatch.setattr("palfact.rows._memo", {})
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "bounds")
        assert (code, out) == (2, "")
        assert "372487/1835008" in err and "row_21.json" in err
        assert length_row(21).s == 8939688
        code, out, _ = run(capsys, "verify", "theorem1", "--max-n", "21")
        assert (code, out) == (0, "theorem1: PASS (cases=21) {'n_max': 21}\n")


def _forge_row_21(capsys, directory, monkeypatch):
    """Fill ``directory`` with rows 1..21 by kbar, then move two words between
    the two lowest counts of row 21: the row stays possible for its length,
    so the cache serves it, but S(21) is off by 2."""
    monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
    code, _, _ = run(capsys, "--cache-dir", str(directory), "kbar", "--max-n", "21")
    assert code == 0
    path = directory / "row_21.json"
    doc = json.loads(path.read_text())
    doc["payload"]["counts"]["1"] += 2
    doc["payload"]["counts"]["2"] -= 2
    doc["checksum"] = _checksum(doc["payload"])
    path.write_text(json.dumps(doc))
    assert ResultCache(directory).load_row(21).s == 8939688 - 2


def _checksum(payload):
    """The sha256 of the canonical JSON of a payload, as the format defines it."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _doc(payload, *, n=4, kind="row", version=4):
    """The text of a cache document, written here from the format itself
    rather than by ``cache``, so that the tests pin the format."""
    doc = {"checksum": _checksum(payload), "kind": kind, "n": n, "payload": payload, "schema_version": version}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# The row _row_payload() describes.
_ROW = LengthRow(4, {1: 4, 2: 8, 3: 4})


def _row_payload(n=4, counts=None):
    """A possible row payload for length 4 (or the given parts)."""
    return {"n": n, "counts": {"1": 4, "2": 8, "3": 4} if counts is None else counts}


class TestCache:
    def test_roundtrip(self, tmp_path):
        (tmp_path / "row_4.json").write_text(_doc(_row_payload()))
        row = ResultCache(tmp_path).load_row(4)
        assert row == _ROW
        assert (row.n, row.k, row.s) == (4, 3, 32)
        cache = ResultCache(tmp_path / "fresh")
        assert cache.store_row(row)
        assert (tmp_path / "fresh" / "row_4.json").read_text() == _doc(_row_payload())
        assert cache.load_row(4) == row

    def test_golden_bytes(self, tmp_path):
        golden = (
            '{"checksum":"fe9dcfe635e4d9d940527bc894eb0b0d71d864a85d872084057c0fc9796973e2","kind":"row","n":4,'
            '"payload":{"counts":{"1":4,"2":12},"n":4},"schema_version":4}'
        )
        stored, written = tmp_path / "stored", tmp_path / "written"
        assert ResultCache(stored).store_row(length_row(4))
        assert [p.name for p in stored.iterdir()] == ["row_4.json"]
        assert (stored / "row_4.json").read_text() == golden
        written.mkdir()
        (written / "row_4.json").write_text(golden)
        assert ResultCache(written).load_row(4) == length_row(4)

    def test_indented_file_is_served(self, tmp_path):
        doc = json.loads(_doc(_row_payload()))
        (tmp_path / "row_4.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
        assert ResultCache(tmp_path).load_row(4) == _ROW

    def test_checksum_guards_payload(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_row(_ROW)
        path = tmp_path / "row_4.json"
        doc = json.loads(path.read_text())
        doc["payload"]["counts"]["3"] = 2
        doc["payload"]["counts"]["2"] = 10
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            assert cache.load_row(4) is None

    def test_truncated_file_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_row(_ROW)
        path = tmp_path / "row_4.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(UserWarning):
            assert cache.load_row(4) is None

    def test_version_bump_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_row(_ROW)
        path = tmp_path / "row_4.json"
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION == 4
        for stale in (1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
            path.write_text(_doc(_row_payload(), version=stale))
            with pytest.warns(UserWarning):
                assert cache.load_row(4) is None

    def test_unwritable_directory_warns_not_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cache = ResultCache(blocker / "sub")
        with pytest.warns(UserWarning, match="not writable"):
            stored = cache.store_row(_ROW)
        assert stored is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once: the next failure is silent
            assert cache.store_row(_ROW) is False

    # The first parameter names the view of the row a payload makes
    # impossible: the histogram (counts) or the K table's view of them (the
    # maximum and its count).
    @pytest.mark.parametrize(
        "view,payload",
        [
            ("histogram", _row_payload(counts={"1": 8, "2": 6})),  # sums to 14, not 2^4
            ("histogram", _row_payload(counts={"0": 8, "2": 8})),
            ("histogram", _row_payload(counts={"1": 8, "5": 8})),
            ("histogram", _row_payload(n=3, counts={"1": 8, "2": 8})),
            ("kmax", _row_payload(n=3)),
            ("kmax", _row_payload(counts={"0": 4, "1": 12})),  # K = 0
            ("kmax", _row_payload(counts={"1": 12, "5": 4})),  # K above n
            ("kmax", _row_payload(counts={"1": 6, "2": 7, "3": 3})),  # odd counts
            ("kmax", _row_payload(counts={"1": 8, "2": 8, "3": 0})),  # K attained by no word
            # keys that int() reads as 2 but that are not its decimal form
            ("histogram", _row_payload(counts={"1": 4, "2": 8, "\u0662": 4})),
            ("histogram", _row_payload(counts={"1": 4, "2": 8, "02": 4})),
        ],
    )
    def test_impossible_payload_is_rejected(self, tmp_path, view, payload):
        (tmp_path / "row_4.json").write_text(_doc(payload))
        with pytest.warns(UserWarning, match="stale or corrupt"):
            assert ResultCache(tmp_path).load_row(4) is None

    def test_possible_histogram_is_served(self, tmp_path):
        payload = _row_payload(counts={"1": 4, "2": 8, "3": 2, "4": 2})
        (tmp_path / "row_4.json").write_text(_doc(payload))
        row = ResultCache(tmp_path).load_row(4)
        assert list(row.counts) == [1, 2, 3, 4]
        assert (row.k, row.counts[row.k]) == (4, 2)

    def test_other_kinds_are_not_served(self, tmp_path):
        (tmp_path / "row_4.json").write_text(_doc(_row_payload(), kind="histogram"))
        with pytest.warns(UserWarning, match="stale or corrupt"):
            assert ResultCache(tmp_path).load_row(4) is None

    def test_checksum_is_canonical(self, tmp_path):
        # The checksum covers the canonical payload, not the file's bytes:
        # keys in another order and spaced separators read alike.
        payload = {"counts": {"3": 4, "2": 8, "1": 4}, "n": 4}
        doc = {"schema_version": 4, "payload": payload, "n": 4, "kind": "row", "checksum": _checksum(payload)}
        (tmp_path / "row_4.json").write_text(json.dumps(doc))
        assert ResultCache(tmp_path).load_row(4) == _ROW

    def test_disabled_cache(self):
        cache = ResultCache(None)
        assert cache.load_row(1) is None
        assert not cache.store_row(_ROW)


def _cache_state(directory):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


class TestCliCacheIntegration:
    def test_cached_rows_equal_fresh(self, capsys, tmp_path):
        code, fresh, _ = run(capsys, "--cache-dir", str(tmp_path), "--format", "csv", "kbar", "--max-n", "10")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"row_{n}.json" for n in range(1, 11))
        code, cached, _ = run(capsys, "--cache-dir", str(tmp_path), "--format", "csv", "kbar", "--max-n", "10")
        assert code == 0
        assert cached == fresh

    def test_histogram_cache_reused_by_kbar(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "--format", "csv", "kbar", "--max-n", "8")
        assert (tmp_path / "row_8.json").exists()
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "--format", "csv", "histogram", "--n", "8")
        assert code == 0

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "--format", "csv", "kbar", "--max-n", "6")
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        assert cold.strip().splitlines()[-1] == "6,132,2.06,33,4"
        # Broken JSON, bytes that are neither UTF-16 (after its byte order
        # mark) nor UTF-8, and nesting deeper than the parser recurses.
        for junk in (b"{not json", b"\xff\xfe\x00", b'{"n": "\xe9"}', b"[" * 200_000):
            (tmp_path / "row_6.json").write_bytes(junk)
            with pytest.warns(UserWarning, match="unparseable"):
                code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, cold)
            assert json.loads((tmp_path / "row_6.json").read_text())["schema_version"] == SCHEMA_VERSION

    def test_histogram_off_by_two_is_recomputed(self, capsys, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "--format", "csv", "histogram", "--n", "8")
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "row_8.json"
        doc = json.loads(path.read_text())
        doc["payload"]["counts"]["1"] += 2
        doc["checksum"] = _checksum(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="stale or corrupt"):
            code, rerun, _ = run(capsys, *argv)
        assert code == 0
        assert rerun == cold

    def test_schema_one_files_are_never_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        argv = ("--format", "csv", "histogram", "--n", "4")
        _, expected, _ = run(capsys, *argv)
        wrong = {"n": 4, "counts": {"1": 4, "2": 8, "3": 4}}
        old = _doc(wrong, kind="histogram", version=1)
        (tmp_path / "histogram_4.json").write_text(old)
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), *argv)
        assert code == 0
        assert out == expected
        assert (tmp_path / "histogram_4.json").read_text() == old

    def test_schema_two_files_are_never_read(self, capsys, tmp_path, monkeypatch):
        # A schema-2 row stored sample words, a schema-3 row every maximizer;
        # each is recomputed once, with one warning, and rewritten as schema 4.
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        argv = ("--format", "json", "histogram", "--n", "4")
        _, expected, _ = run(capsys, *argv)
        for version, extra in ((2, {"sample_maximizers": ["abab"]}), (3, {"maximizers": [4, 10]})):
            wrong = {"n": 4, "counts": {"1": 4, "2": 8, "3": 4}, **extra}
            (tmp_path / "row_4.json").write_text(_doc(wrong, version=version))
            with pytest.warns(UserWarning, match="stale or corrupt") as warned:
                code, out, _ = run(capsys, "--cache-dir", str(tmp_path), *argv)
            assert len(warned) == 1, version
            assert (code, out) == (0, expected), version
            doc = json.loads((tmp_path / "row_4.json").read_text())
            assert doc["schema_version"] == SCHEMA_VERSION == 4
            assert doc["payload"] == {"n": 4, "counts": {"1": 4, "2": 12}}

    def test_cold_kbar_writes_compact_rows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "--format", "csv", "kbar", "--max-n", "26")
        assert code == 0
        files = sorted(tmp_path.iterdir())
        assert len(files) == 26
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        indented = sum(len(json.dumps(json.loads(p.read_text()), sort_keys=True, indent=2)) for p in files)
        assert (sum(p.stat().st_size for p in files), indented) == (5_112, 7_298)

    def test_subcommand_cache_dir_wins(self, capsys, tmp_path, monkeypatch):
        # Before the subcommand, after it, or both (the value after it wins);
        # repeated, the last value wins.
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        cases = [(["G"], [], "G"), ([], ["S"], "S"), (["G"], ["S"], "S"), (["F", "G"], [], "G"), ([], ["F", "S"], "S")]

        def flags(root, names):
            return [arg for name in names for arg in ("--cache-dir", str(root / name))]

        for i, (before, after, used) in enumerate(cases):
            root = tmp_path / str(i)
            assert run(capsys, *flags(root, before), "kbar", "--max-n", "2", *flags(root, after))[0] == 0
            assert [p.name for p in root.iterdir()] == [used]
            assert sorted(p.name for p in (root / used).iterdir()) == ["row_1.json", "row_2.json"]

    def test_env_var_overrides_flag(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("PALIN_CACHE_DIR", str(env_dir))
        for argv in (
            ("--cache-dir", str(flag_dir), "--format", "csv", "kbar", "--max-n", "4"),
            ("--format", "csv", "kbar", "--max-n", "4", "--cache-dir", str(flag_dir)),
        ):
            shutil.rmtree(env_dir, ignore_errors=True)
            code, _, _ = run(capsys, *argv)
            assert code == 0
            assert (env_dir / "row_4.json").exists()
            assert not flag_dir.exists()


class TestEnumerationPasses:
    """Each command enumerates at most once, and later commands in the same
    process reuse that pass."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = enumeration.scan_lengths
        monkeypatch.setattr("palfact.rows._memo", {})
        monkeypatch.setattr(enumeration, "scan_lengths", lambda n_max: calls.append(n_max) or scan(n_max))
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        return calls

    @pytest.mark.parametrize(
        "argv", [("verify", "all", "--max-n", "16", "--trials", "500"), ("histogram", "--n", "12")]
    )
    def test_one_pass_per_command(self, capsys, scans, argv):
        assert run(capsys, *argv)[0] == 0
        assert len(scans) == 1

    # The worst-case rows come from the pruned search, which builds no layer.
    @pytest.mark.parametrize(
        "argv", [("kmax", "--max-n", "21"), ("worst", "--n", "21"), ("verify", "lemma3"), ("verify", "lemma4")]
    )
    def test_worst_rows_and_case_analyses_make_no_pass(self, capsys, scans, argv):
        assert run(capsys, *argv)[0] == 0
        assert scans == []

    def test_later_command_reuses_the_pass(self, capsys, scans):
        assert run(capsys, "kbar", "--max-n", "10")[0] == 0
        assert run(capsys, "histogram", "--n", "8")[0] == 0
        assert scans == [10]

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (("kbar", "--max-n", "21"), list(range(1, 22))),
            (("--format", "json", "kbar", "--max-n", "21"), list(range(1, 22))),
            (("histogram", "--n", "21"), [21]),
            (("--format", "json", "histogram", "--n", "21"), [21]),
            (("bounds",), [21]),
        ],
    )
    def test_rows_stored_by_kbar_serve_every_table(self, capsys, scans, tmp_path, monkeypatch, argv, loaded):
        cache_dir = tmp_path / "cache"
        expected = run(capsys, *argv)
        assert expected[0] == 0
        assert run(capsys, "--cache-dir", str(cache_dir), "kbar", "--max-n", "21")[0] == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted(f"row_{n}.json" for n in range(1, 22))
        before = _cache_state(cache_dir)
        monkeypatch.setattr("palfact.rows._memo", {})
        scans.clear()
        loads = []
        load = ResultCache.load_row
        monkeypatch.setattr(ResultCache, "load_row", lambda self, n: loads.append(n) or load(self, n))
        assert run(capsys, "--cache-dir", str(cache_dir), *argv) == expected
        assert scans == []
        assert loads == loaded
        assert _cache_state(cache_dir) == before

    def test_single_row_miss_stores_every_row_of_its_pass(self, capsys, scans, tmp_path):
        assert run(capsys, "--cache-dir", str(tmp_path), "histogram", "--n", "9")[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"row_{n}.json" for n in range(1, 10))
        assert scans == [9]


# A grammar of CLI invocations, good and bad.  Lengths stay at most 20 or
# jump past the packed limit, so no example enumerates much.
_LENGTHS = st.one_of(st.integers(-2, 20), st.sampled_from([33, 40, 10**9])).map(str)
_WORDS = st.one_of(st.text("ab", min_size=1, max_size=40), st.sampled_from(["", "aXb", "0120", "ab ba", "-a"]))
_FLAG = st.sampled_from([(), ("--allow-long",)])


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["m", "factor", "kmax", "kbar", "histogram", "worst", "verify", "bounds"]))
    if command in ("m", "factor"):
        args = [draw(_WORDS)]
    elif command in ("kmax", "kbar"):
        args = ["--max-n", draw(_LENGTHS), *draw(_FLAG)]
    elif command in ("histogram", "worst"):
        args = ["--n", draw(_LENGTHS), *draw(_FLAG)]
    elif command == "verify":
        target = draw(st.sampled_from(VERIFY_TARGETS))
        args = [target, "--max-n", draw(_LENGTHS), "--trials", str(draw(st.integers(-1, 50)))]
    else:
        args = []
    shared = draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--seed", "7"]]))
    return shared, [command, *args], draw(st.booleans())


class TestContractFuzz:
    @settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_invocations())
    def test_exit_status_and_time_are_bounded(self, capsys, monkeypatch, invocation):
        shared, argv, shared_after = invocation
        monkeypatch.delenv("PALIN_CACHE_DIR", raising=False)
        with tempfile.TemporaryDirectory() as cache_dir:
            shared = [*shared, "--cache-dir", cache_dir]
            argv = [*argv, *shared] if shared_after else [*shared, *argv]
            start = time.perf_counter()
            code = dispatch(argv)
            elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert elapsed < 5, argv
