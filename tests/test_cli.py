"""End-to-end command-line behaviour, exit codes, and the JSON schema."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from bsgeo import GroupParams, int_norm
from bsgeo.cli import main

APPENDIX = "7t14T-2tt9T2T23"


def run_cli(*args: str):
    proc = subprocess.run(
        [sys.executable, "-m", "bsgeo", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


class TestBasicCommands:
    def test_britton_appendix(self):
        proc = run_cli("--p", "1", "--q", "3", "britton", APPENDIX)
        assert proc.returncode == 0
        assert proc.stdout == "157\n"

    def test_britton_identity(self):
        proc = run_cli("--p", "1", "--q", "3", "britton", "")
        assert proc.returncode == 0
        assert proc.stdout == "\n"

    def test_classify(self):
        proc = run_cli("--p", "2", "--q", "4", "classify", "1T1t1")
        assert proc.returncode == 0
        assert proc.stdout == "difficult (valley)\n"

    def test_tseq(self):
        proc = run_cli("--p", "2", "--q", "4", "tseq", "1T1t1")
        assert proc.stdout == "Tt\n"

    def test_canonical(self):
        proc = run_cli("--p", "1", "--q", "3", "canonical", "3t")
        assert proc.stdout == "t1\n"

    def test_llnf(self):
        proc = run_cli("--p", "1", "--q", "3", "llnf", APPENDIX)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["t^4 2TTT-1T-2", "ttttaaTTTATAA", "13"]

    def test_llnf_raw_flag(self):
        proc = run_cli("--p", "1", "--q", "3", "--raw", "llnf", APPENDIX)
        assert proc.stdout == "ttttaaTTTATAA\n"

    def test_pnf(self):
        proc = run_cli("--p", "2", "--q", "4", "pnf", "1T1t1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["1T1t1", "aTata", "5"]

    def test_geolen(self):
        proc = run_cli("--p", "1", "--q", "3", "geolen", "tT")
        assert proc.stdout == "0\n"
        proc = run_cli("--p", "1", "--q", "3", "geolen", APPENDIX)
        assert proc.stdout == "13\n"


class TestExitCodes:
    def test_parse_error(self):
        proc = run_cli("--p", "1", "--q", "3", "britton", "a^x")
        assert proc.returncode == 1
        assert "offset" in proc.stderr

    def test_not_horocyclic(self):
        proc = run_cli("--p", "2", "--q", "4", "llnf", "1T1t1")
        assert proc.returncode == 1

    def test_unsupported_case(self):
        proc = run_cli("--p", "2", "--q", "3", "pnf", "1T1t1")
        assert proc.returncode == 2
        assert "open" in proc.stderr

    def test_unsupported_geolen(self):
        proc = run_cli("--p", "2", "--q", "3", "geolen", "1T1t1")
        assert proc.returncode == 2

    def test_bad_params(self):
        proc = run_cli("--p", "3", "--q", "2", "britton", "a")
        assert proc.returncode == 1

    def test_expansion_limit(self):
        proc = run_cli("--p", "1", "--q", "3", "--raw", "britton", "t^30 1 T^30")
        assert proc.returncode == 1
        assert "exceeds limit" in proc.stderr

    def test_expansion_limit_override(self):
        proc = run_cli(
            "--p", "1", "--q", "3", "--raw",
            "--max-expansion", "100000", "britton", "t^10 1 T^10",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "a" * 3**10

    def test_expansion_limit_bounds_only_britton_and_canonical(self):
        # llnf and pnf print geodesics, never longer than the parsed input
        for command in ("llnf", "pnf"):
            proc = run_cli("--p", "2", "--q", "4", "--raw", "--max-expansion", "3", command, "1000")
            assert proc.returncode == 0
            assert len(proc.stdout.strip()) == 24
        proc = run_cli("--p", "2", "--q", "4", "--raw", "--max-expansion", "3", "britton", "1000")
        assert proc.returncode == 1
        assert "exceeds limit" in proc.stderr

    @pytest.mark.parametrize(
        "coefficient",
        ["100000000000000000000", "7" * 5000, "1000000000"],
        ids=["20-digits", "5000-digits", "10^9"],
    )
    def test_huge_coefficient_is_a_clean_error(self, coefficient):
        # a t-run beyond words.MAX_T_LETTERS is refused on its digit count,
        # before its exponent is converted or any letter allocated
        start = time.perf_counter()
        proc = run_cli("--p", "1", "--q", "2", "geolen", "t^" + coefficient)
        assert time.perf_counter() - start < 5  # interpreter start-up included
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_unallocatable_coefficient_is_a_clean_error(self):
        # 10^15 < sys.maxsize, but a t-run of 10^15 letters exceeds words.MAX_T_LETTERS
        proc = run_cli("--p", "1", "--q", "2", "geolen", f"t^{10**15}")
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "coefficient, text",
        [(10**20, "1" + "0" * 20), (7 * (10**5000 - 1) // 9, "7" * 5000), (10**15, "1" + "0" * 15)],
        ids=["20-digits", "5000-digits", "10^15"],
    )
    def test_huge_coefficient_is_answered(self, coefficient, text):
        # coefficients are parsed as integers, never spelled out in letters
        proc = run_cli("--p", "1", "--q", "2", "geolen", text)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{int_norm(coefficient, GroupParams(1, 2))}\n"

    def test_table_beyond_cost_guard_is_a_clean_error(self):
        # BS(40,41) has slope radius 3240: its integer table is refused at once
        proc = run_cli("--p", "40", "--q", "41", "geolen", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["britton", "canonical", "tseq", "classify"])
    def test_structural_commands_need_no_table(self, command, capsys):
        # in-process: these commands never build the integer table
        assert main(["--p", "40", "--q", "41", command, APPENDIX]) == 0
        assert capsys.readouterr().err == ""

    def test_unexpected_exception_is_one_error_line(self, capsys, monkeypatch):
        # a bug that escapes as a non-BSError exception still exits 1 with one line
        def broken(args, params):
            raise KeyError("missing row")

        monkeypatch.setattr("bsgeo.cli.cmd_geolen", broken)
        assert main(["--p", "2", "--q", "3", "geolen", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "KeyError" in lines[0]

    def test_output_beyond_default_digit_limit(self):
        # 2^40000 has 12042 digits, more than int/str converts by default
        proc = run_cli("--p", "1", "--q", "2", "britton", "t^40000 1 T^40000")
        assert proc.returncode == 0
        assert proc.stderr == ""
        out = proc.stdout.strip()
        assert out.isdigit() and len(out) == 12042
        assert int(out[-18:]) == pow(2, 40000, 10**18)


class TestJson:
    def test_britton_schema_golden(self):
        proc = run_cli("--p", "1", "--q", "3", "--format", "json", "britton", APPENDIX)
        assert proc.stdout.strip() == json.dumps(
            {
                "p": 1,
                "q": 3,
                "input": APPENDIX,
                "britton": "157",
                "t_sequence": "",
                "classification": "horocyclic",
                "pnf": None,
                "llnf": None,
                "geodesic_length": None,
            }
        )

    def test_pnf_schema_golden(self):
        proc = run_cli("--p", "2", "--q", "4", "--format", "json", "pnf", "1T1t1")
        assert proc.stdout.strip() == json.dumps(
            {
                "p": 2,
                "q": 4,
                "input": "1T1t1",
                "britton": "1T1t1",
                "t_sequence": "Tt",
                "classification": None,
                "pnf": "1T1t1",
                "llnf": None,
                "geodesic_length": 5,
            }
        )

    def test_llnf_schema(self):
        proc = run_cli("--p", "1", "--q", "3", "--format", "json", "llnf", "157")
        obj = json.loads(proc.stdout)
        assert set(obj) == {
            "p",
            "q",
            "input",
            "britton",
            "t_sequence",
            "classification",
            "pnf",
            "llnf",
            "geodesic_length",
        }
        assert obj["llnf"] == "t^4 2TTT-1T-2"
        assert obj["geodesic_length"] == 13
        assert obj["pnf"] is None


class TestOracleAndFuzz:
    def test_oracle_ball_radius_zero(self, tmp_path):
        out = tmp_path / "ball.tsv"
        proc = run_cli(
            "--p", "1", "--q", "3", "oracle", "ball", "--radius", "0", "--out", str(out)
        )
        assert proc.returncode == 0
        assert out.read_text() == "\t0\t\n"

    def test_oracle_check(self):
        proc = run_cli(
            "--p", "1", "--q", "2", "oracle", "check", "--wordlen", "4", "--radius", "7"
        )
        assert proc.returncode == 0
        assert proc.stdout == "OK (all 341 words)\n"

    def test_oracle_check_nondividing_skips_open_case(self):
        proc = run_cli(
            "--p", "2", "--q", "3", "oracle", "check", "--wordlen", "4", "--radius", "6"
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("fuzz", "--maxlen", "-1"),
            ("fuzz", "--iterations", "-3"),
            ("fuzz", "--radius", "-1"),
            ("oracle", "check", "--wordlen", "-2"),
            ("oracle", "ball", "--radius", "-1"),
            ("--max-expansion", "-5", "britton", "a"),
        ],
        ids=["maxlen", "iterations", "fuzz-radius", "wordlen", "ball-radius", "max-expansion"],
    )
    def test_negative_count_is_a_usage_error(self, args):
        # a negative count is an argparse usage error (exit 2), like every malformed option
        proc = run_cli("--p", "1", "--q", "2", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "non-negative integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [("oracle", "ball", "--radius", "13"), ("fuzz", "--radius", "13")],
        ids=["ball", "fuzz"],
    )
    def test_ball_beyond_guard_is_refused_at_once(self, args):
        # radius 13 would enumerate 89M words; the guard admits radius <= 10
        t0 = time.perf_counter()
        proc = run_cli("--p", "2", "--q", "4", *args)
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_unwritable_ball_path_is_a_clean_error(self, tmp_path):
        out = tmp_path / "missing" / "ball.tsv"
        proc = run_cli(
            "--p", "1", "--q", "3", "oracle", "ball", "--radius", "3", "--out", str(out)
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_fuzz_deterministic(self):
        args = (
            "--p", "2", "--q", "4", "fuzz",
            "--iterations", "1000", "--seed", "42", "--maxlen", "12", "--radius", "6",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout == "OK (1000 iterations, seed 42)\n"
