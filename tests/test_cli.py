"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestSizes:
    def test_runs_and_prints_table(self, capsys):
        assert main(["sizes", "--max-exp", "4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "16" in out  # n = 2^4

    def test_default_max_exp(self, capsys):
        assert main(["sizes", "--max-exp", "3"]) == 0
        assert "8" in capsys.readouterr().out


class TestCertificate:
    def test_prints_all_quantities(self, capsys):
        assert main(["certificate", "16"]) == 0
        out = capsys.readouterr().out
        assert "margin" in out and "uCFG size bound" in out
        assert "16,640" in out  # the exact margin for m = 4

    def test_invalid_n(self, capsys):
        assert main(["certificate", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGrammar:
    def test_prints_rules(self, capsys):
        assert main(["grammar", "5"]) == 0
        out = capsys.readouterr().out
        assert "->" in out and "size" in out

    def test_language_parameter_in_header(self, capsys):
        main(["grammar", "12"])
        assert "L_12" in capsys.readouterr().out


class TestCover:
    def test_runs_for_small_n(self, capsys):
        assert main(["cover", "2"]) == 0
        out = capsys.readouterr().out
        assert "disjoint: True" in out

    def test_rejects_large_n(self, capsys):
        assert main(["cover", "9"]) == 2
        assert "infeasible" in capsys.readouterr().err


class TestLemma18:
    def test_verifies(self, capsys):
        assert main(["lemma18", "2"]) == 0
        out = capsys.readouterr().out
        assert "256" in out  # |L| for m = 2

    def test_rejects_large_m(self, capsys):
        assert main(["lemma18", "9"]) == 2


class TestMember:
    def test_member_with_positions(self, capsys):
        assert main(["member", "abab", "2"]) == 0
        out = capsys.readouterr().out
        assert "True" in out and "[0]" in out

    def test_non_member(self, capsys):
        assert main(["member", "bbbb", "2"]) == 0
        assert "False" in capsys.readouterr().out

    def test_wrong_length(self, capsys):
        assert main(["member", "ab", "2"]) == 2
        assert "length" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "member", "aa", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "True" in result.stdout


class TestZoo:
    def test_runs(self, capsys):
        assert main(["zoo", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "min DFA" in out and "uCFG" in out

    def test_max_n_clamped(self, capsys):
        assert main(["zoo", "--max-n", "99"]) == 0  # clamps to 5


class TestCertificateJson:
    def test_json_output(self, capsys):
        import json

        assert main(["certificate", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 4
        assert payload["margin"] == 16640
        assert payload["lemma18_threshold_holds"] is True

    def test_json_huge_values_stringified(self, capsys):
        import json

        assert main(["certificate", "65536", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["n"], int)


class TestBenchBackends:
    def test_bench_offers_only_backends(self):
        bench = build_parser().parse_args(["bench", "backends", "--repeats", "1"])
        assert (bench.target, bench.repeats, bench.seed, bench.out) == ("backends", 1, 0, None)
        for retired in ("parsing", "comm", "automata", "extract", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", retired])

    def test_artifact_names_its_commit(self, tmp_path, monkeypatch):
        import json
        import shutil
        import subprocess

        from repro import cli

        if shutil.which("git") is None:
            pytest.skip("needs the git executable")
        checkout = tmp_path / "checkout"
        checkout.mkdir()

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(checkout), *args],
                capture_output=True, text=True, check=True,
            ).stdout.strip()

        def artifact(root) -> dict:
            monkeypatch.setattr(cli, "_SOURCE_ROOT", root)
            out = tmp_path / "BENCH_backends.json"
            assert main(["bench", "backends", "--repeats", "1", "--out", str(out)]) == 0
            return json.loads(out.read_text())

        git("init", "-q")
        (checkout / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("-c", "user.name=t", "-c", "user.email=t@example.invalid",
            "-c", "commit.gpgsign=false", "commit", "-qm", "c")
        clean = artifact(checkout)
        assert clean["kind"] == "backends_bench" and clean["rows"]
        assert (clean["git_sha"], clean["git_dirty"]) == (git("rev-parse", "HEAD"), False)
        (checkout / "tracked.txt").write_text("two\n")
        assert artifact(checkout)["git_dirty"] is True
        # Outside a git work tree both fields are null.
        plain = artifact(tmp_path)
        assert (plain["git_sha"], plain["git_dirty"]) == (None, None)
