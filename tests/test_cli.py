"""Command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from rankedrev import format_rank_file, random_rank_function
from rankedrev.cli import main

from helpers import R0, SIG3, SIG4

R0_FILE = "atoms: p q\n0: 11\n1: 01 10\n2: 00\n"


@pytest.fixture
def rank_path(tmp_path):
    path = tmp_path / "R0.rnk"
    path.write_text(R0_FILE)
    return str(path)


@pytest.fixture
def rank3_path(tmp_path):
    path = tmp_path / "three.rnk"
    path.write_text(format_rank_file(random_rank_function(SIG3, 3, 1)))
    return str(path)


@pytest.fixture
def rank4_path(tmp_path):
    path = tmp_path / "four.rnk"
    path.write_text(format_rank_file(random_rank_function(SIG4, 3, 1)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRevise:
    def test_severe_revision(self, capsys, rank_path):
        code, out, _ = run(capsys, "revise", "--rank", rank_path, "--theory", "!q", "--phi", "q")
        assert code == 0
        assert out == "p & q [severe]\n"

    def test_mild_revision(self, capsys, rank_path):
        code, out, _ = run(capsys, "revise", "--rank", rank_path, "--theory", "p", "--phi", "q")
        assert code == 0
        assert out == "p & q [mild]\n"

    def test_bottom_theory_literal(self, capsys, rank_path):
        code, out, _ = run(capsys, "revise", "--rank", rank_path, "--theory", "bot", "--phi", "true")
        assert code == 0
        assert out == "p & q [severe]\n"

    def test_json(self, capsys, rank_path):
        code, out, _ = run(capsys, "revise", "--rank", rank_path, "--theory", "!q",
                           "--phi", "q", "--json")
        assert code == 0
        assert json.loads(out) == {"result": "p & q", "severity": "severe"}


class TestCheck:
    def test_all_pass_exit_zero(self, capsys, rank_path):
        code, out, _ = run(capsys, "check", "--rank", rank_path,
                           "--postulates", "K1..K9", "--atoms", "2")
        assert code == 0
        for i in range(1, 10):
            assert f"K{i} pass" in out

    def test_violation_exit_one(self, capsys, rank_path):
        code, out, _ = run(capsys, "check", "--rank", rank_path, "--postulates", "U8_1")
        assert code == 1
        assert "U8_1 FAIL" in out

    def test_json_report(self, capsys, rank_path):
        code, out, _ = run(capsys, "check", "--rank", rank_path,
                           "--postulates", "K2,U8_1", "--json")
        assert code == 1
        records = json.loads(out)
        assert [r["postulate"] for r in records] == ["K2", "U8_1"]
        assert records[1]["verdict"] == "fail"
        assert set(records[1]["witness"]) == {"K", "Kprime", "phi", "observed", "required"}

    def test_sampled_mode_records_seed(self, capsys, rank3_path):
        code, out, _ = run(capsys, "check", "--rank", rank3_path,
                           "--postulates", "P_GEN", "--mode", "sampled",
                           "--seed", "11", "--samples", "100", "--json")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["seed"] == 11 and rec["samples"] == 100

    def test_unknown_postulate_exit_two(self, capsys, rank_path):
        code, _, err = run(capsys, "check", "--rank", rank_path, "--postulates", "NOPE")
        assert code == 2
        assert "NOPE" in err

    def test_domain_error_exit_two(self, capsys, rank4_path):
        code, _, err = run(capsys, "check", "--rank", rank4_path, "--postulates", "K7")
        assert code == 2
        assert "sampled" in err

    @pytest.mark.parametrize("extra, message", [
        ((), "seed"),
        (("--seed", "1", "--samples", "0"), "sample"),
        (("--seed", "1", "--samples", "-5"), "sample"),
    ])
    def test_bad_sampling_exit_two(self, capsys, rank_path, extra, message):
        code, out, err = run(capsys, "check", "--rank", rank_path, "--postulates", "K7",
                             "--mode", "sampled", *extra)
        assert code == 2
        assert out == "" and message in err

    def test_atom_count_mismatch_exit_two(self, capsys, rank_path):
        code, _, _ = run(capsys, "check", "--rank", rank_path,
                         "--postulates", "K1", "--atoms", "3")
        assert code == 2


class TestEnumerate:
    def test_one_atom_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "p")
        assert code == 0
        assert out.splitlines() == ["0 0", "0 1", "1 0"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "p,q", "--count-only")
        assert code == 0
        assert out.strip() == "75"

    @pytest.mark.parametrize("atoms", ["p,p", "true"])
    def test_bad_atoms_exit_two(self, capsys, atoms):
        code, out, err = run(capsys, "enumerate", "--atoms", atoms)
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestWitness:
    def test_impossibility_u8_1(self, capsys, rank_path):
        code, out, _ = run(capsys, "witness", "--rank", rank_path, "--which", "U8_1")
        assert code == 0
        assert out.startswith("U8_1 violation: K=!p & !q; Kprime=bot; phi=true")

    def test_impossibility_c2_json(self, capsys, rank_path):
        code, out, _ = run(capsys, "witness", "--rank", rank_path,
                           "--which", "C2_vs_K1K4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["postulate"] == "C2"
        assert data["witness"]["psi"] == "false"

    def test_dynamic_found(self, capsys, rank_path):
        code, out, _ = run(capsys, "witness", "--rank", rank_path,
                           "--which", "dynamic", "--theory", "p & q")
        assert code == 0
        assert "anchor: p & q" in out
        assert "first:" in out and "second:" in out

    def test_dynamic_bottom_not_found(self, capsys, rank_path):
        code, _, err = run(capsys, "witness", "--rank", rank_path,
                           "--which", "dynamic", "--theory", "bot")
        assert code == 2
        assert "degenerate" in err


class TestRoundtrip:
    def test_formula_to_dnf(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--atoms", "p,q", "--phi", "p -> q")
        assert code == 0
        assert out == "(!p & !q) | (!p & q) | (p & q)\n"

    def test_constants(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--atoms", "p,q", "--phi", "p & !p")
        assert out == "false\n"
        code, out, _ = run(capsys, "roundtrip", "--atoms", "p,q", "--phi", "p | !p")
        assert out == "true\n"

    def test_rank_file_reemitted(self, capsys, rank_path):
        code, out, _ = run(capsys, "roundtrip", "--rank", rank_path)
        assert code == 0
        assert out == R0_FILE


class TestTrace:
    def test_two_step_trace(self, capsys, rank_path):
        code, out, _ = run(capsys, "trace", "--rank", rank_path, "--theory", "!q",
                           "--phi", "p", "--phi", "q")
        assert code == 0
        assert out.splitlines() == [
            "(!p & !q) | (p & !q) * p => p & !q [mild]",
            "p & !q * q => p & q [severe]",
        ]

    def test_empty_trace(self, capsys, rank_path):
        code, out, _ = run(capsys, "trace", "--rank", rank_path, "--theory", "!q")
        assert code == 0
        assert out == ""


class TestExample:
    def test_paris_outcome(self, capsys):
        code, out, _ = run(capsys, "example", "paris")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "c & rp & ro * !c => !c & !rp & !ro [severe]"
        assert lines[1] == "c & rp & ro * c => c & rp & ro [mild]"
        assert lines[2] == "bot * !c => !c & !rp & !ro [severe]"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "example", "paris")
        _, second, _ = run(capsys, "example", "paris")
        assert first == second

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "example", "nope")
        assert code == 2


class TestUsageErrors:
    def test_missing_rank_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "revise", "--rank", str(tmp_path / "none.rnk"),
                           "--theory", "p", "--phi", "q")
        assert code == 2

    def test_bad_formula(self, capsys, rank_path):
        code, _, err = run(capsys, "revise", "--rank", rank_path,
                           "--theory", "p &", "--phi", "q")
        assert code == 2

    def test_unknown_atom_in_formula(self, capsys, rank_path):
        code, _, err = run(capsys, "revise", "--rank", rank_path,
                           "--theory", "z", "--phi", "q")
        assert code == 2
        assert "z" in err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys, rank_path):
        assert main(["revise", "--rank", rank_path, "--nope"]) == 2
