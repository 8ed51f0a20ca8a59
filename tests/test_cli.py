"""Command-line behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankedrev import (PostulateId, PropSet, RankedRevision, Signature, dnf_text,
                       enumerate_rank_functions, format_rank_file, models_of, parse_formula,
                       random_rank_function, run_suite)
from rankedrev.cli import main

from helpers import R0, SIG2, SIG3, SIG4, SIG5, SIG16, ps
from oracles import MinRankRevision, min_rank_valuations, replay_reference, sampled_reference

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


@pytest.fixture
def rank5_path(tmp_path):
    path = tmp_path / "five.rnk"
    path.write_text(format_rank_file(random_rank_function(SIG5, 3, 1)))
    return str(path)


@pytest.fixture(scope="session")
def rank16_path(tmp_path_factory, rank16):
    path = tmp_path_factory.mktemp("rank16") / "sixteen.rnk"
    path.write_text(format_rank_file(rank16))
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

    def test_severe_revision_past_four_atoms(self, capsys, rank5_path):
        # a severe cell is phi's part of the lowest rank level it meets, so
        # no table over 2**32 formula classes is needed: revise and trace
        # answer the minimum-rank models of phi
        rank = random_rank_function(SIG5, 3, 1)

        def lowest(phi):
            return dnf_text(PropSet.from_valuations(
                SIG5, min_rank_valuations(rank.ranks, ps(SIG5, phi).valuations())))

        assert lowest("!p") != dnf_text(ps(SIG5, "!p"))
        code, out, _ = run(capsys, "revise", "--rank", rank5_path, "--theory", "p",
                           "--phi", "!p")
        assert (code, out) == (0, f"{lowest('!p')} [severe]\n")
        code, out, _ = run(capsys, "trace", "--rank", rank5_path, "--theory", "p",
                           "--phi", "!p", "--phi", "p")
        assert code == 0
        assert out.splitlines() == [f"{dnf_text(ps(SIG5, 'p'))} * !p => {lowest('!p')} [severe]",
                                    f"{lowest('!p')} * p => {lowest('p')} [severe]"]
        code, out, _ = run(capsys, "revise", "--rank", rank5_path, "--theory", "p",
                           "--phi", "p | q")
        assert code == 0 and out.endswith("[mild]\n")

    def test_sixteen_atoms(self, capsys, rank16, rank16_path):
        every_atom = " & ".join("pqrstuvwxyzabcde")
        code, out, _ = run(capsys, "revise", "--rank", rank16_path, "--theory", every_atom,
                           "--phi", "p | r")
        assert code == 0
        assert out == every_atom + " [mild]\n"
        # severe: the models of !p on the lowest level that !p meets
        code, out, _ = run(capsys, "revise", "--rank", rank16_path, "--theory", "p",
                           "--phi", "!p", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["severity"] == "severe"
        not_p = ps(SIG16, "!p")
        want = MinRankRevision(rank16).revise_mask(ps(SIG16, "p").mask, not_p.mask)
        assert 0 < want != not_p.mask
        assert ps(SIG16, record["result"]).mask == want


    @pytest.mark.parametrize("n, theory, models", [(9, "p", 256),
                                                   (16, "p & q & r & s & t & u & v", 512)],
                             ids=["9atoms", "16atoms"])
    def test_printed_theory_reads_back(self, capsys, tmp_path, rank16_path, n, theory, models):
        # more minterms than MAX_FORMULA_DEPTH: these exited 2 while a chain
        # of them was as tall as it is long
        sig = Signature(SIG16.atoms[:n])
        path = rank16_path
        if n < 16:
            path = tmp_path / "rank.rnk"
            path.write_text(format_rank_file(random_rank_function(sig, 3, 1)))
        code, out, _ = run(capsys, "revise", "--rank", str(path), "--theory", theory,
                           "--phi", "true")
        assert code == 0 and out.endswith(" [mild]\n")
        text = out.removesuffix(" [mild]\n")
        assert text.count("|") == models - 1
        assert models_of(parse_formula(text, sig), sig) == models_of(parse_formula(theory, sig), sig)
        assert run(capsys, "revise", "--rank", str(path), "--theory", text,
                   "--phi", "true") == (0, out, "")


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

    def test_rank_file_not_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "binary.rnk"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", "--rank", str(path), "--postulates", "all")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err

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

    def test_sampled_past_four_atoms(self, capsys, rank5_path):
        # severe cells come from the rank levels, so sampled mode answers
        # at 5 atoms: the min-rank oracle's records, and every violation
        # replays; 5000 samples reach U8 and C2, which ranked revisions fail
        rank = random_rank_function(SIG5, 3, 1)
        rv = RankedRevision(rank)
        for samples, failing in ((500, []), (5000, ["U8", "C2"])):
            code, out, _ = run(capsys, "check", "--rank", rank5_path, "--postulates", "all",
                               "--mode", "sampled", "--seed", "1", "--samples", str(samples),
                               "--json")
            want = run_suite(MinRankRevision(rank), PostulateId, mode="sampled", seed=1,
                             samples=samples)
            assert json.loads(out) == want.to_json_records()
            assert [v.postulate.name for v in want.violations] == failing
            assert code == (1 if failing else 0)
            assert all(v.replay(rv) and replay_reference(v, rv) for v in want.violations)

    @pytest.mark.parametrize("postulate", ["U8_1", "C1"])
    def test_sampled_clause_reaching_a_severe_cell(self, capsys, rank5_path, postulate):
        # a sampled clause reads each revision column at every drawn
        # binding, also where its condition does not hold, so it reads
        # severe cells that its own conditions would skip: the verdict is
        # the one of the clause's scalar statement on the min-rank oracle
        rank = random_rank_function(SIG5, 3, 1)
        code, out, _ = run(capsys, "check", "--rank", rank5_path, "--postulates", postulate,
                           "--mode", "sampled", "--seed", "1")
        assert sampled_reference(MinRankRevision(rank), PostulateId[postulate], 1, 500) is None
        assert (code, out.splitlines()[1:]) == (0, [f"{postulate} pass"])

    def test_atom_count_mismatch_exit_two(self, capsys, rank_path):
        code, _, _ = run(capsys, "check", "--rank", rank_path,
                         "--postulates", "K1", "--atoms", "3")
        assert code == 2

    def test_atom_count_mismatch_at_sixteen_atoms_exit_two(self, capsys, rank16_path):
        code, out, err = run(capsys, "check", "--rank", rank16_path,
                             "--postulates", "K1", "--atoms", "15")
        assert code == 2
        assert out == "" and "16-atom rank file" in err

    def test_level_label_not_ascii_exit_two(self, capsys, tmp_path):
        # '²' passes str.isdigit() but not int()
        path = tmp_path / "superscript.rnk"
        path.write_text("atoms: p q\n²: 11 01 10 00\n", encoding="utf-8")
        code, out, err = run(capsys, "check", "--rank", str(path), "--postulates", "K1")
        assert code == 2
        assert out == "" and err.startswith("error: bad level line")
        assert "Traceback" not in err

    def test_atoms_not_ascii_exit_two(self, capsys, rank_path):
        # '²' passes str.isdigit() but not int(), so it is not a count
        code, out, err = run(capsys, "check", "--rank", rank_path,
                             "--postulates", "K1", "--atoms", "²")
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err


class TestEnumerate:
    def test_one_atom_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "p")
        assert code == 0
        assert out.splitlines() == ["0 0", "0 1", "1 0"]

    def test_two_atom_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "p,q")
        assert code == 0
        ranks = [r.ranks for r in enumerate_rank_functions(SIG2)]
        assert len(ranks) == 75
        assert out == "".join(" ".join(str(x) for x in v) + "\n" for v in ranks)

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "p,q", "--count-only")
        assert code == 0
        assert out.strip() == "75"

    def test_count_only_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--atoms", "3", "--count-only")
        assert code == 0 and out.strip() == "545835"
        code, out, err = run(capsys, "enumerate", "--atoms", "4", "--count-only")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_closed_pipe_exits_141_quietly(self):
        # the listing is 8.7 MB, far past a pipe's buffer, so the command is
        # still writing when its reader closes the pipe after one line
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "rankedrev", "enumerate", "--atoms", "3"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() == b"0 0 0 0 0 0 0 0\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
            assert err == b""
        finally:
            proc.kill()
            proc.wait()

    def test_pipe_closed_before_a_buffered_write_exits_141_quietly(self):
        # a short listing is written by the flush at the end of the run
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   PYTHONUNBUFFERED="")
        try:
            done = subprocess.run([sys.executable, "-m", "rankedrev", "enumerate", "--atoms", "1"],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    @pytest.mark.parametrize("atoms", ["p,p", "true"])
    def test_bad_atoms_exit_two(self, capsys, atoms):
        code, out, err = run(capsys, "enumerate", "--atoms", atoms)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_atoms_not_ascii_exit_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--atoms", "²")
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("which", ["C2", "U8_1"])
    def test_impossibility_past_three_atoms_exit_two(self, capsys, rank4_path, which):
        code, out, err = run(capsys, "witness", "--rank", rank4_path, "--which", which)
        assert (code, out) == (2, "")
        assert "checks its preconditions exhaustively, up to 3 atoms; got 4" in err
        assert "sampled" not in err

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

    @pytest.mark.parametrize("n", [12, 16])
    def test_formula_at_many_atoms(self, capsys, n):
        # half of the 2**n valuations: a disjunction of 2**(n-1) minterms
        code, out, _ = run(capsys, "roundtrip", "--atoms", str(n), "--phi", "p")
        assert code == 0
        sig = Signature(SIG16.atoms[:n])
        assert out == dnf_text(models_of(parse_formula("p", sig), sig)) + "\n"

    @pytest.mark.parametrize("phi", ["(" * 400 + "p" + ")" * 400, "(" * 257 + "p" + ")" * 257,
                                     "!" * 257 + "p", " -> ".join(["p"] * 257)],
                             ids=["400-parentheses", "257-parentheses", "257-negations",
                                  "257-implication-chain"])
    def test_too_deep_formula_exit_two(self, capsys, rank_path, phi):
        for argv in (["roundtrip", "--atoms", "p,q"], ["trace", "--rank", rank_path,
                                                        "--theory", "p"]):
            code, out, err = run(capsys, *argv, "--phi", phi)
            assert (code, out) == (2, "")
            assert err.startswith("error: formula nests more than 256 deep")

    def test_long_chain_exit_zero(self, capsys, rank_path):
        # a chain of one operator is one level, however long
        phi = " & ".join(["p"] * 2000)
        code, out, _ = run(capsys, "roundtrip", "--atoms", "p,q", "--phi", phi)
        assert (code, out) == (0, "(p & !q) | (p & q)\n")
        code, out, _ = run(capsys, "trace", "--rank", rank_path, "--theory", "q", "--phi", phi)
        assert (code, out) == (0, f"(!p & q) | (p & q) * {phi} => p & q [mild]\n")


class TestTrace:
    def test_two_step_trace(self, capsys, rank_path):
        code, out, _ = run(capsys, "trace", "--rank", rank_path, "--theory", "!q",
                           "--phi", "p", "--phi", "q")
        assert code == 0
        assert out.splitlines() == [
            "(!p & !q) | (p & !q) * p => p & !q [mild]",
            "p & !q * q => p & q [severe]",
        ]

    def test_phi_echoed_as_parsed(self, capsys, rank_path):
        # parentheses around a chain of one operator make a node of their own
        code, out, _ = run(capsys, "trace", "--rank", rank_path, "--theory", "q",
                           "--phi", "(p & q) & p", "--phi", "p & (q & p)", "--phi", "p&q&p")
        assert code == 0
        assert [line.split(" => ")[0].split(" * ")[1] for line in out.splitlines()] == [
            "(p & q) & p", "p & (q & p)", "p & q & p"]

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
