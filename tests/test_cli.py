"""Command-line behavior: exit codes, report streams, JSON determinism."""

import dataclasses
import json

import pytest

import amalgam.cli as cli
from amalgam.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK, RunOptions, execute_model, main
from amalgam.constructions import upper_triangular, zmod
from amalgam.errors import SearchBudgetError
from amalgam.properties import PropertyKind, PolyWitness, check_armendariz, get_report
from amalgam.specdsl import parse_spec

DUP_SPEC = """\
ring A = zmod 4
ideal J of A = generated { 2 }
hom f : A -> A = canonical
amalgam AM = A join f J
check AM reduced
check AM armendariz degree 1
check A armendariz degree 2 assert holds
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "dup.spec"
    path.write_text(DUP_SPEC)
    return str(path)


def test_run_spec_clean_exit(spec_file, capsys):
    code = main(["run", spec_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "check AM reduced: REFUTED" in out
    assert "element (0,2)" in out
    assert "check A armendariz degree 2: HOLDS_UP_TO_BOUND" in out


def test_run_writes_deterministic_json(spec_file, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", spec_file, "--json", str(j1)]) == EXIT_OK
    assert main(["run", spec_file, "--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()
    payload = json.loads(j1.read_text())
    assert payload["status"] == "COMPLETE"
    assert payload["reports"][0]["verdict"] == "REFUTED"
    assert payload["reports"][0]["witness"]["element"] == "(0,2)"


def test_run_rejects_parse_errors(tmp_path, capsys):
    path = tmp_path / "broken.spec"
    path.write_text("ring A = zmod 4\nring A = zmod 2\n")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert "DUPLICATE_NAME" in captured.err
    assert str(path) in captured.err


def test_run_over_budget_product_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text("ring A = zmod 16\nring R = product(A, A)\nring S = product(R, A)\n")
    assert main(["run", str(path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == f"{path}:line 3:10: CONSTRAINT: direct product would have 4096 elements, budget is 256\n"
    assert captured.out == ""


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/x.spec"]) == EXIT_FAILURE
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "zmod 4", "armendariz"], ["harness"], ["search", "weak-not-nil"]])
def test_negative_degree_flag_is_rejected(argv, capsys):
    assert main(argv + ["--degree", "-1"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert "--degree must be non-negative, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["check", "zmod 4", "armendariz"], ["harness", "--degree", "1"], ["search", "weak-not-nil"]])
def test_negative_max_ring_size_flag_is_rejected(argv, capsys):
    assert main(argv + ["--max-ring-size", "-5"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert "--max-ring-size must be non-negative, got -5" in captured.err
    assert captured.out == ""


def test_negative_max_size_flag_is_rejected(capsys):
    assert main(["search", "weak-not-nil", "--max-size", "-1"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert "--max-size must be non-negative, got -1" in captured.err
    assert captured.out == ""


def test_negative_degree_in_spec_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "neg.spec"
    path.write_text("ring A = zmod 4\ncheck A armendariz degree -1\n")
    assert main(["run", str(path)]) == EXIT_FAILURE
    assert f"{path}:line 2:27: CONSTRAINT" in capsys.readouterr().err


def test_assert_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "assert.spec"
    path.write_text("ring T = upper(zmod 2 ...)")
    path.write_text(
        "ring A = zmod 2\nring U = upper(A, 2)\ncheck U armendariz degree 1 assert holds\n"
    )
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_FAILURE
    assert "ASSERT holds FAILED" in out


def test_check_subcommand_with_corpus_name(capsys):
    code = main(["check", "matrix(zmod(2),2)", "armendariz", "--degree", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "REFUTED" in out


def test_check_subcommand_with_constructor(capsys):
    code = main(["check", "zmod 9", "weak-armendariz", "--degree", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "HOLDS_UP_TO_BOUND" in out


def test_check_subcommand_assert_refuted(capsys):
    code = main(["check", "upper(zmod(2),2)", "armendariz", "--degree", "1", "--assert", "refuted"])
    capsys.readouterr()
    assert code == EXIT_OK


def test_check_subcommand_bad_constructor(capsys):
    code = main(["check", "frobnicate 3", "reduced"])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert "UNKNOWN_CONSTRUCTOR" in captured.err


def test_unbalanced_bracket_in_a_spec_file_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "bracket.spec"
    path.write_text("ring A = zmod 2\nring R = product((A, A)\n")
    assert main(["run", str(path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == f"{path}:line 2:10: SYNTAX: unbalanced brackets in '(A, A'\n"
    assert captured.out == ""


def test_check_subcommand_unbalanced_bracket(capsys):
    assert main(["check", "product((zmod 2, zmod 2)", "armendariz"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == "line 1:10: SYNTAX: unbalanced brackets in '(zmod 2, zmod 2'\n"
    assert captured.out == ""


def test_check_revalidate_marks_block(tmp_path, capsys):
    j = tmp_path / "r.json"
    code = main(["check", "upper(zmod(2),2)", "armendariz", "--degree", "1", "--revalidate", "--json", str(j)])
    capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(j.read_text())
    assert payload["reports"][0]["revalidated"] is True


def test_search_finds_refutation(capsys):
    code = main(["search", "armendariz-refutation", "--degree", "1", "--max-size", "8"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "found: upper(zmod(2),2)" in out


def test_search_reports_the_lex_minimal_witness(tmp_path, capsys):
    """The hunt filters by verdict; the reported witness is still the one
    the full search finds at the requested degree."""
    path = tmp_path / "search.json"
    argv = ["search", "armendariz-refutation", "--degree", "2", "--max-size", "8", "--json", str(path)]
    assert main(argv) == EXIT_OK
    block = json.loads(path.read_text())["reports"][0]
    ring = upper_triangular(zmod(2), 2)
    assert block["ring"] == ring.provenance
    assert block["witness"] == check_armendariz(ring, 2).witness.to_json(ring)


@pytest.mark.parametrize(
    "argv, failed_line",
    [
        (["check", "upper(zmod(2),2)", "armendariz", "--degree", "1"], "check R armendariz degree 1: REFUTED  ["),
        (["search", "armendariz-refutation", "--degree", "1", "--max-size", "8"], "  REVALIDATION FAILED: forged"),
    ],
    ids=["check", "search"],
)
def test_failed_revalidation_is_exit_three(argv, failed_line, monkeypatch, tmp_path, capsys):
    class Forged(PolyWitness):
        def problem(self, R, kind):
            return "forged"

    def forged_report(R, kind, degree):
        report = get_report(R, kind, degree)
        return dataclasses.replace(report, witness=Forged(**dataclasses.asdict(report.witness)))

    monkeypatch.setattr(cli, "get_report", forged_report)
    path = tmp_path / "r.json"
    assert main(argv + ["--revalidate", "--json", str(path)]) == EXIT_INTERNAL
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(failed_line) and line.endswith("REVALIDATION FAILED: forged") for line in lines)
    assert json.loads(path.read_text())["reports"][0]["revalidated"] is False


def test_search_reports_empty_hunt(capsys):
    code = main(["search", "weak-not-nil", "--degree", "1", "--max-size", "6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "no example found within budget" in out


def test_harness_subcommand_small(capsys):
    code = main(["harness", "--degree", "1", "--max-ring-size", "8"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS (hard=0" in out


def test_budget_exhaustion_is_exit_two(monkeypatch, capsys):
    model = parse_spec("ring A = zmod 4\ncheck A armendariz degree 1\n")
    assert model.ok

    def explode(*args, **kwargs):
        raise SearchBudgetError("synthetic budget stop")

    monkeypatch.setattr(cli, "get_report", explode)
    code, envelope = execute_model(model, RunOptions())
    assert code == EXIT_BUDGET
    assert envelope["status"] == "INCOMPLETE"


def test_interrupt_flushes_partial(monkeypatch):
    model = parse_spec("ring A = zmod 4\ncheck A reduced\ncheck A armendariz degree 1\n")
    assert model.ok
    calls = []
    real_get_report = cli.get_report

    def interrupt(R, kind, *args, **kwargs):
        if kind is PropertyKind.ARMENDARIZ:
            raise KeyboardInterrupt
        return real_get_report(R, kind, *args, **kwargs)

    monkeypatch.setattr(cli, "get_report", interrupt)
    code, envelope = execute_model(model, RunOptions(), emit=lambda line: calls.append(line))
    assert code == 130
    assert envelope["status"] == "INCOMPLETE"
    # the reduced check before the interrupt still made it into the stream
    assert envelope["reports"] and envelope["reports"][0]["property"] == "reduced"


def test_revalidator_catches_fabricated_witness(z4):
    fake = PolyWitness((1, 0), (1, 0), 0, 0, 1)
    assert fake.problem(z4, PropertyKind.ARMENDARIZ) is not None


def test_witness_text_formats(z4):
    text = PolyWitness((1, 2), (3, 2), 0, 0, 3).text(z4)
    assert "coefficient pair (0,0)" in text
    assert "(1)" in text and "(2)x^1" in text
