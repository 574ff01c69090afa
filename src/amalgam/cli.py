"""Command-line front end: run declarative spec files, check single rings,
sweep the theorem harness, and hunt for separating examples.

Exit codes: 0 clean, 1 for parse errors, failed assertions, or hard
violations, 2 when a search budget ran out (partial results are still
flushed), 3 when internal re-validation failed and results cannot be trusted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import InternalInvariantError, SearchBudgetError
from .properties import POLY_KINDS, PropertyKind, PropertyReport, Verdict, get_report, holds
from .rings import FiniteRing, nilradical  # noqa: F401 -- benchmark/tracer.py wraps amalgam.cli.nilradical
from .specdsl import (
    GOALS,
    PROPS,
    CheckDirective,
    HarnessDirective,
    SearchDirective,
    SpecModel,
    parse_spec,
)
from .theorems import CorpusConfig, build_corpus, build_scenarios, run_harness

__all__ = ["main", "execute_model", "RunOptions", "EXIT_OK", "EXIT_FAILURE", "EXIT_BUDGET", "EXIT_INTERNAL"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


@dataclass
class RunOptions:
    """Knobs shared by every subcommand."""

    degree: Optional[int] = None
    max_ring_size: Optional[int] = None
    revalidate: bool = False


@dataclass
class _Outcome:
    """Aggregated run state: report blocks plus the worst failure seen."""

    blocks: list = field(default_factory=list)
    assert_failed: bool = False
    hard_violation: bool = False
    budget_exhausted: bool = False
    internal_error: bool = False

    def exit_code(self) -> int:
        if self.internal_error:
            return EXIT_INTERNAL
        if self.budget_exhausted:
            return EXIT_BUDGET
        if self.assert_failed or self.hard_violation:
            return EXIT_FAILURE
        return EXIT_OK


def _degree(stmt: Union[CheckDirective, HarnessDirective, SearchDirective], opts: RunOptions) -> int:
    """The directive's degree bound, else the command line's, else 2."""
    if stmt.degree is not None:
        return stmt.degree
    return opts.degree if opts.degree is not None else 2


def _revalidate(report: PropertyReport, R: FiniteRing, opts: RunOptions, outcome: _Outcome, block: dict) -> str:
    """With --revalidate, re-check the report's witness and record the result
    in the block; the failure note to print, or ""."""
    if not opts.revalidate:
        return ""
    problem = None if report.witness is None else report.witness.problem(R, report.kind)
    block["revalidated"] = problem is None
    outcome.internal_error |= problem is not None
    return "" if problem is None else f"  REVALIDATION FAILED: {problem}"


def _run_check(model: SpecModel, stmt: CheckDirective, opts: RunOptions, outcome: _Outcome, emit: Callable[[str], None]) -> None:
    R = model.resolve_ring(stmt.target)
    degree = _degree(stmt, opts)
    report = get_report(R, PropertyKind(stmt.prop), degree)
    head = f"check {stmt.target} {stmt.prop}"
    if report.kind in POLY_KINDS:
        head += f" degree {degree}"
    line = f"{head}: {report.verdict.value}"
    if report.witness is not None:
        line += f"  [{report.witness.text(R)}]"
    block = {
        "directive": "check",
        "target": stmt.target,
        "ring": R.provenance,
        "size": R.size,
        "property": stmt.prop,
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else report.witness.to_json(R),
    }
    if report.kind in POLY_KINDS:
        block["degree"] = degree
    line += _revalidate(report, R, opts, outcome, block)
    if stmt.assertion is not None:
        expected_refuted = stmt.assertion == "refuted"
        actual_refuted = report.verdict is Verdict.REFUTED
        ok = expected_refuted == actual_refuted
        block["assert"] = stmt.assertion
        block["assert_ok"] = ok
        if not ok:
            outcome.assert_failed = True
            line += f"  ASSERT {stmt.assertion} FAILED"
    emit(line)
    outcome.blocks.append(block)


def _harness_config(opts: RunOptions) -> CorpusConfig:
    if opts.max_ring_size is not None:
        return CorpusConfig(max_amalgam_size=opts.max_ring_size)
    return CorpusConfig()


def _run_harness(stmt: HarnessDirective, opts: RunOptions, outcome: _Outcome, emit: Callable[[str], None]) -> None:
    degree = _degree(stmt, opts)
    config = _harness_config(opts)
    report = run_harness(config, degree=degree)
    emit(f"harness degree {degree}: {report.scenario_count} scenarios, {len(report.ring_names)} corpus rings")
    for summary in report.summaries:
        status = "ok"
        if summary.hard_violations:
            status = f"HARD x{len(summary.hard_violations)}"
        elif summary.violation_candidates:
            status = f"candidate x{len(summary.violation_candidates)}"
        elif summary.vacuous_corpus_wide:
            status = "vacuous corpus-wide"
        emit(
            f"  {summary.clause_id}: tested={summary.tested} applicable={summary.hypothesis_satisfied} "
            f"passed={summary.passed} {status}"
        )
        if summary.vacuous_corpus_wide and summary.note:
            emit(f"    note: {summary.note}")
    verdict = "PASS" if report.hard_violation_count == 0 else "FAIL"
    emit(f"harness degree {degree}: {verdict} (hard={report.hard_violation_count}, candidates={report.candidate_count}, skipped={report.skipped_count})")
    if report.hard_violation_count:
        outcome.hard_violation = True
    outcome.blocks.append({"directive": "harness", **report.to_json_dict()})


def _search_candidates(max_size: int):
    """Deterministic candidate stream: corpus atoms first, then every amalgam
    the scenario generator produces, deduplicated structurally."""
    config = CorpusConfig(max_amalgam_size=min(64, max(max_size, 2)))
    corpus, scenarios = build_scenarios(config)
    seen: set[str] = set()
    for name, ring in corpus:
        if ring.size <= max_size:
            digest = ring.digest()
            if digest not in seen:
                seen.add(digest)
                yield name, ring
    for sc in scenarios:
        ring = sc.am.ring
        if ring.size <= max_size:
            digest = ring.digest()
            if digest not in seen:
                seen.add(digest)
                yield sc.key, ring


def _run_search(stmt: SearchDirective, opts: RunOptions, outcome: _Outcome, emit: Callable[[str], None]) -> None:
    degree = _degree(stmt, opts)
    max_size = stmt.max_size if stmt.max_size is not None else (opts.max_ring_size if opts.max_ring_size is not None else 16)
    emit(f"search {stmt.goal} degree {degree} max-size {max_size}")
    found = None
    examined = 0
    for name, ring in _search_candidates(max_size):
        examined += 1
        # Candidates are filtered by verdict alone; only the reported ring
        # pays for its lex-minimal witness.
        if stmt.goal == "armendariz-refutation":
            if not holds(ring, PropertyKind.ARMENDARIZ, degree):
                found = (name, ring, get_report(ring, PropertyKind.ARMENDARIZ, degree))
                break
        elif not holds(ring, PropertyKind.NIL_ARMENDARIZ, degree) and holds(ring, PropertyKind.WEAK_ARMENDARIZ, degree):
            found = (name, ring, get_report(ring, PropertyKind.NIL_ARMENDARIZ, degree))
            break
    block = {
        "directive": "search",
        "goal": stmt.goal,
        "degree": degree,
        "max_size": max_size,
        "examined": examined,
        "found": found is not None,
    }
    if found is None:
        emit(f"  no example found within budget ({examined} rings examined)")
    else:
        name, ring, report = found
        emit(f"  found: {name} ({ring.provenance}, size {ring.size})")
        emit(f"  witness: {report.witness.text(ring)}")
        block["ring"] = ring.provenance
        block["ring_name"] = name
        block["size"] = ring.size
        block["witness"] = report.witness.to_json(ring)
        note = _revalidate(report, ring, opts, outcome, block)
        if note:
            emit(note)
    outcome.blocks.append(block)


def execute_model(model: SpecModel, opts: RunOptions, emit: Callable[[str], None] = print) -> tuple[int, dict]:
    """Run every directive in order; returns (exit_code, json_envelope)."""
    outcome = _Outcome()
    status = "COMPLETE"
    code = None
    try:
        for stmt in model.statements:
            if isinstance(stmt, CheckDirective):
                _run_check(model, stmt, opts, outcome, emit)
            elif isinstance(stmt, HarnessDirective):
                _run_harness(stmt, opts, outcome, emit)
            elif isinstance(stmt, SearchDirective):
                _run_search(stmt, opts, outcome, emit)
    except SearchBudgetError as exc:
        outcome.budget_exhausted = True
        status = "INCOMPLETE"
        emit(f"search budget exhausted: {exc}; partial results flushed")
    except InternalInvariantError as exc:
        outcome.internal_error = True
        status = "INCOMPLETE"
        emit(f"internal consistency failure: {exc}")
    except KeyboardInterrupt:
        status = "INCOMPLETE"
        emit("interrupted; partial results flushed")
        code = 130
    envelope = {"format": 1, "status": status, "reports": outcome.blocks}
    return (outcome.exit_code() if code is None else code), envelope


def _write_json(path: Optional[str], envelope: dict) -> None:
    if path is None:
        return
    payload = json.dumps(envelope, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree", type=int, default=None, help="polynomial degree bound for property checks")
    parser.add_argument("--max-ring-size", type=int, default=None, help="cap on constructed ring sizes")
    parser.add_argument("--json", dest="json_path", metavar="PATH", default=None, help="write a machine-readable report (- for stdout)")
    parser.add_argument("--revalidate", action="store_true", help="independently re-check every refutation witness")


def _options_from_args(args: argparse.Namespace) -> RunOptions:
    return RunOptions(
        degree=args.degree,
        max_ring_size=args.max_ring_size,
        revalidate=args.revalidate,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="Finite-ring workbench: build amalgamations and test polynomial annihilation properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a declarative spec file")
    p_run.add_argument("specfile", help="path to the spec file")
    _add_common(p_run)

    p_check = sub.add_parser("check", help="check one property of one ring")
    p_check.add_argument("ring", help="corpus ring name like 'zmod(4)' or a constructor like 'zmod 4'")
    p_check.add_argument("prop", choices=PROPS)
    p_check.add_argument("--assert", dest="assertion", choices=["holds", "refuted"], default=None)
    _add_common(p_check)

    p_harness = sub.add_parser("harness", help="run every registered implication over the generated corpus")
    _add_common(p_harness)

    p_search = sub.add_parser("search", help="hunt for a ring separating two properties")
    p_search.add_argument("goal", choices=GOALS)
    p_search.add_argument("--max-size", type=int, default=None, help="largest ring size to scan")
    _add_common(p_search)

    args = parser.parse_args(argv)
    for flag in ("degree", "max_ring_size", "max_size"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"--{flag.replace('_', '-')} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_FAILURE
    opts = _options_from_args(args)

    if args.command == "run":
        try:
            with open(args.specfile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read {args.specfile}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        model = parse_spec(text)
        if model.diagnostics:
            for diag in model.diagnostics:
                print(f"{args.specfile}:{diag.render()}", file=sys.stderr)
            return EXIT_FAILURE
    elif args.command == "check":
        model = _model_for_ring(args.ring, args.prop, opts, args.assertion)
        if model is None:
            return EXIT_FAILURE
    elif args.command == "harness":
        model = SpecModel(statements=(HarnessDirective(opts.degree),))
    else:
        model = SpecModel(statements=(SearchDirective(args.goal, opts.degree, args.max_size),))
    code, envelope = execute_model(model, opts)
    _write_json(args.json_path, envelope)
    return code


def _model_for_ring(ring_text: str, prop: str, opts: RunOptions, assertion: Optional[str]) -> Optional[SpecModel]:
    """Resolve the check subcommand's ring argument: corpus name or constructor."""
    ring = None
    for name, candidate in build_corpus():
        if name == ring_text:
            ring = candidate
            break
    if ring is None:
        probe = parse_spec(f"ring R = {ring_text}\n")
        if probe.diagnostics:
            for diag in probe.diagnostics:
                print(diag.render(), file=sys.stderr)
            return None
        ring = probe.rings["R"]
    model = SpecModel(statements=(CheckDirective("R", prop, opts.degree, assertion),))
    model.rings["R"] = ring
    return model


if __name__ == "__main__":
    sys.exit(main())
