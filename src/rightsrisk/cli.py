"""Command-line front end: parse -> assess -> score -> minimize -> report.

Exit codes: 0 success, 1 semantic or selection failure, 2 usage, I/O, or
parse failure.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Optional

from .dsl import ParseError, parse_kb
from .engine import Engine, EngineConfig
from .minimizer import SizeError, minimize_domain, minimize_purpose
from .model import CompiledKB, KnowledgeBase, validate_kb
from .report import (AssessmentBundle, ReportError, build_bundle, build_report,
                     dump_json, minimization_record, render, scenario_text,
                     scenario_view)
from .scoring import degree_scenario

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_kb(path: str) -> KnowledgeBase:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not text
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE)
    try:
        return parse_kb(text, file=path)
    except ParseError as exc:
        raise CliError(f"parse error: {exc}", EXIT_USAGE)


def _load_engine(args) -> Engine:
    """The run's one Engine: over the valid KB in `args.file`, configured
    by the toggle flags. Validation and the Engine share one compile."""
    compiled = CompiledKB(_load_kb(args.file))
    errors = [d for d in validate_kb(compiled) if d.severity == "error"]
    if errors:
        raise CliError("\n".join(str(d) for d in errors), EXIT_SEMANTIC)
    return Engine(compiled, EngineConfig(
        derived_collision=not args.no_derived_collision,
        monotonicity_check=not getattr(args, "no_monotonicity_check", False),
    ))


def _select(kb: KnowledgeBase, args) -> tuple[str, str]:
    """("domain" or "purpose", id): `--purpose`/`--gpai` select a purpose,
    else a domain (the parser lets at most one selector through); the flag
    names it, or else the KB declares exactly one."""
    if args.purpose is not None or getattr(args, "gpai", False):
        kind, named, declared, lookup = "purpose", args.purpose, kb.purposes, kb.purpose
    else:
        kind, named, declared, lookup = "domain", args.domain, kb.domains, kb.domain
    if named is not None:
        try:
            lookup(named)
        except KeyError as exc:
            raise CliError(exc.args[0], EXIT_SEMANTIC)
        return kind, named
    if len(declared) == 1:
        return kind, declared[0].id
    if not declared:
        raise CliError(f"no {kind} declared", EXIT_SEMANTIC)
    raise CliError(f"ambiguous {kind}: pass --{kind} "
                   f"(candidates: {', '.join(d.id for d in declared)})",
                   EXIT_SEMANTIC)


def _bundle(engine: Engine, args) -> AssessmentBundle:
    kind, selected = _select(engine.kb, args)
    try:
        return build_bundle(engine, **{f"{kind}_id": selected})
    except (SizeError, ReportError) as exc:
        raise CliError(str(exc), EXIT_SEMANTIC)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    kb = _load_kb(args.file)
    diags = validate_kb(kb)
    if args.json:
        sys.stdout.write(dump_json([vars(d) for d in diags]))
    else:
        for d in diags:
            print(d)
    if any(d.severity == "error" for d in diags):
        return EXIT_SEMANTIC
    if not args.json:
        print("ok")
    return EXIT_OK


def cmd_assess(args) -> int:
    if args.json and args.scenario is None:
        raise CliError("assess --json needs --scenario; for a domain or purpose "
                       "use fria --format json", EXIT_USAGE)
    engine = _load_engine(args)

    if args.scenario is not None:
        try:
            findings = engine.assess(args.scenario)
        except KeyError as exc:
            raise CliError(exc.args[0], EXIT_SEMANTIC)
        view = scenario_view(findings, degree_scenario(findings))
        if args.json:
            sys.stdout.write(dump_json(view))
        else:
            print(scenario_text(view))
            for d in engine.check_monotonicity():
                print(d)
        return EXIT_OK

    bundle = _bundle(engine, args)
    for sid, findings in bundle.findings.items():
        print(scenario_text(scenario_view(findings, bundle.breakdowns[sid])))
    total = bundle.total
    print(f"{bundle.kind} {bundle.selector} degree: {total.degree} "
          f"(xi={total.xi}, delta={total.delta})")
    for d in bundle.diagnostics:
        if d.code == "monotonicity":
            print(d)
    return EXIT_OK


def cmd_minimize(args) -> int:
    engine = _load_engine(args)
    kind, selected = _select(engine.kb, args)
    minimize = minimize_purpose if kind == "purpose" else minimize_domain
    try:
        result = minimize(engine, selected)
    except SizeError as exc:
        raise CliError(str(exc), EXIT_SEMANTIC)
    label = f"{kind} {selected}"

    if args.json:
        sys.stdout.write(dump_json({
            "selector": label,
            **minimization_record(result),
            "per_unit_degrees": {k: str(v)
                                 for k, v in sorted(result.per_unit_degrees.items())},
        }))
        return EXIT_OK

    print(f"{label}: optimal degree {result.optimal_degree} (fast-path)")
    shown = result.maximizers
    print(f"maximizers ({result.maximizer_count}):")
    for m in shown:
        print("  {" + ", ".join(sorted(m)) + "}")
    if result.maximizer_count > len(shown):
        print(f"  ... {result.maximizer_count - len(shown)} more")
    print("canonical: {" + ", ".join(sorted(result.canonical)) + "}")
    return EXIT_OK


def cmd_explain(args) -> int:
    engine = _load_engine(args)
    try:
        explanation = engine.explain(args.scenario, args.conclusion)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except KeyError as exc:
        raise CliError(str(exc.args[0]), EXIT_SEMANTIC)
    if explanation.derivable:
        print(explanation.trace.render())
        return EXIT_OK
    print(explanation.blocked)
    return EXIT_SEMANTIC


def cmd_fria(args) -> int:
    engine = _load_engine(args)
    bundle = _bundle(engine, args)
    report = build_report(bundle, generated_at=args.fixed_time, process=args.process,
                          oversight=args.oversight, mitigation=args.mitigation)
    text = render(report, args.format)

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EXIT_USAGE)
        bands = sorted({s.band for s in report.scenarios if s.band})
        band = ", ".join(bands) if bands else "n/a"
        print(f"wrote {args.out}: degree {report.degrees['total']}, band {band}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, monotonicity: bool = False,
                json: bool = False) -> None:
    """The collision toggle, plus the monotonicity toggle (for the commands
    that print monotonicity warnings) and `--json` if asked for."""
    parser.add_argument("--no-derived-collision", action="store_true",
                        help="do not derive collisions from promoted/demoted pairs")
    if monotonicity:
        parser.add_argument("--no-monotonicity-check", action="store_true",
                            help="suppress monotonicity warnings")
    if json:
        parser.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")


@functools.cache  # one parser per process: building it costs more than a parse
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rightsrisk",
        description="Rights-impact assessment for AI deployment scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a .rights file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("assess", help="derive statuses, adoptions, and degrees")
    p.add_argument("file")
    select = p.add_mutually_exclusive_group()
    select.add_argument("--scenario")
    select.add_argument("--domain")
    select.add_argument("--purpose")
    _add_common(p, monotonicity=True, json=True)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("minimize", help="find risk-minimizing subsets")
    p.add_argument("file")
    select = p.add_mutually_exclusive_group()
    select.add_argument("--domain")
    select.add_argument("--purpose")
    select.add_argument("--gpai", action="store_true",
                        help="minimize over the purpose's domains")
    _add_common(p, json=True)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("explain", help="derivation trace for one conclusion")
    p.add_argument("file")
    p.add_argument("scenario")
    p.add_argument("conclusion", help='e.g. "choice(S, public_health)"')
    _add_common(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("fria", help="write a FRIA-style assessment report")
    p.add_argument("file")
    select = p.add_mutually_exclusive_group()
    select.add_argument("--domain")
    select.add_argument("--purpose")
    select.add_argument("--gpai", action="store_true")
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p.add_argument("--out")
    p.add_argument("--process", default="", help="Art. 27(a) process description")
    p.add_argument("--oversight", default="", help="Art. 27(e) oversight measures")
    p.add_argument("--mitigation", default="", help="Art. 27(f) mitigation measures")
    p.add_argument("--fixed-time", help="pin the report timestamp (RFC 3339)")
    _add_common(p, monotonicity=True)
    p.set_defaults(func=cmd_fria)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # The command builds no reference cycles (the tests pin this), so the
    # cyclic collector would only rescan its records: pause it for the
    # command and hand it back to the caller as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entry()
