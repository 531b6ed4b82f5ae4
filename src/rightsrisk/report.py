"""FRIA-style assessment reports following the Art. 27 AI Act structure,
with the Art. 26 deployer-obligation checklist.

Checklist statuses are analyst-supplied metadata; this module never claims
to verify them.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .dsl import print_kb
from .engine import Engine, Occurrence, ScenarioFindings, Status
from .minimizer import MinimizationResult, minimize_domain, minimize_purpose
from .model import KnowledgeBase, RiskAnnotation
from .riskmatrix import assess_annotation
# unused here, but `perfbench/spans.py` patches validate_kb and degree_scenario at these names
from .model import validate_kb  # noqa: F401
from .scoring import (DegreeBreakdown, degree_domain, degree_purpose,  # noqa: F401
                      degree_scenario, scenario_breakdown)

# Deployer duties under Art. 26 AI Act, one checklist item each.
ART26_ITEMS = (
    "Use the system with appropriate technical and organisational measures, "
    "in line with its instructions for use",
    "Assign human oversight to personnel with the necessary competence, "
    "training, and authority",
    "Ensure input data under the deployer's control is relevant and "
    "sufficiently representative",
    "Monitor operation, inform the provider of identified risks, and "
    "suspend use where a serious risk emerges",
    "Keep automatically generated logs for an appropriate period and report "
    "serious incidents to the relevant authorities",
    "Inform workers' representatives and affected workers before deploying "
    "the system in the workplace",
    "Complete the registration duties applying to public authorities and "
    "EU bodies",
    "Use the provider's information to carry out a data protection impact "
    "assessment where one is required",
    "Obtain the required authorisation before use for criminal "
    "investigation purposes",
    "Document each law-enforcement use and submit the required periodic "
    "reports",
    "Inform natural persons subject to the system's decisions and cooperate "
    "with national authorities",
)

CHECKLIST_STATUSES = ("addressed", "unaddressed", "not-applicable")


class ReportError(ValueError):
    pass


@dataclass
class AssessmentBundle:
    """Everything the pipeline derives for one domain (or purpose)."""
    kb: KnowledgeBase
    kind: str                         # "domain" or "purpose"
    selector: str                     # the domain's or purpose's id
    findings: dict[str, ScenarioFindings]
    breakdowns: dict[str, DegreeBreakdown]
    total: DegreeBreakdown
    minimization: MinimizationResult
    diagnostics: list


def build_bundle(engine: Engine, domain_id: Optional[str] = None,
                 purpose_id: Optional[str] = None) -> AssessmentBundle:
    if (domain_id is None) == (purpose_id is None):
        raise ReportError("select exactly one domain or purpose")
    kb = engine.kb
    if domain_id is not None:
        kind, selector, domain_ids = "domain", domain_id, [domain_id]
        total = degree_domain(engine, domain_id)
        minimization = minimize_domain(engine, domain_id)
    else:
        kind, selector, domain_ids = "purpose", purpose_id, kb.purpose(purpose_id).domains
        total = degree_purpose(engine, purpose_id)
        minimization = minimize_purpose(engine, purpose_id)
    findings = {sid: engine.assess(sid)
                for did in domain_ids for sid in kb.domain(did).scenarios}
    breakdowns = {sid: scenario_breakdown(engine, sid) for sid in findings}
    diagnostics = engine.check_monotonicity()
    for f in findings.values():
        diagnostics.extend(f.diagnostics)
    return AssessmentBundle(kb, kind, selector, findings, breakdowns,
                            total, minimization, diagnostics)


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------

# each status's label; a dict lookup is cheaper than the `Enum.value` property
_STATUS_TEXT = {s: s.value for s in Status}


def status_labels(statuses: dict[str, Status]) -> dict[str, str]:
    """right -> Promoted/Demoted/Undefined, in the order of the rights."""
    return {r: _STATUS_TEXT[statuses[r]] for r in sorted(statuses)}


def collision_pairs(collisions: frozenset[frozenset[str]]) -> list[list[str]]:
    """Each colliding pair as its two rights in order, the pairs sorted."""
    return sorted([sorted(pair) for pair in collisions])


def occurrence_labels(occurrences: frozenset[Occurrence]) -> list[str]:
    """Each occurrence's `right<x,y>` label, as `str(o)` writes it, sorted."""
    return sorted([f"{right}<{x},{y}>" for right, _, x, y in occurrences])


def scenario_view(findings: ScenarioFindings, breakdown: DegreeBreakdown) -> dict:
    """One scenario's findings and degree, in the canonical order: the
    record that `assess --scenario --json` writes and `scenario_text`
    shows. Degrees are exact, as `str(Fraction)` text such as "7/2"."""
    return {
        "scenario": findings.scenario,
        "statuses": status_labels(findings.statuses),
        "collisions": collision_pairs(findings.collisions),
        "adopted": occurrence_labels(findings.adopted),
        "demoted": occurrence_labels(findings.demoted_occurrences),
        "degree": str(breakdown.degree),
        "xi": str(breakdown.xi),
        "delta": str(breakdown.delta),
        "diagnostics": [str(d) for d in findings.diagnostics],
    }


def scenario_text(view: dict) -> str:
    """`scenario_view`'s record as the text `assess` prints it."""
    statuses = " ".join(f"{r}={s}" for r, s in view["statuses"].items())
    lines = [f"scenario {view['scenario']}:", f"  statuses: {statuses or '(none)'}"]
    if view["collisions"]:
        pairs = "; ".join("(" + ", ".join(p) + ")" for p in view["collisions"])
        lines.append(f"  collisions: {pairs}")
    lines.append(f"  adopted: {' '.join(view['adopted']) or '(none)'}")
    lines.append(f"  demoted: {' '.join(view['demoted']) or '(none)'}")
    lines.append(f"  degree: {view['degree']} (xi={view['xi']}, delta={view['delta']})")
    lines += [f"  {d}" for d in view["diagnostics"]]
    return "\n".join(lines)


@dataclass
class ScenarioRisk:
    scenario: str
    statuses: dict[str, str]          # right -> Promoted/Demoted/Undefined
    demoted: list[str]                # the demoted rights
    collisions: list[list[str]]
    adopted: list[str]                # "right<x,y>" occurrence labels
    degree: str                       # exact: str(Fraction), e.g. "7/2"
    band: Optional[str]               # qualitative, configuration-defined
    obligations: list[str]


@dataclass
class ChecklistItem:
    item: str
    status: str  # addressed | unaddressed | not-applicable


@dataclass
class FriaReport:
    meta: dict                        # title, generated_at, kb_hash, selector
    process: str                      # Art. 27(a)
    scenarios: list[ScenarioRisk]     # Art. 27(d)
    oversight: str                    # Art. 27(e)
    mitigation: dict                  # Art. 27(f): text + minimizer recommendation
    degrees: dict                     # per-scenario and total degrees (exact)
    minimization: dict
    checklist: list[ChecklistItem]    # the eleven Art. 26 duties
    diagnostics: list[str]


def minimization_record(result: MinimizationResult) -> dict:
    """The minimizer's answer as the report and `minimize --json` write it."""
    return {
        "optimal_degree": str(result.optimal_degree),
        "maximizers": [sorted(m) for m in result.maximizers],
        "maximizer_count": result.maximizer_count,
        "canonical": sorted(result.canonical),
        "method": "fast-path",
    }


def kb_hash(kb: KnowledgeBase) -> str:
    return hashlib.sha256(print_kb(kb).encode("utf-8")).hexdigest()


def build_report(bundle: AssessmentBundle, *, generated_at: Optional[str] = None,
                 process: str = "", oversight: str = "", mitigation: str = "",
                 checklist: Optional[dict[int, str]] = None) -> FriaReport:
    """Assemble the FRIA report. Every demoted right of every assessed
    scenario lands in the risks-of-harm section; the minimizer's canonical
    subset is the mitigation recommendation. `generated_at=None` stamps the
    current time; `checklist` maps an Art. 26 item index (0..10) to a status."""
    kb, selector = bundle.kb, bundle.selector
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat()

    annotations: dict[str, RiskAnnotation] = {}
    for a in kb.risk_annotations:
        annotations.setdefault(a.scenario, a)   # the first wins
    obligations: dict[str, list[str]] = {}
    for o in kb.obligations:
        obligations.setdefault(o.applies_to, []).append(o.id)

    scenarios: list[ScenarioRisk] = []
    for sid in sorted(bundle.findings):
        findings = bundle.findings[sid]
        ann = annotations.get(sid)
        band = None
        if ann is not None:
            band = assess_annotation(ann.hazard, ann.response, ann.intensity,
                                     ann.sensitivity, ann.vulnerability).band
        scenarios.append(ScenarioRisk(
            scenario=sid,
            statuses=status_labels(findings.statuses),
            demoted=sorted({o.right for o in findings.demoted_occurrences}),
            collisions=collision_pairs(findings.collisions),
            adopted=occurrence_labels(findings.adopted),
            degree=str(bundle.breakdowns[sid].degree),
            band=band,
            obligations=obligations.get(sid, []),
        ))

    statuses = checklist or {}
    for key in statuses:
        if key not in range(len(ART26_ITEMS)):
            raise ReportError(f"unknown checklist item {key!r}")
    items = []
    for i, item in enumerate(ART26_ITEMS):
        status = statuses.get(i, "unaddressed")
        if status not in CHECKLIST_STATUSES:
            raise ReportError(f"invalid checklist status {status!r}")
        items.append(ChecklistItem(item, status))

    mini = bundle.minimization
    return FriaReport(
        meta={
            "title": f"Fundamental rights impact assessment: {selector}",
            "generated_at": generated_at,
            "kb_hash": kb_hash(kb),
            "selector": selector,
            "kind": bundle.kind,
        },
        process=process,
        scenarios=scenarios,
        oversight=oversight,
        mitigation={
            "text": mitigation,
            "recommended_subset": sorted(mini.canonical),
            "optimal_degree": str(mini.optimal_degree),
        },
        degrees={
            "per_scenario": {s.scenario: s.degree for s in scenarios},
            "xi": str(bundle.total.xi),
            "delta": str(bundle.total.delta),
            "total": str(bundle.total.degree),
        },
        minimization=minimization_record(mini),
        checklist=items,
        diagnostics=[str(d) for d in bundle.diagnostics],
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def parse_report(text: str) -> FriaReport:
    """Inverse of `render(report, "json")`; a missing or unknown field is a TypeError."""
    report = FriaReport(**json.loads(text))
    report.scenarios = [ScenarioRisk(**s) for s in report.scenarios]
    report.checklist = [ChecklistItem(**c) for c in report.checklist]
    return report


def _render_markdown(report: FriaReport) -> str:
    lines = [f"# {report.meta['title']}", ""]
    lines += [f"- Generated: {report.meta['generated_at']}",
              f"- Input hash: `{report.meta['kb_hash']}`",
              f"- Assessed {report.meta['kind']}: `{report.meta['selector']}`",
              ""]
    lines += ["## Process description (Art. 27(a))", "",
              report.process or "_not provided_", ""]
    lines += ["## Specific risks of harm (Art. 27(d))", ""]
    for s in report.scenarios:
        lines.append(f"### Scenario `{s.scenario}`")
        lines.append("")
        if s.demoted:
            lines.append("Demoted rights: " + ", ".join(f"`{r}`" for r in s.demoted))
        else:
            lines.append("Demoted rights: none identified")
        if s.collisions:
            pairs = "; ".join(" / ".join(p) for p in s.collisions)
            lines.append(f"Collisions: {pairs}")
        lines.append("Adopted: " + (", ".join(s.adopted) if s.adopted else "none"))
        lines.append(f"Impact degree: {s.degree}")
        if s.band is not None:
            lines.append(f"Risk band: {s.band} (qualitative, configuration-defined)")
        if s.obligations:
            lines.append("Obligations: " + ", ".join(s.obligations))
        statuses = ", ".join(f"{r}={v}" for r, v in s.statuses.items())
        lines.append(f"Statuses: {statuses or 'none'}")
        lines.append("")
    lines += ["## Human oversight measures (Art. 27(e))", "",
              report.oversight or "_not provided_", ""]
    lines += ["## Measures on materialization of risks (Art. 27(f))", ""]
    if report.mitigation["text"]:
        lines.append(report.mitigation["text"])
    subset = ", ".join(f"`{s}`" for s in report.mitigation["recommended_subset"])
    lines.append(f"Recommended scenario subset (degree "
                 f"{report.mitigation['optimal_degree']}): {subset}")
    lines.append("")
    lines += ["## Degrees", ""]
    for sid, deg in report.degrees["per_scenario"].items():
        lines.append(f"- `{sid}`: {deg}")
    lines.append(f"- total: {report.degrees['total']} "
                 f"(xi {report.degrees['xi']}, delta {report.degrees['delta']})")
    lines.append("")
    lines += ["## Deployer obligations checklist (Art. 26)", ""]
    for c in report.checklist:
        mark = {"addressed": "x", "unaddressed": " ", "not-applicable": "-"}[c.status]
        lines.append(f"- [{mark}] {c.item}")
    lines.append("")
    if report.diagnostics:
        lines += ["## Diagnostics", ""]
        lines += [f"- {d}" for d in report.diagnostics]
        lines.append("")
    return "\n".join(lines)


def _strings_json(values: list[str], newline: str) -> str:
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(_quote, values)) + newline + "]"


def _scenario_risk_json(s: ScenarioRisk, newline: str) -> str:
    """`_json(dict(vars(s)))`, written field by field in sorted-name order
    from each field's declared shape."""
    inner = newline + "  "
    item = inner + "  "
    pairs = [_strings_json(pair, item) for pair in s.collisions]
    statuses = [_quote(r) + ": " + _quote(v) for r, v in sorted(s.statuses.items())]
    return "{" + inner + ("," + inner).join([
        '"adopted": ' + _strings_json(s.adopted, inner),
        '"band": ' + ("null" if s.band is None else _quote(s.band)),
        '"collisions": ' + ("[" + item + ("," + item).join(pairs) + inner + "]"
                            if pairs else "[]"),
        '"degree": ' + _quote(s.degree),
        '"demoted": ' + _strings_json(s.demoted, inner),
        '"obligations": ' + _strings_json(s.obligations, inner),
        '"scenario": ' + _quote(s.scenario),
        '"statuses": ' + ("{" + item + ("," + item).join(statuses) + inner + "}"
                          if statuses else "{}"),
    ]) + newline + "}"


def _json(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for str-keyed dicts,
    lists, str, int, bool and None, and for a `ScenarioRisk` as the dict of
    its fields. With `indent` the stdlib (up to 3.13) encodes in pure Python;
    this writer quotes each string with the same C function and joins each
    list or dict in one call."""
    if type(value) is ScenarioRisk:
        return _scenario_risk_json(value, newline)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
            for k, v in sorted(value.items())]) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else _json(v, inner)
            for v in value]) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(value) -> str:
    """`value` as indented JSON with sorted keys, ending in a newline: the
    form of the report and of the `--json` records of `assess --scenario`
    and `minimize`."""
    return _json(value) + "\n"


def render(report: FriaReport, fmt: str = "json") -> str:
    """Deterministic rendering; the JSON form parses back to an equal
    report."""
    if fmt == "json":
        # the scenario records go in as they are, for `_scenario_risk_json`
        return dump_json({**vars(report),
                          "checklist": [dict(vars(c)) for c in report.checklist]})
    if fmt == "markdown":
        return _render_markdown(report)
    raise ReportError(f"unknown format {fmt!r}")
