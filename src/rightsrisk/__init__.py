"""Rights-impact assessment toolkit for AI deployment scenarios.

Parses `.rights` specifications, runs defeasible right-adoption reasoning,
scores impact degrees with exact rationals, searches risk-minimizing
scenario subsets, and emits FRIA-style reports.
"""
from .dsl import ParseError, parse_kb, print_kb, tokenize
from .engine import (DerivationTrace, Engine, EngineConfig, Explanation,
                     Occurrence, ScenarioFindings, Status)
from .minimizer import (MinimizationResult, SizeError, minimize_domain,
                        minimize_purpose)
from .model import (Diagnostic, FeatureLiteral, KnowledgeBase, expand_right,
                    satisfies, validate_kb)
from .report import (AssessmentBundle, FriaReport, build_bundle, build_report,
                     parse_report, render)
from .riskmatrix import likelihood, magnitude, severity
from .scoring import (DegreeBreakdown, degree_domain, degree_purpose,
                      degree_scenario, weight)

__version__ = "0.1.0"

__all__ = [
    "AssessmentBundle", "DegreeBreakdown", "DerivationTrace", "Diagnostic",
    "Engine", "EngineConfig", "Explanation", "FeatureLiteral", "FriaReport",
    "KnowledgeBase", "MinimizationResult", "Occurrence", "ParseError",
    "ScenarioFindings", "SizeError", "Status", "build_bundle", "build_report",
    "degree_domain", "degree_purpose", "degree_scenario", "expand_right",
    "likelihood", "magnitude", "minimize_domain", "minimize_purpose",
    "parse_kb", "parse_report", "print_kb", "render", "satisfies", "severity",
    "tokenize", "validate_kb", "weight",
]
