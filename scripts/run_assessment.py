#!/usr/bin/env python3
"""Run the full assessment pipeline on a rights file and print a summary.

Usage: python scripts/run_assessment.py [fixtures/scholarship.rights]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine
from rightsrisk.minimizer import minimize_domain
from rightsrisk.scoring import degree_domain, degree_scenario


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    path = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else root / "fixtures" / "scholarship.rights"
    kb = parse_kb(path.read_text(), file=str(path))
    engine = Engine(kb)

    for domain in kb.domains:
        print(f"domain {domain.id}")
        for sid in domain.scenarios:
            findings = engine.assess(sid)
            breakdown = degree_scenario(findings)
            demoted = sorted({o.right for o in findings.demoted_occurrences})
            adopted = sorted(str(o) for o in findings.adopted)
            print(f"  {sid}: degree {breakdown.degree} "
                  f"(xi {breakdown.xi}, delta {breakdown.delta})")
            print(f"    adopted: {', '.join(adopted) or 'none'}")
            print(f"    demoted: {', '.join(demoted) or 'none'}")
        total = degree_domain(engine, domain.id)
        result = minimize_domain(engine, domain.id)
        print(f"  total degree: {total.degree}")
        print(f"  best subset: {{{', '.join(sorted(result.canonical))}}} "
              f"at degree {result.optimal_degree}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
