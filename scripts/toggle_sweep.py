#!/usr/bin/env python3
"""What-if sweep: how engine toggles change each fixture's assessment.

Compares derived-collision on/off for every scenario of every fixture and
prints the rows where adopted occurrences or the degree differ.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine, EngineConfig
from rightsrisk.scoring import degree_scenario


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "fixtures").glob("*.rights")):
        kb = parse_kb(path.read_text(encoding="utf-8"), file=path.name)
        on = Engine(kb, EngineConfig(derived_collision=True))
        off = Engine(kb, EngineConfig(derived_collision=False))
        for scen in kb.scenarios:
            a, b = on.assess(scen.id), off.assess(scen.id)
            da, db = degree_scenario(a).degree, degree_scenario(b).degree
            if a.adopted == b.adopted and da == db:
                continue
            print(f"{path.name} / {scen.id}:")
            print(f"  derived collisions on : degree {da}, "
                  f"adopted {sorted(str(o) for o in a.adopted)}")
            print(f"  derived collisions off: degree {db}, "
                  f"adopted {sorted(str(o) for o in b.adopted)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
