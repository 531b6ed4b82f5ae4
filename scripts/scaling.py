#!/usr/bin/env python3
"""Scaling record: `fria` wall time, its stage split, and a one-scenario
query's wall time as the scenario count grows.

Usage: python scripts/scaling.py [--sizes 150 600 2400] [--out BENCH.json]

Each knowledge base comes from `perfbench/gen.py` with the benchmark's
`fria_wide` shape, except `refine=0.2`, at seed 1 and S scenarios. For each
S the record holds the median of 5 in-process `fria --format json` calls,
the median of 5 in-process `assess --scenario <last scenario> --json`
calls (`query`), and the median of 5 runs of each stage that the `fria`
call is made of, timed one by one:

  parse_kb      text to knowledge base
  validate_kb   one validation
  assess        a new Engine assessing every scenario
  scoring       `degree_scenario` once over every scenario's findings
  build_bundle  on that warm Engine, which does not validate again
  build_report  the report from the bundle
  kb_hash       the input hash that `build_report` stamps on the report
  render        the report as JSON

`kb_hash` is timed on its own, but it is also part of `build_report`, so
it is left out when the stages are added up. The stages run with the
cyclic garbage collector paused, as `cli.main` pauses it for a command, so
that they still add up to the `fria` call.
A median is taken, not a best: on a shared machine the best of a few
calls still swings by half from run to run. The sizes sit outside the
benchmark's gated workloads, so nothing here is a pass or fail bound. A
Markdown table goes to stdout; `--out` also writes the record as JSON.
"""
import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gen import generate                                   # noqa: E402
from run import WORKLOADS                                  # noqa: E402
from rightsrisk.cli import main as cli_main                # noqa: E402
from rightsrisk.dsl import parse_kb                        # noqa: E402
from rightsrisk.engine import Engine                       # noqa: E402
from rightsrisk.model import validate_kb                   # noqa: E402
from rightsrisk.report import build_bundle, build_report, kb_hash, render  # noqa: E402
from rightsrisk.scoring import degree_scenario             # noqa: E402

SEED = 1
REFINE = 0.2
REPEATS = 5
FIXED_TIME = "2026-01-01T00:00:00+00:00"
STAGES = ("parse_kb", "validate_kb", "assess", "scoring", "build_bundle",
          "build_report", "kb_hash", "render")


def stage_times(text: str) -> dict[str, float]:
    """Seconds per stage of one pipeline run over the domain `D`."""
    times = {}
    clock = time.perf_counter

    def timed(stage, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        times[stage] = clock() - start
        return result

    kb = timed("parse_kb", parse_kb, text)
    timed("validate_kb", validate_kb, kb)
    scenarios = kb.domain("D").scenarios

    def assess_all():
        engine = Engine(kb)
        return engine, [engine.assess(sid) for sid in scenarios]
    engine, findings = timed("assess", assess_all)
    timed("scoring", lambda: [degree_scenario(f) for f in findings])
    bundle = timed("build_bundle", build_bundle, engine, domain_id="D")
    report = timed("build_report", build_report, bundle, generated_at=FIXED_TIME)
    timed("kb_hash", kb_hash, kb)
    timed("render", render, report, "json")
    return times


def cli_seconds(argv: list[str]) -> float:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds


def measure(scenarios: int, workdir: str) -> dict:
    shape = dataclasses.replace(WORKLOADS["fria_wide"].shape, scenarios=scenarios,
                                refine=REFINE)
    text = generate("fria_wide", shape, SEED, parse_kb).text
    path = os.path.join(workdir, f"fria_wide-{scenarios}.rights")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    fria = statistics.median(cli_seconds(["fria", path, "--domain", "D", "--format", "json",
                                          "--fixed-time", FIXED_TIME]) for _ in range(REPEATS))
    last = parse_kb(text).scenarios[-1].id
    query = statistics.median(cli_seconds(["assess", path, "--scenario", last, "--json"])
                              for _ in range(REPEATS))
    gc.disable()  # as `cli.main` runs a command
    runs = [stage_times(text) for _ in range(REPEATS)]
    gc.enable()
    return {"scenarios": scenarios, "fria_s": fria, "query_s": query,
            "stages_s": {s: statistics.median(r[s] for r in runs) for s in STAGES}}


def table(rows: list[dict]) -> str:
    lines = ["| S | fria | query | " + " | ".join(STAGES) + " |",
             "|---" * (len(STAGES) + 3) + "|"]
    for row in rows:
        cells = [f"{row['fria_s']:.3f}", f"{row['query_s']:.4f}"] + \
            [f"{row['stages_s'][s]:.4f}" for s in STAGES]
        lines.append(f"| {row['scenarios']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[150, 600, 2400])
    parser.add_argument("--out", help="also write the record here as JSON")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        rows = [measure(s, workdir) for s in args.sizes]
    record = {"shape": f"fria_wide, refine={REFINE}, seed {SEED}",
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "repeats": REPEATS, "unit": "s, median of repeats", "sizes": rows}
    print(table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
