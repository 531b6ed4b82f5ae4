"""Span tracing around the program's public functions, from outside `src/`.

Each function is replaced where its caller looks it up (`cli.parse_kb`,
`report.minimize_domain`, `engine.logically_incompatible`, the `Engine`
methods on the class, ...), so the program itself is unchanged. A span
records name, start, end, parent span and op id in memory; self time is a
span's duration minus its children's. `satisfies` is deliberately left
unwrapped: it runs millions of times per op and lives inside
`engine.fire_rules`, whose span covers it.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# modules whose self time is reported as a share of the traced op
LAYERS = ("cli", "dsl", "model", "engine", "scoring", "minimizer", "riskmatrix", "report")

# span name -> per-layer self-time metric
SELF_METRICS = {
    "dsl.tokenize": "dsl.tokenize_s",
    "dsl.parse": "dsl.parse_s",
    "model.validate": "model.validate_s",
    "model.sat": "model.sat_s",
    "engine.init": "engine.init_s",
    "engine.assess": "engine.assess_s",
    "engine.fire_rules": "engine.fire_rules_s",
    "engine.resolve": "engine.resolve_s",
    "engine.collisions": "engine.collisions_s",
    "engine.adopt": "engine.adopt_s",
    "engine.monotonicity": "engine.monotonicity_s",
    "engine.explain": "engine.explain_s",
    "scoring.degree": "scoring.degree_s",
    "minimizer.minimize": "minimizer.self_s",
    "riskmatrix.assess": "riskmatrix.assess_s",
    "report.build_bundle": "report.build_bundle_s",
    "report.build_report": "report.build_report_s",
    "report.render": "report.render_s",
    "report.kb_hash": "report.kb_hash_s",
    "cli.main": "cli.self_s",
}

# counter -> the span whose calls produce it (decides which ops it is taken from)
COUNTER_SPANS = {
    "dsl.tokens": "dsl.tokenize",
    "model.sat_checks": "model.sat",
    "engine.instances": "engine.init",
    "engine.fire_rules_calls": "engine.fire_rules",
    "engine.rules_considered": "engine.fire_rules",
    "engine.rules_fired": "engine.fire_rules",
    "engine.collision_pairs": "engine.collisions",
    "engine.assess_computed": "engine.assess",
    "engine.assess_cache_hits": "engine.assess",
    "engine.assess_redundant": "engine.assess",
    "engine.monotonicity_pairs": "engine.monotonicity",
    "scoring.occurrences": "scoring.degree",
    "scoring.add_copies": "scoring.degree",
    "minimizer.units": "minimizer.minimize",
    "minimizer.zero_units": "minimizer.minimize",
    "minimizer.maximizer_count": "minimizer.minimize",
    "riskmatrix.annotations": "riskmatrix.assess",
    "report.output_bytes": "report.render",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.sat_pairs: dict[int, list] = defaultdict(list)
        self._assessed: dict[str, int] = {}  # scenario -> first Engine that computed it, this op

    # -- recording -------------------------------------------------------------

    def begin_op(self) -> int:
        self.op += 1
        self._assessed = {}
        return self.op

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` inside a span; `before(args)` and `after(args, result)` run
        outside it and record counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(args, result, state)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self, program):
        """Patch the program's lookup sites for the duration of the block."""
        cli, dsl, engine, report, scoring, minimizer = (
            program.cli, program.dsl, program.engine, program.report,
            program.scoring, program.minimizer)
        Engine = engine.Engine
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
            setattr(owner, attr, value)

        def method(name, attr, **hooks):
            raw = Engine.__dict__[attr]
            if isinstance(raw, staticmethod):
                patch(Engine, attr, staticmethod(self.wrap(name, raw.__func__, **hooks)))
            else:
                patch(Engine, attr, self.wrap(name, raw, **hooks))

        count = self.count

        def tokens(args, result, _):
            count("dsl.tokens", len(result))

        def sat(args, result, _):
            count("model.sat_checks")
            self.sat_pairs[self.op].append((args[1], args[2]))

        def fired(args, result, _):
            kb = args[0].kb             # every rule is tested: explicit ones and one per assert
            count("engine.fire_rules_calls")
            count("engine.rules_considered", len(kb.rules) + len(kb.assertions))
            count("engine.rules_fired", len(result))

        def firings(args):
            return self.counts[self.op]["engine.fire_rules_calls"]

        def assessed(args, result, before):
            # an assessment that fired no rules was answered from the cache
            eng, sid = args[0], args[1]
            if self.counts[self.op]["engine.fire_rules_calls"] == before:
                count("engine.assess_cache_hits")
                return
            count("engine.assess_computed")
            first = self._assessed.setdefault(sid, id(eng))
            if first != id(eng):
                count("engine.assess_redundant")

        def collisions(args, result, _):
            k = len(args[1])
            count("engine.collision_pairs", k * (k - 1) // 2)

        def monotonicity(args, result, _):
            n = len(args[0].kb.scenarios)
            count("engine.monotonicity_pairs", n * (n - 1))

        def occurrences(args, result, _):
            count("scoring.occurrences", len(result.per_occurrence))

        def minimized(args, result, _):
            count("minimizer.units", len(result.per_unit_degrees))
            count("minimizer.zero_units",
                  sum(1 for d in result.per_unit_degrees.values() if d == 0))
            count("minimizer.maximizer_count", result.maximizer_count)

        def rendered(args, result, _):
            count("report.output_bytes", len(result.encode("utf-8")))

        add = scoring.DegreeBreakdown.add

        def counted_add(this, other):
            count("scoring.add_copies", len(this.per_occurrence) + len(other.per_occurrence))
            return add(this, other)

        try:
            patch(dsl, "tokenize", self.wrap("dsl.tokenize", dsl.tokenize, after=tokens))
            patch(cli, "parse_kb", self.wrap("dsl.parse", cli.parse_kb))
            for owner in (cli, report):
                patch(owner, "validate_kb", self.wrap("model.validate", owner.validate_kb))
            patch(engine, "logically_incompatible",
                  self.wrap("model.sat", engine.logically_incompatible, after=sat))
            method("engine.init", "__init__",
                   after=lambda a, r, s: count("engine.instances"))
            method("engine.fire_rules", "fire_rules", after=fired)
            method("engine.resolve", "resolve_statuses")
            method("engine.collisions", "derive_collisions", after=collisions)
            method("engine.adopt", "adopt")
            method("engine.assess", "assess", before=firings, after=assessed)
            method("engine.monotonicity", "check_monotonicity", after=monotonicity)
            method("engine.explain", "explain")
            for owner in (cli, report, scoring, minimizer):
                patch(owner, "degree_scenario", self.wrap(
                    "scoring.degree", owner.degree_scenario, after=occurrences))
            for owner in (report, minimizer, scoring):
                patch(owner, "degree_domain",
                      self.wrap("scoring.degree", owner.degree_domain))
            patch(report, "degree_purpose", self.wrap("scoring.degree", report.degree_purpose))
            patch(scoring.DegreeBreakdown, "add", counted_add)
            for attr in ("minimize_domain", "minimize_purpose"):
                patch(report, attr, self.wrap("minimizer.minimize", getattr(report, attr),
                                              after=minimized))
            patch(report, "assess_annotation", self.wrap(
                "riskmatrix.assess", report.assess_annotation,
                after=lambda a, r, s: count("riskmatrix.annotations")))
            patch(cli, "build_bundle", self.wrap("report.build_bundle", cli.build_bundle))
            patch(cli, "build_report", self.wrap("report.build_report", cli.build_report))
            patch(cli, "render", self.wrap("report.render", cli.render, after=rendered))
            patch(report, "kb_hash", self.wrap("report.kb_hash", report.kb_hash))
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_op(self, ops: set) -> tuple[dict, dict, dict]:
        """Self seconds and call counts per span name, and counters, summed over `ops`."""
        own = self.self_times()
        seconds, calls = defaultdict(float), Counter()
        for (name, _, _, _, op), s in zip(self.spans, own):
            if op in ops:
                seconds[name] += s
                calls[name] += 1
        counters = Counter()
        for op in ops:
            counters.update(self.counts[op])
        return seconds, calls, counters

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
