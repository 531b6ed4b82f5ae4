#!/usr/bin/env python3
"""The rightsrisk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout. The workload's knowledge base is
generated from the seed, written under `.perfbench/`, and driven through
`rightsrisk.cli.main(argv)`: one client, one thread, a closed loop in which
the next CLI call starts when the last one returns. The timed calls run in
a fresh child process, so that its peak memory is the program's; the traced
run stays in this one.
Every call's output is checked: the first call of each distinct command
field by field against `reference.py`, later calls byte for byte against
that first output.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, whose times are scaled to a nominal machine speed
by `yardstick.py`; with `--trace 1` it holds the per-layer metrics of a
separate traced run (see `spans.py`). Earlier lines give the workload's
shape, a run record (Python, nproc, load average, seed, commit) and each
metric in words, raw and scaled.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from gen import Shape, generate                                   # noqa: E402
from reference import Reference, check_explain, check_fria, first_difference  # noqa: E402
from spans import COUNTER_SPANS, LAYERS, SELF_METRICS, Tracer    # noqa: E402
import yardstick                                                  # noqa: E402

FIXED_TIME = "2026-01-01T00:00:00+00:00"
SETUP_REPEATS = 15         # set-up is timed this often per run; the median is reported
MIN_OPS = {"fria": 30, "query": 120}   # timed calls per run, at least
# The distinct queries of a query run. The loop runs whole shuffled rounds of
# them, so every run times the same mix. The weights are not drawn from
# observed use; the rule is equal weight per kind of query: 4 `explain` (one
# per conclusion kind), 4 `assess --scenario --json`, 4 text `assess --scenario`.
QUERY_MIX = (("choice", 1), ("promotes", 1), ("demotes", 1), ("collides", 1),
             ("json", 4), ("text", 4))


@dataclass(frozen=True)
class Workload:
    shape: Shape
    op: str                # "fria": one `fria --format json` call; "query": one query call


WORKLOADS = {
    # Rule firing and the S^2 monotonicity scan dominate; no defined rights, so
    # SAT is trivial, and few zero-degree scenarios, so the minimizer is idle.
    "fria_wide": Workload(Shape(scenarios=150, rights=30, asserts=2, chain=3, rules=45,
                                refine=0.1, zeros=3), "fria"),
    # Defined rights over basic rights: the truth-table SAT in derive_collisions
    # dominates and rule firing is cheap.
    "fria_defs": Workload(Shape(scenarios=80, rights=4, defined=40, basics=20, contested=4,
                                def_atoms=4, asserts=3, chain=2, rules=20, zeros=3), "fria"),
    # A purpose over 40 domains, 14 of degree 0: the fast-path minimizer's 2^z
    # subset enumeration dominates.
    "fria_zeros": Workload(Shape(scenarios=100, rights=20, asserts=2, chain=2, rules=20,
                                 zeros=14, domains=40), "fria"),
    # Single-shot queries: per-call parsing and set-up dominate; text-mode
    # assess also runs the whole-KB monotonicity check.
    "query_mixed": Workload(Shape(scenarios=160, rights=25, defined=8, basics=10, contested=2,
                                  def_atoms=3, asserts=2, chain=3, rules=40, refine=0.15,
                                  zeros=2), "query"),
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------

def load_program() -> types.SimpleNamespace:
    """Import `rightsrisk` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rightsrisk", "cli.py")):
        raise BenchError(f"no rightsrisk sources under {SRC}")
    sys.path.insert(0, SRC)
    from rightsrisk import cli, dsl, engine, minimizer, model, report, scoring
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"rightsrisk imported from {cli.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, dsl=dsl, engine=engine, minimizer=minimizer,
                                 model=model, report=report, scoring=scoring)


def check_reference(program) -> None:
    """The reference must reproduce the fixture values the acceptance tests pin."""
    def load(name):
        with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
            return Reference(program.dsl.parse_kb(fh.read()))
    pandemic = load("pandemic.rights")
    scholarship = load("scholarship.rights")
    degrees = tuple(scholarship.assess(s).degree for s in ("S_d", "S_r", "S_e"))
    optimum = scholarship.maximizers(scholarship.units(domain_id="D_scholarship"))[0]
    if pandemic.assess("S").degree != -1 or degrees != (3, 0, 0) or optimum != 3:
        raise BenchError("reference disagrees with the fixture values of the acceptance tests")


def call(main, argv):
    """One CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    argv: list
    expected: object       # what the reference says the first call must print

    def check(self, code: int, out: str, err: str):
        """None if the output agrees with the reference, else the first difference."""
        if self.kind == "explain":
            return check_explain(self.expected, self.argv[2], code, out, err)
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()[:80]!r}"
        if self.kind == "fria":
            return check_fria(self.expected, json.loads(out))
        if self.kind == "json":
            return first_difference(self.expected, json.loads(out))
        return first_difference(self.expected, out.splitlines())


def fria_op(path, gen, ref) -> Op:
    argv = ["fria", path, "--format", "json", "--fixed-time", FIXED_TIME]
    if gen.selector[0] == "--purpose":
        argv.append("--gpai")
        expected = ref.fria(FIXED_TIME, purpose_id=gen.selector[1])
    else:
        expected = ref.fria(FIXED_TIME, domain_id=gen.selector[1])
    return Op("fria", argv, expected)


def query_op(path, ref, rng, kind, sid) -> Op:
    if kind == "json":
        return Op(kind, ["assess", path, "--scenario", sid, "--json"], ref.scenario_json(sid))
    if kind == "text":
        return Op(kind, ["assess", path, "--scenario", sid], ref.scenario_text(sid))
    found = ref.assess(sid)
    scope = sorted(found.statuses)
    if kind == "collides":
        pairs = sorted(sorted(p) for p in found.collisions)
        rights = tuple(rng.choice(pairs) if pairs and rng.random() < 0.5
                       else rng.sample(scope, 2))
        conclusion = f"collides({', '.join(rights)})"
    elif kind == "choice":
        adopted = sorted({o[0] for o in found.adopted})
        rights = (rng.choice(adopted if adopted and rng.random() < 0.5 else scope),)
        conclusion = f"choice({sid}, {rights[0]})"
    else:
        rights = (rng.choice(scope),)
        conclusion = f"{kind}({rights[0]})"
    return Op("explain", ["explain", path, sid, conclusion], ref.explain(sid, kind, rights))


def query_pool(path, ref, rng) -> list:
    sids = sorted(ref.scenarios)
    pool = []
    for kind, count in QUERY_MIX:
        made = 0
        while made < count:
            sid = rng.choice(sids)
            if kind != "collides" or len(ref.assess(sid).statuses) >= 2:
                pool.append(query_op(path, ref, rng, kind, sid))
                made += 1
    return pool


def op_sequence(workload, ops, rng):
    if workload.op == "fria":
        return itertools.repeat(ops[0])
    def cycle():
        while True:
            order = list(ops)
            rng.shuffle(order)
            yield from order
    return cycle()


class Client:
    """The one client of the closed loop: makes each call, checks its output
    and counts attempts and failures. The first call of each command is
    checked against the reference, later ones byte for byte against it."""

    def __init__(self):
        self.first: dict[tuple, tuple] = {}
        self.failures: list[str] = []
        self.attempted = self.failed = 0

    def attempt(self, main, op: Op):
        """Seconds the call took, or None if it raised."""
        self.attempted += 1
        try:
            seconds, code, out, err = call(main, op.argv)
        except Exception as exc:          # a crash is a failed op, not a crashed benchmark
            self._fail(op, f"raised {exc!r}")
            return None
        key = tuple(op.argv)
        if key not in self.first:
            self.first[key] = (code, out, err)
            try:
                problem = op.check(code, out, err)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        elif self.first[key] != (code, out, err):
            problem = "output differs from the first call of the same command"
        else:
            problem = None
        if problem:
            self._fail(op, problem)
        return seconds

    def _fail(self, op: Op, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{' '.join(op.argv)}: {problem}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "rightsrisk"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def set_up(program, text) -> float:
    """Seconds to turn the KB text into a ready engine."""
    start = time.perf_counter()
    kb = program.dsl.parse_kb(text)
    program.model.validate_kb(kb)
    program.engine.Engine(kb)
    return time.perf_counter() - start


def scaled(seconds: float, yard: float) -> float:
    """Seconds as they would read at the yardstick's nominal machine speed."""
    return seconds * yardstick.NOMINAL_S / yard


def shape_line(name, ref, gen) -> str:
    for sid in ref.scenarios:
        ref.assess(sid)
    pairs = ref.checked_pairs()
    atoms_max = max((len(ref.atoms(a) | ref.atoms(b)) for a, b in pairs), default=0)
    units = ref.units(purpose_id=gen.selector[1]) if gen.selector[0] == "--purpose" \
        else ref.units(domain_id=gen.selector[1])
    zeros = sum(1 for d in units.values() if d == 0)
    return (f"shape {name}: S={len(ref.scenarios)} rules_after_desugaring={len(ref.rules)} "
            f"distinct_sat_pairs={len(pairs)} sat_atoms_max={atoms_max} "
            f"zero_units={zeros} of {len(units)} pads={gen.pads}")


def rss_mb() -> float:
    """Peak resident memory of this process's own address space, in MB. It
    reads VmHWM rather than ru_maxrss, which on Linux a child process starts
    from its parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_timed(workload, program, text, ops, rng, seconds, info):
    """Closed loop until `seconds` have passed, at least MIN_OPS calls were
    timed and the last round of distinct commands is whole. The yardstick
    runs just before each timed call and set-up, and the reported times are
    scaled by it. An op's gated time is the mean call time of one round, so
    every kind of query moves it by its share; a `fria` round is one call.
    A set-up is timed after each of the first SETUP_REPEATS calls."""
    client, main = Client(), program.cli.main
    seq = op_sequence(workload, ops, rng)
    before_mb = rss_mb()
    client.attempt(main, ops[0])           # warm-up call: checked, not timed
    raw, norm, yards, setups, rounds = [], [], [], [], []
    made = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or made < MIN_OPS[workload.op] or made % len(ops):
        if made % len(ops) == 0:
            rounds.append([])
        made += 1
        gc.collect()
        yard = yardstick.measure()
        t = client.attempt(main, next(seq))
        if t is not None:
            raw.append(t * 1000)
            norm.append(scaled(t, yard) * 1000)
            rounds[-1].append(norm[-1])
            yards.append(yard * 1000)
        if len(setups) < SETUP_REPEATS:
            gc.collect()
            yard = yardstick.measure()
            setups.append(scaled(set_up(program, text), yard))
    if not norm:
        raise BenchError("every call raised: " + "; ".join(client.failures[:3]))
    metrics = {
        "op_ms_p50": (statistics.median(statistics.fmean(r) for r in rounds if r), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb(), "MB"),
    }
    label = "fria" if workload.op == "fria" else "query"
    if workload.op == "query":
        info.append(f"op_ms_p50: {metrics['op_ms_p50'][0]:.2f} ms scaled (median over "
                    f"{len(rounds)} rounds of the mean query time of a round of {len(ops)})")
    for q in (50, 90):
        value, raw_value = percentile(norm, q), percentile(raw, q)
        above = sum(1 for t in norm if t > value)
        info.append(f"{label}_ms_p{q}: {value:.2f} ms scaled, {raw_value:.2f} ms raw "
                    f"({above} of {len(norm)} calls above)")
    if workload.op == "fria":
        info.append(f"fria_s: {metrics['op_ms_p50'][0] / 1000:.4f} s scaled, "
                    f"{statistics.median(raw) / 1000:.4f} s raw (median of {len(raw)} calls)")
    info.append(f"setup_s: {metrics['setup_s'][0]:.4f} s scaled (median of {len(setups)} "
                "parse_kb + validate_kb + Engine)")
    info.append(f"peak_rss_mb: {metrics['peak_rss_mb'][0]:.1f} MB in the process that made "
                f"the calls ({before_mb:.1f} MB before the first call)")
    info.append(f"yardstick: median {statistics.median(yards):.2f} ms, nominal "
                f"{yardstick.NOMINAL_S * 1000:.2f} ms (higher means a slower machine now)")
    return metrics, client


def timed_child(job_path: str) -> int:
    """The timed run, in a process of its own so that its peak memory is the
    program's: the parent has generated the KB and the reference's answers."""
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    program = load_program()
    with open(job["kb"], encoding="utf-8") as fh:
        text = fh.read()
    ops = [Op(**op) for op in job["ops"]]
    rng = random.Random(f"{job['workload']}:order:{job['seed']}")
    info = []
    metrics, client = run_timed(WORKLOADS[job["workload"]], program, text, ops, rng,
                                job["seconds"], info)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "info": info, "attempted": client.attempted,
                   "failed": client.failed, "failures": client.failures}, fh)
    return 0


def run_timed_apart(name, seed, ops, path, seconds, info):
    """Run `timed_child` in a fresh process and collect what it measured."""
    job_path = os.path.join(WORK, f"job-{name}-{seed}-{os.getpid()}.json")
    result_path = os.path.join(WORK, f"result-{name}-{seed}-{os.getpid()}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "kb": path,
                   "result": result_path, "ops": [vars(op) for op in ops]}, fh)
    try:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--timed-child", job_path], cwd=ROOT, timeout=seconds + 150)
        if done.returncode != 0:
            raise BenchError(f"timed run exited with code {done.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError("timed run did not end in time") from None
    finally:
        for leftover in (job_path, result_path):
            if os.path.exists(leftover):
                os.remove(leftover)
    info += result["info"]
    client = Client()
    client.attempted, client.failed = result["attempted"], result["failed"]
    client.failures = result["failures"]
    return {k: tuple(v) for k, v in result["metrics"].items()}, client


def run_traced(name, seed, workload, program, ops, probe, rng, seconds, ref, info):
    """Alternate untraced and traced calls of the same command; then one traced
    probe call of the other command, for the layers the workload never calls."""
    client, tracer = Client(), Tracer()
    main = program.cli.main
    traced_main = tracer.wrap("cli.main", main)
    seq = op_sequence(workload, ops, rng)
    plain, traced, primary = [], [], set()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        op = next(seq)
        gc.collect()
        t = client.attempt(main, op)
        gc.collect()
        with tracer.installed(program):
            op_id = tracer.begin_op()
            t_traced = client.attempt(traced_main, op)
        if t is not None and t_traced is not None:
            plain.append(t)
            traced.append(t_traced)
            primary.add(op_id)
    gc.collect()
    with tracer.installed(program):
        probe_id = tracer.begin_op()
        p_wall = client.attempt(traced_main, probe)
    if not traced or p_wall is None:
        raise BenchError("traced calls raised: " + "; ".join(client.failures[:3]))

    own, calls, counters = tracer.per_op(primary)
    p_own, p_calls, p_counters = tracer.per_op({probe_id})
    n = len(primary)

    def source(span):
        """Per-op sums from the workload's own calls, or from the probe if they never reach `span`."""
        return (own, counters, n) if calls[span] else (p_own, p_counters, 1)

    metrics = {}
    for span, metric in SELF_METRICS.items():
        seconds_by_span, _, k = source(span)
        metrics[metric] = (seconds_by_span[span] / k, "s")
    for counter, span in COUNTER_SPANS.items():
        _, counts, k = source(span)
        metrics[counter] = (counts[counter] / k, "count")
    ops_considered = metrics["engine.rules_considered"][0]
    metrics["engine.fire_hit_ratio"] = (
        metrics["engine.rules_fired"][0] / ops_considered if ops_considered else 0.0, "ratio")
    dsl_s = metrics["dsl.tokenize_s"][0] + metrics["dsl.parse_s"][0]
    metrics["dsl.tokens_per_s"] = (metrics["dsl.tokens"][0] / dsl_s if dsl_s else 0.0, "1/s")
    sat_ops = primary if calls["model.sat"] else {probe_id}
    pairs = [p for op in sat_ops for p in tracer.sat_pairs[op]]
    metrics["model.sat_atoms_max"] = (
        max((len(ref.atoms(a) | ref.atoms(b)) for a, b in pairs), default=0), "count")

    wall = sum(traced)
    for layer in LAYERS:
        spans = [s for s in SELF_METRICS if s.split(".")[0] == layer]
        if any(calls[s] for s in spans):
            share = sum(own[s] for s in spans) / wall
        else:
            share = sum(p_own[s] for s in spans) / p_wall
        metrics[f"{layer}.self_share"] = (share, "ratio")
    metrics["trace.accounted_share"] = (sum(own.values()) / wall, "ratio")
    metrics["trace.op_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_op_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_ratio"] = (  # each pair is one command, run back to back
        statistics.median(t / p for t, p in zip(traced, plain)), "ratio")
    metrics["trace.spans_per_op"] = (sum(calls.values()) / n, "count")

    os.makedirs(WORK, exist_ok=True)
    tracer.dump(os.path.join(WORK, f"trace-{name}-{seed}.json"))
    info.append(f"traced {n} ops and 1 probe ({' '.join(probe.argv[:1])}); traced op "
                f"{metrics['trace.op_s'][0]:.4f} s vs untraced "
                f"{metrics['trace.untraced_op_s'][0]:.4f} s "
                f"(overhead x{metrics['trace.overhead_ratio'][0]:.3f}); self times cover "
                f"{metrics['trace.accounted_share'][0]:.4f} of traced wall time")
    return metrics, client


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    program = load_program()
    check_reference(program)
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "loadavg_start": loadavg(), "commit": commit(), "src_sha256": src_digest()}

    gen = generate(name, workload.shape, seed, program.dsl.parse_kb)
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}.rights")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.text)
    try:
        ref = Reference(program.dsl.parse_kb(gen.text))
        info = [shape_line(name, ref, gen)]
        rng = random.Random(f"{name}:ops:{seed}")
        fria = fria_op(path, gen, ref)
        if workload.op == "fria":
            ops = [fria]
            probe = query_op(path, ref, rng, "choice", sorted(ref.scenarios)[0])
        else:
            ops = query_pool(path, ref, rng)
            probe = fria
        errors = [d for d in program.model.validate_kb(ref.kb) if d.severity == "error"]
        if errors:
            raise BenchError(f"generated KB fails validation: {errors[0]}")
        if trace:
            metrics, client = run_traced(
                name, seed, workload, program, ops, probe, rng, seconds, ref, info)
        else:
            metrics, client = run_timed_apart(name, seed, ops, path, seconds, info)
    finally:
        os.remove(path)
    attempted, failed = client.attempted, client.failed
    info.append(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} ops)")
    info += [f"FAILED {f}" for f in client.failures[:10]]
    record["loadavg_end"] = loadavg()
    info.insert(1, "record: " + json.dumps(record, sort_keys=True))
    for line in info:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in a fresh process so peak memory is its own."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=ROOT, timeout=900)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--timed-child"] and len(argv) == 2:
        return timed_child(argv[1])
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
