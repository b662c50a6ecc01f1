#!/usr/bin/env python3
"""The veesys benchmark: one command, three workloads, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload {cli,docs-large,family-scan} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are generated from the seed, then the workload runs as
a closed loop (one client, next operation after the previous one returns)
for the given number of seconds.  Every operation's output is checked
against an independent expectation.  The last line of standard output is a
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  See ``bench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before numpy is imported, here and in every child.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli", "docs-large", "family-scan")
SETUP_STARTS = 7  # fresh starts per run; setup_s is their median
WARMUP_OPS = 3
# After each REF_PERIOD_S of operation time, the reference work runs until
# it has taken REF_SHARE of the operation time so far.
REF_PERIOD_S = 1.0
REF_SHARE = 0.25
# Tail percentile per workload: the highest that leaves at least ten
# operations beyond it in a 30 s run (about 40 cli and 150 docs-large
# operations on the reference machine).  family-scan makes about 1000, but
# above p95 its tail falls in the last few operations of its costliest
# family and moves by 6-8 % from run to run.
TAIL_PERCENTILE = {"cli": 70.0, "docs-large": 90.0, "family-scan": 95.0}

PROBE = """\
import json, time
t0 = time.perf_counter()
import veesys.cli
t1 = time.perf_counter()
from veesys import catalogue
count = len(catalogue.ids())
t2 = time.perf_counter()
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "load_ms": 1e3 * (t2 - t1),
                  "entries": count}))
"""
CATALOGUE_ENTRIES = 17

CLI_COMMANDS = ("catalogue-verify-all", "verify", "matroid", "nu", "weights",
                "harmonic", "deform", "deform-grid", "reconstruct")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.import_ms", "ms"), ("catalogue.load_ms", "ms"),
    *((f"cli.invocation_ms.{c}", "ms") for c in CLI_COMMANDS),
    ("cli.residual_ms", "ms"), ("setup.share", "ratio"),
    ("catalogue.verify_entry.total_ms", "ms"),
    ("catalogue.verify_relation.total_ms", "ms"),
    ("projective.run_reconstruction.total_ms", "ms"),
    ("catalogue.construct.p50_ms", "ms"), ("expressions.matrix_at.p50_ms", "ms"),
    ("core.configuration.p50_ms", "ms"), ("core.canonical_form.p50_ms", "ms"),
    ("core.canonical_form.calls", "count"),
    ("io.load_document.p50_ms", "ms"), ("io.bytes_read", "B"),
    ("matroid.decompose.p50_ms", "ms"), ("matroid.decompose.total_ms", "ms"),
    ("matroid.decompose.calls", "count"), ("matroid.decompose.share", "ratio"),
    ("matroid.triples", "count"), ("matroid.flats", "count"),
    ("matroid.fingerprint.total_ms", "ms"),
    ("verify.check_vee.p50_ms", "ms"), ("verify.check_vee.calls", "count"),
    ("verify.self_ms", "ms"), ("verify.solve_weights.total_ms", "ms"),
    ("verify.check_harmonic.total_ms", "ms"), ("verify.op_over_check_vee", "ratio"),
    ("deform.build_system_free.p50_ms", "ms"), ("deform.rigidity_test.p50_ms", "ms"),
    ("deform.rows", "count"),
    ("trace.overhead_ms", "ms"), ("trace.spans", "count"),
    ("failed_op_ratio", "ratio"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _environment():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_pin": BLAS_PIN}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_starts(env):
    """Fresh processes that import veesys.cli and load the catalogue, each
    followed by a start of the subprocess reference."""
    import reference

    walls, stamps, imports, loads = [], [], [], []
    ref = reference.Reference(sys.executable, env)
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        stamps.append(start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout)
        if probe["entries"] != CATALOGUE_ENTRIES:
            raise RuntimeError(f"catalogue lists {probe['entries']} entries")
        imports.append(probe["import_ms"])
        loads.append(probe["load_ms"])
        ref.run()
    scaled = [w * f for w, f in zip(walls, ref.factors(stamps))]
    return scaled, imports, loads, ref, walls


def _checked(check, error, *args):
    """Problems of one operation: its error, or what its check reports.  A
    check that cannot read the output counts as a problem, not a crash."""
    if error is not None:
        return [f"{type(error).__name__}: {error}"]
    try:
        return check(*args)
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


class Loop:
    """Closed-loop driver: runs the inputs in list order, cycling, and
    records each operation's latency, CPU time and problems."""

    def __init__(self, workload, items, env, tracer):
        import checks
        import ops
        import reference

        self.items = items
        self.tracer = tracer
        self.reference = reference.Reference(sys.executable, env)
        # (item index, wall s, cpu s, problems, traced, start)
        self.records = []
        self.meta = {}  # traced operation id -> per-operation facts
        self.problems_seen = []
        if workload == "cli":
            self._op = lambda item: self._cli(item, env, ops, checks)
        else:
            op_fn = ops.INPROCESS_OPS[workload]
            self._op = lambda item: self._inprocess(item, op_fn, ops, checks)

    def _inprocess(self, item, op_fn, ops, checks):
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            config, outcome = op_fn(item, self.tracer)
            error = None
        except Exception as exc:  # an unexpected error is a failed operation
            config, outcome, error = None, None, exc
        end, cpu1 = time.perf_counter(), time.process_time()
        problems = _checked(checks.check_analysis, error, outcome, item.expect)
        if self.tracer.enabled and config is not None:
            self.tracer.spans.append(("op", start, end, self.tracer.op))
            decomp = ops.standalone(item, config, self.tracer)
            meta = {"n": config.n, "flats": len(decomp.flats)}
            if "free" in outcome:
                meta["rows"] = outcome["free"].matrix.shape[0]
            if item.path is not None:
                meta["bytes"] = os.path.getsize(item.path)
            self.meta[self.tracer.op] = meta
        return end - start, cpu1 - cpu0, problems

    def _cli(self, item, env, ops, checks):
        start = time.perf_counter()
        try:
            code, stdout, cpu = ops.cli_op(item, sys.executable, env)
            error = None
        except (OSError, subprocess.SubprocessError) as exc:
            code, stdout, cpu, error = None, None, 0.0, exc
        end = time.perf_counter()
        problems = _checked(checks.check_cli, error, item.expect, code, stdout)
        if self.tracer.enabled:
            self.tracer.spans.append(("op", start, end, self.tracer.op))
            config = ops.replay_cli(item, self.tracer)
            meta = {"loads_catalogue": item.path is None}
            if config is not None:
                meta["n"] = config.n
                meta["flats"] = len(ops.standalone(item, config, self.tracer).flats)
            if item.path is not None:
                meta["bytes"] = os.path.getsize(item.path)
            self.meta[self.tracer.op] = meta
        return end - start, cpu, problems

    def run(self, seconds, traced=False):
        """Run for ``seconds``.  Untraced, blocks of reference work run
        between operations (see ``REF_PERIOD_S``).  With ``traced``,
        every step runs its input twice, untraced and traced in alternating
        order, so the two differ only by the tracing; the loop then also
        goes on until every input ran once."""
        deadline = time.perf_counter() + seconds
        k = 0
        op_s = ref_s = block_at = 0.0
        while (time.perf_counter() < deadline
               or (traced and k < len(self.items))):
            index = k % len(self.items)
            for enabled in ((k % 2 == 0, k % 2 == 1) if traced else (False,)):
                self.tracer.enabled = enabled
                self.tracer.op = len(self.records)
                start = time.perf_counter()
                wall, cpu, problems = self._op(self.items[index])
                self.records.append((index, wall, cpu, problems, enabled, start))
                if problems and len(self.problems_seen) < 5:
                    self.problems_seen.append((self.items[index].kind, problems))
                op_s += wall
            if not traced and op_s - block_at >= REF_PERIOD_S:
                block_at = op_s
                while ref_s < REF_SHARE * op_s:
                    ref_s += self.reference.run()
            k += 1
        if not traced and not self.reference.walls:
            self.reference.run()  # a run too short for one block
        self.tracer.enabled = False
        return self.records


def _cost_class(index, item):
    """Inputs expected to cost the same: the GL(3) images of one system, or
    the jittered points of one family, share a class; every other input is
    a class of its own."""
    if item.kind.startswith("vee:"):
        return item.kind
    if item.kind == "perturbed":
        return f"perturbed:{item.family}"
    return index


def _by_class(records, items, column):
    by_class = {}
    for record in records:
        key = _cost_class(record[0], items[record[0]])
        by_class.setdefault(key, []).append(record[column])
    return by_class


def class_costs(records, items, column):
    """Cost of each input that ran: the median of ``column`` over the
    operations of its cost class.  The figures of one pass over the input
    set then do not depend on where in the list the deadline fell."""
    median = {key: statistics.median(values)
              for key, values in _by_class(records, items, column).items()}
    costs = (median.get(_cost_class(i, item)) for i, item in enumerate(items))
    return [c for c in costs if c is not None]


def _pass_distribution(records, items):
    """Latencies of one pass over the input set, as sorted (latency, weight)
    pairs with weights summing to 1.  Every operation of a cost class
    stands for an equal share of the inputs of that class, so each class
    weighs as many inputs as it has."""
    inputs = {}
    for i, item in enumerate(items):
        key = _cost_class(i, item)
        inputs[key] = inputs.get(key, 0) + 1
    weighted = sorted((value, inputs[key] / len(values))
                      for key, values in _by_class(records, items, 1).items()
                      for value in values)
    total = sum(w for _, w in weighted)
    return [(value, w / total) for value, w in weighted]


def pass_quantile(records, items, percentile):
    """Latency at ``percentile`` of one pass over the input set."""
    distribution = _pass_distribution(records, items)
    covered = 0.0
    for value, weight in distribution:
        covered += weight
        if covered >= percentile / 100.0:
            return value
    return distribution[-1][0]


def pass_median(records, items):
    """Median latency of one pass over the input set, as the mean of the
    distribution between its 45th and 55th percentiles.  The inputs come in
    clusters of similar cost, and the plain median of a pass can sit on the
    edge of one; the band keeps it from jumping to the next cluster."""
    low, high = 0.45, 0.55
    covered = total = 0.0
    for value, weight in _pass_distribution(records, items):
        total += value * max(0.0, min(covered + weight, high) - max(covered, low))
        covered += weight
    return total / (high - low)


def _paired_difference(records_a, records_b):
    """Mean over the inputs run in both record sets of the difference of
    their mean latencies, so the comparison is not skewed by the input mix."""
    means = []
    for records in (records_a, records_b):
        by_item = {}
        for record in records:
            by_item.setdefault(record[0], []).append(record[1])
        means.append({k: statistics.fmean(v) for k, v in by_item.items()})
    common = means[0].keys() & means[1].keys()
    return statistics.fmean(means[0][k] - means[1][k] for k in common) if common else 0.0


def end_to_end(workload, items, records, setup, ref):
    """The end-to-end metrics of one pass over the input set, each input at
    the median cost of its class.  Every time is scaled to the reference
    machine's speed by the reference starts nearest to it."""
    stamps = [r[5] for r in records]
    scaled = [(r[0], r[1] * fw, r[2] * fc) for r, fw, fc in
              zip(records, ref.factors(stamps, "wall"), ref.factors(stamps, "cpu"))]
    latencies = class_costs(scaled, items, 1)
    tail = TAIL_PERCENTILE[workload]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": _median(setup[0]),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * pass_median(scaled, items),
        "op_tail_ms": 1e3 * pass_quantile(scaled, items, tail),
        "cpu_s": sum(class_costs(scaled, items, 2)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    raw = class_costs(records, items, 1)
    detail = {"op_tail_percentile": tail, "op_samples": len(records),
              "inputs": len(items), "inputs_run": len(latencies),
              "reference": {"starts": len(ref.walls), "speed": ref.factor(),
                            "setup_speed": setup[3].factor()},
              "unscaled": {"setup_s": _median(setup[4]),
                           "ops_per_s": len(raw) / sum(raw),
                           "op_p50_ms": 1e3 * pass_median(records, items),
                           "op_tail_ms": 1e3 * pass_quantile(records, items, tail),
                           "cpu_s": sum(class_costs(records, items, 2))}}
    return metrics, detail


def _kind_counts(items, counts_by_kind):
    """Calls per operation, weighted by how often each kind occurs."""
    total = dict.fromkeys(next(iter(counts_by_kind.values())), 0.0)
    for item in items:
        for name, value in counts_by_kind[item.kind].items():
            total[name] += value / len(items)
    return total


def per_layer(workload, items, loop, setup, counts_by_kind):
    imports, loads = setup[1], setup[2]
    untraced = [r for r in loop.records if not r[4]]
    traced = [r for r in loop.records if r[4]]
    spans = loop.tracer.spans
    op_ids = sorted({s[3] for s in spans if s[0] == "op"})
    n_ops = max(1, len(op_ids))
    by_name, by_op = {}, {}
    for name, start, end, op in spans:
        ms = 1e3 * (end - start)
        by_name.setdefault(name, []).append(ms)
        by_op.setdefault(op, {}).setdefault(name, 0.0)
        by_op[op][name] += ms

    def p50(*names):
        return _median([v for name in names for v in by_name.get(name, ())])

    def per_op(name):
        return sum(by_name.get(name, ())) / n_ops

    def op_value(op, name):
        return by_op[op].get(name, by_op[op].get("standalone." + name))

    calls = _kind_counts(items, counts_by_kind)
    kind_calls = {op: counts_by_kind[items[loop.records[op][0]].kind]
                  for op in op_ids}
    import_ms, load_ms = _median(imports), _median(loads)
    op_ms = {op: by_op[op]["op"] for op in op_ids}

    decompose_ms = {op: kind_calls[op]["matroid.decompose"] * (op_value(op, "matroid.decompose") or 0.0)
                    for op in op_ids}
    m = {"cli.import_ms": import_ms, "catalogue.load_ms": load_ms}
    for command in CLI_COMMANDS:
        m[f"cli.invocation_ms.{command}"] = _median(
            [op_ms[op] for op in op_ids
             if items[loop.records[op][0]].kind == f"cli:{command}"])
    if workload == "cli":
        m["cli.residual_ms"] = _median(
            [op_ms[op] - import_ms
             - (load_ms if loop.meta[op]["loads_catalogue"] else 0.0)
             - sum(v for name, v in by_op[op].items()
                   if name != "op" and not name.startswith("standalone."))
             for op in op_ids])
        setup_per_pass = len(items) * (import_ms + load_ms)
        pass_ms = 1e3 * sum(class_costs(untraced, items, 1))
    else:
        m["cli.residual_ms"] = 0.0
        setup_per_pass = import_ms + load_ms
        pass_ms = setup_per_pass + 1e3 * sum(class_costs(untraced, items, 1))
    m["setup.share"] = setup_per_pass / pass_ms
    for name in ("catalogue.verify_entry", "catalogue.verify_relation",
                 "projective.run_reconstruction", "matroid.fingerprint",
                 "verify.solve_weights", "verify.check_harmonic"):
        m[f"{name}.total_ms"] = per_op(name)
    m["catalogue.construct.p50_ms"] = p50("catalogue.construct")
    m["expressions.matrix_at.p50_ms"] = p50("standalone.expressions.matrix_at")
    m["core.configuration.p50_ms"] = p50("standalone.core.configuration")
    m["core.canonical_form.p50_ms"] = p50("standalone.core.canonical_form")
    m["core.canonical_form.calls"] = calls["core.canonical_form"]
    m["io.load_document.p50_ms"] = p50("io.load_document")
    m["io.bytes_read"] = sum(loop.meta[op].get("bytes", 0) for op in op_ids) / n_ops
    m["matroid.decompose.p50_ms"] = p50("matroid.decompose",
                                        "standalone.matroid.decompose")
    m["matroid.decompose.total_ms"] = sum(decompose_ms.values()) / n_ops
    m["matroid.decompose.calls"] = calls["matroid.decompose"]
    m["matroid.decompose.share"] = (sum(decompose_ms.values())
                                    / max(1e-9, sum(op_ms.values())))
    m["matroid.triples"] = sum(
        kind_calls[op]["matroid.decompose"] * math.comb(loop.meta[op].get("n", 0), 3)
        for op in op_ids) / n_ops
    m["matroid.flats"] = sum(loop.meta[op].get("flats", 0) for op in op_ids) / n_ops
    m["verify.check_vee.p50_ms"] = p50("verify.check_vee")
    m["verify.check_vee.calls"] = calls["verify.check_vee"]
    m["verify.self_ms"] = _median(
        [by_op[op]["verify.check_vee"] - by_op[op]["standalone.matroid.decompose"]
         - by_op[op]["standalone.core.canonical_form"]
         for op in op_ids
         if {"verify.check_vee", "standalone.matroid.decompose"} <= set(by_op[op])])
    m["verify.op_over_check_vee"] = _median(
        [op_ms[op] / by_op[op]["verify.check_vee"]
         for op in op_ids if workload != "cli" and "verify.check_vee" in by_op[op]])
    m["deform.build_system_free.p50_ms"] = p50("deform.build_system_free")
    m["deform.rigidity_test.p50_ms"] = p50("deform.rigidity_test")
    m["deform.rows"] = sum(loop.meta[op].get("rows", 0) for op in op_ids) / n_ops
    m["trace.overhead_ms"] = 1e3 * _paired_difference(traced, untraced)
    m["trace.spans"] = len(spans)
    records = loop.records
    m["failed_op_ratio"] = sum(1 for r in records if r[3]) / len(records)
    return m


def _count_by_kind(workload, items):
    import ops

    counts = {}
    for item in items:
        if item.kind in counts:
            continue
        quiet = ops.Tracer(False)
        if workload == "cli":
            counts[item.kind] = ops.count_calls(lambda: ops.replay_cli(item, quiet))
        else:
            op_fn = ops.INPROCESS_OPS[workload]
            counts[item.kind] = ops.count_calls(lambda: op_fn(item, quiet))
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "veesys", "__init__.py")):
        print(f"error: no veesys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import veesys

    if os.path.dirname(os.path.dirname(os.path.abspath(veesys.__file__))) != SRC:
        print(f"error: veesys imported from {veesys.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import inputs
    import ops

    env = _child_env()
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = setup_starts(env)
        items = inputs.GENERATORS[args.workload](args.seed, workdir)
        tracer = ops.Tracer(False)
        loop = Loop(args.workload, items, env, tracer)
        if args.workload != "cli":
            for item in items[:WARMUP_OPS]:
                loop._op(item)
        if args.trace:
            loop.run(args.seconds, traced=True)
            counts = _count_by_kind(args.workload, items)
            metrics = per_layer(args.workload, items, loop, setup, counts)
            units = dict(PER_LAYER)
            spans_path = os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "calls_by_kind": counts}, handle)
            detail = {"spans_file": os.path.relpath(spans_path, ROOT),
                      "calls_by_kind": counts}
        else:
            records = loop.run(args.seconds)
            metrics, detail = end_to_end(args.workload, items, records, setup,
                                         loop.reference)
            units = dict(END_TO_END)
            detail["failed_op_ratio"] = (sum(1 for r in records if r[3])
                                         / len(records))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = loop.records
    failed = sum(1 for r in records if r[3])
    for kind, problems in loop.problems_seen:
        print(f"# failed {kind}: {'; '.join(problems)}", file=sys.stderr)
    print("# env " + json.dumps(_environment()))
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
