"""modwick benchmark: three closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --smoke             # every workload once, shortest length

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs untraced passes, then traced passes, and reports the per-layer
metrics (per op) and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of fresh interpreters, launched one after
  another, that import ``modwick.cli`` and generate the workload's inputs;
* ``ops_per_ref_s``: ops per reference second of the workload's pass,
  every op at its median latency over the run;
* ``op_p50_ref_s``: median over ops of each op's median latency across
  passes (over the passes, if the pass has one op), in reference seconds;
* ``op_tail_ref_s``: the highest percentile of the same values with at
  least ten samples beyond it, or the median when there are too few;
* ``peak_rss_mb``: peak resident memory of this process, read after the
  timed part and before the oracle checks.

Op latencies are corrected for the host's drifting speed (see
``speed.py``): a reference second is a second of a machine that runs the
reference chunk in exactly ``speed.REF_CHUNK_S``.  The wall-clock figures
are printed beside them.

An op fails on a nonzero exit, an exception, an oracle disagreement or a
digest mismatch; ``failed / attempted`` is printed as ``ops_failed_frac``.
Every run times at least one whole pass, for about ``--seconds``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
SMOKE_BUDGET_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/ref_s",
    "op_p50_ref_s": "ref_s",
    "op_tail_ref_s": "ref_s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("verify-sweep", "block-requests", "numeric-crosscheck")
DEFAULT_SEED = 0  # the seed of the recorded digests and of the smoke run


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import modwick from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "modwick", "cli.py")):
        raise BenchError(f"no modwick sources under {src}")
    sys.path.insert(0, src)
    import modwick.cli

    if not os.path.abspath(modwick.cli.__file__).startswith(src + os.sep):
        raise BenchError(f"modwick imported from {modwick.cli.__file__}, not {src}")


def make_workload(name: str, seed: int, smoke: bool = False):
    """Import the program and generate the workload's inputs.

    A smoke run keeps only the first ``smoke_ops`` ops of the pass.
    """
    import_program()
    import workloads

    workdir = os.path.join(WORKDIR, name)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    if smoke:
        workload.ops = workload.ops[:workload.smoke_ops]
    return workload


# ---------------------------------------------------------------------------
# measuring


def measure_setup(name: str, seed: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


class Record:
    """Latency and outcome of every op instance of a run, pooled by op name."""

    def __init__(self, ops):
        self.pass_ops = list(ops)
        self.ops = list({op.name: op for op in ops}.values())
        self.latency = {op.name: [] for op in ops}  # wall seconds
        self.ref = {op.name: [] for op in ops}  # reference seconds
        self.values = {op.name: [] for op in ops}
        self.errors = {op.name: [] for op in ops}  # one entry per failed instance
        self.chunk_s = None  # median reference chunk time of the run

    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def failed(self) -> int:
        return sum(len(v) for v in self.errors.values())

    def merged(self, other: "Record") -> "Record":
        out = Record(self.pass_ops)
        for part in (self, other):
            for name in out.latency:
                out.latency[name] += part.latency[name]
                out.ref[name] += part.ref[name]
                out.values[name] += part.values[name]
                out.errors[name] += part.errors[name]
        return out


def run_passes(workload, seconds: float, tracer=None) -> Record:
    """Cycle through the pass for about ``seconds``; return the record.

    The run stops only after a whole step, once at least one whole pass
    has run, and when stopping now is nearer to ``seconds`` than after
    another step.  Before each op, untimed, the garbage of the ops before
    it is collected; the set-up's objects are frozen first so that this
    costs microseconds.  A ``SpeedSampler`` runs meanwhile: latencies
    exclude its handler, and ``record.ref`` holds them in reference seconds.
    """
    from speed import SpeedSampler
    from workloads import sha256_file

    record = Record(workload.ops)
    intervals = []  # (op name, start, end) of every op instance
    sampler = SpeedSampler()
    gc.collect()
    gc.freeze()
    sampler.start()
    try:
        ops, step = workload.ops, workload.step
        start = time.perf_counter()
        at = op_id = 0
        whole = False
        while True:
            step_start = time.perf_counter()
            for op in ops[at:at + step]:
                error = value = None
                gc.collect()
                if tracer is not None:
                    token = tracer.op_begin(op_id)
                t0 = time.perf_counter()
                try:
                    value = op.run()
                except Exception as e:  # a crashing op is a failed op
                    error = f"{type(e).__name__}: {e}"
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.op_end(token)
                op_id += 1
                intervals.append((op.name, t0, t1))
                if error is None and op.out is not None:
                    if value != 0:
                        error = f"exit code {value}"
                    else:
                        value = sha256_file(op.out)
                record.values[op.name].append(value)
                if error is not None:
                    record.errors[op.name].append(error)
            at += step
            if at >= len(ops):
                at, whole = 0, True
            now = time.perf_counter()
            if whole and now - start + (now - step_start) / 2 >= seconds:
                break
    finally:
        sampler.stop()
        gc.unfreeze()
    for name, t0, t1 in intervals:
        record.latency[name].append(t1 - t0 - sampler.inside(t0, t1))
        record.ref[name].append(sampler.reference_s(t0, t1))
    record.chunk_s = sampler.median_chunk_s()
    return record


def check_outputs(workload, record: Record, digests: dict):
    """Oracle and digest checks, after the timed part.

    File outputs are checked once, on the last pass's files; every pass
    must have produced the same bytes, so the verdict holds for all.
    ``digests`` maps an op's ``key`` to the sha256 its output must have;
    those bytes passed the oracles when they were recorded, so a matching
    output needs no second oracle run and any other output fails.
    """
    for op in record.ops:
        values = record.values[op.name]
        errors = record.errors[op.name]
        if errors:
            continue
        if op.out is None:
            for v in values:
                problem = _oracle(workload, op, v)
                if problem:
                    errors.append(problem)
            continue
        want = digests.get(op.key)
        if len(set(values)) != 1:
            problem = "output bytes differ between passes"
        elif want is None:
            problem = _oracle(workload, op, None)
        elif values[0] != want:
            problem = f"sha256 {values[0][:12]} differs from the recorded {want[:12]}"
        else:
            problem = None
        if problem:
            errors.extend([problem] * len(values))


def _oracle(workload, op, value):
    try:
        return workload.check(op, value)
    except Exception as e:  # an unreadable output is a failed op
        return f"oracle raised {type(e).__name__}: {e}"


def reference_digests() -> dict:
    from workloads import DIGESTS_PATH

    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def op_medians(latency: dict) -> list:
    if len(latency) == 1:
        return sorted(next(iter(latency.values())))
    return sorted(statistics.median(v) for v in latency.values() if v)


def pass_rate(ops, latency: dict) -> float:
    """Ops per second of one pass, every op at its median latency."""
    median = {name: statistics.median(v) for name, v in latency.items() if v}
    return len(ops) / sum(median[op.name] for op in ops)


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond."""
    n = len(values)
    values = sorted(values)
    i = n - 11
    if i < (n - 1) / 2:
        return statistics.median(values), 50
    return values[i], int(100 * (i + 1) / n)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(record: Record, setup_s: float, setup_repeats: int,
                       rss: float) -> tuple:
    """The end-to-end metrics from reference seconds, with wall notes."""
    attempted = record.attempted()
    ref = op_medians(record.ref)
    wall = op_medians(record.latency)
    tail_ref, tail_pct = tail(ref)
    tail_wall, _ = tail(wall)
    metrics = {
        "setup_s": setup_s,
        "ops_per_ref_s": pass_rate(record.pass_ops, record.ref),
        "op_p50_ref_s": statistics.median(ref),
        "op_tail_ref_s": tail_ref,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {setup_repeats} fresh interpreters",
        "ops_per_ref_s": f"pass of {len(record.pass_ops)} ops; wall "
                         f"{pass_rate(record.pass_ops, record.latency):.6g} /s",
        "op_p50_ref_s": f"n={len(ref)} medians of {attempted} samples; "
                        f"wall {statistics.median(wall):.6g} s",
        "op_tail_ref_s": f"p{tail_pct}, n={len(ref)}; wall {tail_wall:.6g} s",
        "peak_rss_mb": "ru_maxrss",
    }
    notes["ops_per_ref_s"] += (f"; reference chunk median "
                               f"{record.chunk_s * 1e3:.4g} ms")
    return metrics, notes


# ---------------------------------------------------------------------------
# the two kinds of run


def run_end_to_end(name: str, seed: int, seconds: float,
                   setup_repeats: int = SETUP_REPEATS) -> tuple:
    setup_s = measure_setup(name, seed, setup_repeats)
    workload = make_workload(name, seed)
    for op in workload.ops[:workload.warmup]:  # untimed
        op.run()
    record = run_passes(workload, seconds)
    rss = peak_rss_mb()
    check_outputs(workload, record, reference_digests())
    metrics, notes = end_to_end_metrics(record, setup_s, setup_repeats, rss)
    return record, metrics, END_TO_END, notes


def run_traced(name: str, seed: int, seconds: float, smoke: bool = False) -> tuple:
    """Untraced passes, then traced passes, each for half the seconds.

    Both halves run the speed sampler, so the tracing overhead compares
    rates in reference seconds; the sampler's handler (2-3% of the
    time) is charged to whichever span it interrupts.  Returns the report
    fields and, for the smoke run, the untraced part.
    """
    workload = make_workload(name, seed, smoke)
    import tracing

    for op in workload.ops[:workload.warmup]:  # untimed
        op.run()
    imports = tracing.import_breakdown(ROOT)

    untraced = run_passes(workload, seconds / 2)
    rss = peak_rss_mb()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORKDIR, f"spans-{name}.csv"))
    record = untraced.merged(traced)
    check_outputs(workload, record, reference_digests())

    untraced_rate = pass_rate(untraced.pass_ops, untraced.ref)
    traced_rate = pass_rate(traced.pass_ops, traced.ref)
    metrics = dict(imports)
    metrics.update(tracer.metrics(traced.attempted()))
    metrics["trace.ops_per_ref_s_untraced"] = untraced_rate
    metrics["trace.ops_per_ref_s_traced"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    gap = metrics["trace.op_s"] - metrics["trace.layers_self_s"] - metrics["harness.self_s"]
    if abs(gap) > 1e-6:
        raise BenchError(f"layer self times miss {gap:.3e} s of the op time")
    units = tracing.metric_units()
    metrics = {k: metrics[k] for k in units}
    return (record, metrics, units, {}), (untraced, rss)


# ---------------------------------------------------------------------------
# reporting


def report(name: str, seed: int, record: Record, metrics: dict, units: dict,
           notes: dict) -> dict:
    attempted, failed = record.attempted(), record.failed()
    print(f"== {name} (seed {seed})")
    for key, value in metrics.items():
        note = f"  [{notes[key]}]" if key in notes else ""
        print(f"  {key:<44} {value:>16.6g} {units[key]}{note}")
    print(f"  {'ops_failed_frac':<44} {failed / attempted:>16.6g} ratio"
          f"  [{failed} of {attempted} ops]")
    for op_name, errors in record.errors.items():
        for e in sorted(set(errors)):
            print(f"  FAILED {op_name}: {e}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()  # fail before any set-up when the sources are missing
    if trace:
        result, _untraced = run_traced(name, seed, seconds)
    else:
        result = run_end_to_end(name, seed, seconds)
    return report(name, seed, *result)


def smoke(seed: int) -> bool:
    """Every workload once at its shortest length; every metric named.

    One traced run per workload: its untraced pass gives the end-to-end
    metrics, its traced pass the per-layer ones.
    """
    start = time.perf_counter()
    import_program()
    import workloads

    problem = workloads.check_pairing_formula()
    print(f"SMOKE pairing-count formula: {problem or 'ok'}")
    ok = problem is None
    for name in WORKLOAD_NAMES:
        setup_s = measure_setup(name, seed, 1)
        (record, metrics, units, _), (untraced, rss) = run_traced(
            name, seed, 0, smoke=True)
        e2e, notes = end_to_end_metrics(untraced, setup_s, 1, rss)
        result = report(name, seed, record, {**e2e, **metrics},
                        {**END_TO_END, **units}, notes)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {**END_TO_END, **units}
        if got != want:
            print(f"SMOKE {name}: metrics {sorted(set(got) ^ set(want))} "
                  "missing or extra, or a unit differs")
            ok = False
        ok = ok and result["correct"]
    took = time.perf_counter() - start
    print(f"SMOKE {'pass' if ok else 'FAIL'} in {took:.1f} s (budget {SMOKE_BUDGET_S:.0f} s)")
    return ok and took <= SMOKE_BUDGET_S


def record_digests(seed: int) -> int:
    """One pass of block-requests; its output digests become the reference."""
    workload = make_workload("block-requests", seed)
    record = run_passes(workload, 0)
    check_outputs(workload, record, {})  # the oracles alone
    if record.failed():
        print(f"error: {record.failed()} ops failed; digests not recorded",
              file=sys.stderr)
        return 1
    outputs = {op.key: record.values[op.name][0] for op in record.ops}
    from workloads import DIGESTS_PATH

    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} digests for seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, shortest length")
    parser.add_argument("--record-digests", action="store_true",
                        help="write the block-requests output digests of this "
                        "seed to perfbench/digests.json")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed)
            return 0
        if args.smoke:
            return 0 if smoke(args.seed) else 1
        if args.record_digests:
            return record_digests(args.seed)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [run_one(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({n: r for n, r in zip(names, results)}))
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
