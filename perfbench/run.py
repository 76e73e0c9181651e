#!/usr/bin/env python3
"""The sienna benchmark: one workload, one seed, a closed loop of fresh inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pair-round,commit-open,sense} \\
        --seed N --seconds S --trace {0,1} [--smoke]

One caller runs one op at a time, each on a fresh input made from the seed
before the op's clock starts, until the ops have taken ``--seconds`` of wall
time and at least the first ``PREFIX_OPS`` ops have run. Every output is
checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print every metric by name with its unit, the
workload-specific figures, output digests and the environment.

``--trace 1`` runs every input twice, once plain and once with spans
recorded around the calls into each layer (see ``tracing.py``), and writes
the spans to ``perfbench/out/``. ``--smoke`` shrinks the run for the smoke
test. See README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One caller on one core: BLAS and OpenMP start no worker threads unless the
# caller's environment asks for them. Set before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import setup_probe  # noqa: E402  (stdlib only; sienna loads inside measure_setup)

HERE = Path(__file__).resolve().parent
# Outputs of the first PREFIX_OPS ops are digested and scored, so two runs
# of one seed compare exactly whatever their speed. At least 100 ops also
# give op_ms.p90 ten samples beyond it.
PREFIX_OPS = 200
SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_TRACED_INPUTS = 10
INPUT_CHUNK = 16  # inputs generated at a time, outside the clock
MAX_REPORTED_FAILURES = 3
# Op time between two timings of the reference computation (reference.py).
REF_INTERVAL_NS = 50_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pair-round", "commit-open", "sense"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny run for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = setup_probe.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=setup_probe.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Op times, output checks and per-op samples of one run."""

    def __init__(self, prefix_ops: int):
        self.prefix_ops = prefix_ops
        self.op_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.prefix_digest = hashlib.sha256()
        self.prefix_seen = 0
        self.prefix_succeeded = 0
        self.samples: dict[str, list[float]] = defaultdict(list)

    def fail(self, index: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"op {index}: {why}")

    def record(self, wl, index: int, inp, run) -> tuple:
        """Time one op, check its output, and return (checked, output, ns)."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = run(inp)
        except Exception:
            ns = time.perf_counter_ns() - t0
            self.fail(index, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None, None, ns
        ns = time.perf_counter_ns() - t0
        checked = wl.check(inp, out)
        if not checked.correct:
            self.fail(index, checked.detail)
        return checked, out, ns

    def score(self, wl, index: int, inp, checked, out) -> None:
        """Add one op's output to the digest, success count and samples."""
        if index < self.prefix_ops:
            self.prefix_seen += 1
            if checked is not None:
                self.prefix_digest.update(checked.digest)
                self.prefix_succeeded += checked.succeeded
            else:
                self.prefix_digest.update(b"raised")
        if checked is not None and checked.correct:
            for name, values in wl.samples(inp, out).items():
                self.samples[name].extend(values)


def run_loop(wl, seed: int, seconds: float, min_inputs: int, step) -> None:
    """Feed fresh inputs to ``step`` until its op time and input count suffice."""
    budget_ns = seconds * 1e9
    busy_ns, index = 0, 0
    while busy_ns < budget_ns or index < min_inputs:
        chunk = [wl.make_input(seed, i) for i in range(index, index + INPUT_CHUNK)]
        for inp in chunk:
            busy_ns += step(index, inp)
            index += 1
            if busy_ns >= budget_ns and index >= min_inputs:
                return


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def timed_run(wl, args, prefix_ops: int, setup_samples: list[float]):
    from reference import time_reference

    tally = Tally(prefix_ops)
    # Reference times bracketing blocks of ops: op i ran between
    # refs_ns[block[i]] and refs_ns[block[i] + 1].
    refs_ns = [time_reference()]
    block: list[int] = []
    since_ref = 0

    def step(index, inp):
        nonlocal since_ref
        if since_ref >= REF_INTERVAL_NS:
            refs_ns.append(time_reference())
            since_ref = 0
        checked, out, ns = tally.record(wl, index, inp, wl.run_op)
        tally.op_ns.append(ns)
        block.append(len(refs_ns) - 1)
        since_ref += ns
        tally.score(wl, index, inp, checked, out)
        return ns

    run_loop(wl, args.seed, args.seconds, prefix_ops, step)
    refs_ns.append(time_reference())
    op_ms = [ns / 1e6 for ns in tally.op_ns]
    op_ref = [ns * 2 / (refs_ns[b] + refs_ns[b + 1]) for ns, b in zip(tally.op_ns, block)]
    success_frac = tally.prefix_succeeded / tally.prefix_seen
    metrics = {
        "op_ref.p50": (statistics.median(op_ref), "ref"),
        "ops_per_kref": (1000 * len(op_ref) / sum(op_ref), "1/kref"),
        "success_frac": (success_frac, "frac"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": percentile(op_ms, 90),
        "op_ref.p90": percentile(op_ref, 90),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "ref_ms.p50": statistics.median(refs_ns) / 1e6,
        "fail_frac": 1 - success_frac,
        **wl.summary(tally.samples, prefix_ops),
        "prefix_ops": tally.prefix_seen,
        "output_digest": tally.prefix_digest.hexdigest(),
        "setup_samples_s": setup_samples,
    }
    return tally, metrics, report


def traced_run(wl, args, min_inputs: int):
    import tracing

    tally = Tally(0)
    tracer = tracing.Tracer()
    plain_ns, traced_ns = [], []

    def step(index, inp):
        # Alternate which of the pair runs first, so neither always finds
        # the input warm in the CPU caches.
        order = (False, True) if index % 2 == 0 else (True, False)
        spent, digests = 0, []
        for traced in order:
            if traced:
                checked, out, ns = tally.record(wl, index, inp, lambda x: tracer.run_op(index, wl.run_op, x))
                traced_ns.append(ns)
                tally.score(wl, index, inp, checked, out)
            else:
                checked, out, ns = tally.record(wl, index, inp, wl.run_op)
                plain_ns.append(ns)
            digests.append(None if checked is None else checked.digest)
            spent += ns
        if digests[0] != digests[1]:
            tally.fail(index, "traced and plain runs gave different outputs")
        return spent

    run_loop(wl, args.seed, args.seconds, min_inputs, step)
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns)
    layer = tracer.layer_metrics(tally.samples.get("stitched_bit_errors", []), overhead)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    metrics = {name: (value, tracing.UNITS[name]) for name, value in layer.items()}
    report = {
        "traced_inputs": len(traced_ns),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(setup_probe.ROOT)),
        "absent": tracer.absent_metrics(),
    }
    return tally, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe.add_source_path()
    prefix_ops = 4 if args.smoke else PREFIX_OPS
    setup_s, wl = setup_probe.measure_setup(args.workload, args.seed)

    if args.trace:
        tally, metrics, report = traced_run(wl, args, 2 if args.smoke else MIN_TRACED_INPUTS)
    else:
        n_probes = 0 if args.smoke else SETUP_SAMPLES - 1
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(n_probes)]
        tally, metrics, report = timed_run(wl, args, prefix_ops, setup_samples)

    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, value in report.items():
        if isinstance(value, float):
            print(f"  {name:<40} {value:>14.6g}")
    for failure in tally.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    report["environment"] = environment(args.seed)
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
