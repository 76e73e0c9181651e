"""Spans around the calls into each sienna layer, recorded from outside.

The traced run rebinds the public functions each layer is called through
(the names ``sienna.protocol`` imported, and the public codec and device
methods) to wrappers that record one span per call. Nothing under ``src``
changes. A binding that no longer exists is reported as absent, with a
warning, instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (owner, attribute, span name). An owner is a module, or a class inside one.
SPANNED = (
    ("sienna.protocol", "skew", "protocol.orient"),
    ("sienna.protocol:BeltDevice", "derive_fingerprints", "protocol.derive"),
    ("sienna.protocol:PrmsDevice", "derive_fingerprints", "protocol.derive"),
    ("sienna.protocol", "extract", "fingerprint.extract"),
    ("sienna.protocol", "normalize_series", "fingerprint.normalize"),
    ("sienna.protocol", "jade_separate", "ica.jade"),
    ("sienna.protocol", "lowpass_filter", "ica.lowpass"),
    ("sienna.protocol", "linear_demodulate", "breathing.demodulate"),
    ("sienna.rs:RsCodec", "encode", "rs.encode"),
    ("sienna.rs:RsCodec", "decode", "rs.decode"),
    ("sienna.protocol", "commit", "commitment.commit"),
    ("sienna.commitment", "commit", "commitment.commit"),
    ("sienna.protocol", "open_commitment", "commitment.open"),
    ("sienna.commitment", "open_commitment", "commitment.open"),
    ("sienna.protocol", "qam_modulate", "channel.modulate"),
    ("sienna.protocol", "dup_and_jam", "channel.jam"),
    ("sienna.protocol", "receiver_stitch", "channel.stitch"),
    ("sienna.protocol", "qam_demodulate", "channel.demodulate"),
)
# Counted per call but not spanned: a span per field multiply would cost
# more than the multiply. Each count is charged to the innermost open span.
COUNTED = (("sienna.gf:GaloisField", "mul", "gf.mul"),)

OP_SPAN = "op"
CHANNEL_SPANS = ("channel.modulate", "channel.jam", "channel.stitch", "channel.demodulate")

# Which spans' self time makes up each share of op time.
SHARES = {
    "protocol.self_share": (OP_SPAN, "protocol.derive"),
    "protocol.orient_share": ("protocol.orient",),
    "fingerprint.share": ("fingerprint.extract", "fingerprint.normalize"),
    "ica.share": ("ica.jade", "ica.lowpass"),
    "breathing.share": ("breathing.demodulate",),
    "rs.share": ("rs.encode", "rs.decode"),
    "commitment.share": ("commitment.commit", "commitment.open"),
    "channel.share": CHANNEL_SPANS,
}

# Spans each per-layer metric is computed from; a metric is absent when any
# binding of those spans is missing.
METRIC_SPANS = {
    "protocol.self_ms": (OP_SPAN,),
    "protocol.attempts_per_op": ("commitment.commit",),
    "protocol.opens_per_attempt": ("commitment.commit", "commitment.open"),
    "protocol.derive_ms": ("protocol.derive",),
    "protocol.derive_calls": ("protocol.derive",),
    "protocol.orient_ms": ("protocol.orient",),
    "protocol.orient_calls": ("protocol.orient",),
    "fingerprint.extract_ms": ("fingerprint.extract",),
    "fingerprint.extract_calls": ("fingerprint.extract",),
    "fingerprint.normalize_ms": ("fingerprint.normalize",),
    "fingerprint.normalize_calls": ("fingerprint.normalize",),
    "ica.jade_ms": ("ica.jade",),
    "ica.jade_sweeps": ("ica.jade",),
    "ica.lowpass_ms": ("ica.lowpass",),
    "breathing.demodulate_ms": ("breathing.demodulate",),
    "rs.encode_us": ("rs.encode",),
    "rs.encode_calls": ("rs.encode",),
    "rs.decode_us": ("rs.decode",),
    "rs.decode_calls": ("rs.decode",),
    "rs.decode_none_frac": ("rs.decode",),
    "gf.mul_calls_per_decode": ("rs.decode", "gf.mul"),
    "gf.mul_calls_per_encode": ("rs.encode", "gf.mul"),
    "commitment.commit_self_us": ("commitment.commit",),
    "commitment.open_self_us": ("commitment.open",),
    "commitment.open_status.recovered": ("commitment.open",),
    "commitment.open_status.hash-mismatch": ("commitment.open",),
    "commitment.open_status.decode-failure": ("commitment.open",),
    "commitment.open_yield": ("commitment.open",),
    "channel.frame_us": CHANNEL_SPANS,
    "channel.stitched_bit_errors": (),
    "trace.overhead": (),
    **{name: spans for name, spans in SHARES.items()},
}


UNITS = {
    name: (
        "ms" if name.endswith("_ms")
        else "us" if name.endswith("_us")
        else "frac" if name.endswith(("_frac", "_yield", "share"))
        else "ratio" if name == "trace.overhead"
        else "count"
    )
    for name in METRIC_SPANS
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span store plus the bindings that feed it.

    One span record is ``[name, start_ns, end_ns, parent_index, op_id]``;
    ``parent_index`` is -1 for a root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sweeps: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self.absent: set[str] = set()
        self._targets = []
        for owner, attr, name in SPANNED + COUNTED:
            try:
                target = _resolve(owner)
                original = getattr(target, attr)
            except (ImportError, AttributeError):
                print(f"warning: binding {owner}.{attr} is gone; {name} is absent", file=sys.stderr)
                self.absent.add(name)
                continue
            wrap = self._counter if (owner, attr, name) in COUNTED else self._span
            own = not isinstance(target, type) or attr in vars(target)
            self._targets.append((target, attr, original, own, wrap(name, original)))

    def _span(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            tracer._observe(name, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, result):
        if name == "ica.jade":
            self.sweeps.append(result.iterations)
        elif name == "rs.decode":
            self.counts["rs.decode_none"] += result is None
        elif name == "commitment.open":
            self.counts[f"open_status.{result.status}"] += 1

    def install(self):
        for target, attr, _, _, wrapper in self._targets:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, own, _ in self._targets:
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def run_op(self, op_id: int, fn, arg):
        """Run one op under a root span with every binding installed."""
        self.op_id = op_id
        self.install()
        try:
            return self._span(OP_SPAN, fn)(arg)
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start - base, "end_ns": end - base,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self, stitched_bit_errors: list[int], overhead: float) -> dict[str, float]:
        """Per-layer metrics over the recorded spans; see the README for each."""
        total = defaultdict(int)
        self_time = defaultdict(int)
        calls = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        n_ops = max(calls[OP_SPAN], 1)
        op_ns = max(total[OP_SPAN], 1)

        def per_op_ms(name):
            return total[name] / n_ops / 1e6

        def per_call(value, name, scale=1.0):
            return value / calls[name] * scale if calls[name] else 0.0

        attempts = calls["commitment.commit"]
        opens = calls["commitment.open"]
        metrics = {
            "protocol.self_ms": self_time[OP_SPAN] / n_ops / 1e6,
            "protocol.attempts_per_op": attempts / n_ops,
            "protocol.opens_per_attempt": opens / attempts if attempts else 0.0,
            "protocol.derive_ms": per_op_ms("protocol.derive"),
            "protocol.derive_calls": calls["protocol.derive"] / n_ops,
            "protocol.orient_ms": per_op_ms("protocol.orient"),
            "protocol.orient_calls": calls["protocol.orient"] / n_ops,
            "fingerprint.extract_ms": per_op_ms("fingerprint.extract"),
            "fingerprint.extract_calls": calls["fingerprint.extract"] / n_ops,
            "fingerprint.normalize_ms": per_op_ms("fingerprint.normalize"),
            "fingerprint.normalize_calls": calls["fingerprint.normalize"] / n_ops,
            "ica.jade_ms": per_op_ms("ica.jade"),
            "ica.jade_sweeps": sum(self.sweeps) / len(self.sweeps) if self.sweeps else 0.0,
            "ica.lowpass_ms": per_op_ms("ica.lowpass"),
            "breathing.demodulate_ms": per_op_ms("breathing.demodulate"),
            "rs.encode_us": per_call(total["rs.encode"], "rs.encode", 1e-3),
            "rs.encode_calls": calls["rs.encode"] / n_ops,
            "rs.decode_us": per_call(total["rs.decode"], "rs.decode", 1e-3),
            "rs.decode_calls": calls["rs.decode"] / n_ops,
            "rs.decode_none_frac": per_call(self.counts["rs.decode_none"], "rs.decode"),
            "gf.mul_calls_per_decode": per_call(self.counts[("gf.mul", "rs.decode")], "rs.decode"),
            "gf.mul_calls_per_encode": per_call(self.counts[("gf.mul", "rs.encode")], "rs.encode"),
            "commitment.commit_self_us": per_call(
                self_time["commitment.commit"], "commitment.commit", 1e-3
            ),
            "commitment.open_self_us": per_call(
                self_time["commitment.open"], "commitment.open", 1e-3
            ),
            "commitment.open_yield": per_call(
                self.counts["open_status.recovered"], "commitment.open"
            ),
            "channel.frame_us": (
                sum(total[s] for s in CHANNEL_SPANS) / attempts / 1e3 if attempts else 0.0
            ),
            "channel.stitched_bit_errors": (
                sum(stitched_bit_errors) / len(stitched_bit_errors) if stitched_bit_errors else 0.0
            ),
            "trace.overhead": overhead,
        }
        for status in ("recovered", "hash-mismatch", "decode-failure"):
            metrics[f"commitment.open_status.{status}"] = self.counts[f"open_status.{status}"] / n_ops
        for share, names in SHARES.items():
            metrics[share] = sum(self_time[n] for n in names) / op_ns
        return metrics

    def absent_metrics(self) -> list[str]:
        return sorted(m for m, spans in METRIC_SPANS.items() if self.absent.intersection(spans))
