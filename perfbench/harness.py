"""Measurement passes, calibration, metrics and the traced self-check.

See run.py for how to run the benchmark and DESIGN.md for what it measures.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any

import calib
import layers
import workloads
from triderive import TriderivError

BENCH_DIR = workloads.BENCH_DIR
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

# Set-up is timed this many times before the measured pass and as many
# after it, so that its median spans the run's changes in host speed.
SETUP_SAMPLES = 5
MIN_SAMPLES = 100    # so that at least ten samples lie beyond the p90
HARD_STOP_S = 140.0  # stop adding rounds here, whatever the op count
QUANTILE_BAND = 0.05

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds one round of the workload's inputs from the seed.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build_round(sys.argv[3], int(sys.argv[4]), 0)")


def setup_seconds(name: str, seed: int, count: int) -> list[float]:
    """Wall times of ``count`` fresh-process set-ups."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, SRC, BENCH_DIR, name,
                        str(seed)], check=True, capture_output=True,
                       timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


class Pass:
    """What one pass over a workload's rounds measured and printed.

    Operations run in batches of ``batch``; each batch is one latency
    sample and is followed by one calibration slice.
    """

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self.attempted = 0
        self.samples: list[float] = []
        self.cal_times: list[float] = []
        self.texts: list[str] = []      # canonical results of round 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, str] = {}
        self.rounds = 0
        self.import_s: list[float] = []  # traced cli-cold children only

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.texts).encode()).hexdigest()

    def ratios(self) -> list[float]:
        """Each batch's latency over the calibration slice that follows
        it, so that both see the host in the same state."""
        return [s / c for s, c in zip(self.samples, self.cal_times)]

    @property
    def norm_wall(self) -> float:
        """Mean ratio: the time in operations in units of calibration."""
        return statistics.fmean(self.ratios())

    def norm_latency(self, q: float) -> float:
        """Quantile q of the batch ratios.

        The estimate is the mean of the ratios ranked within QUANTILE_BAND
        of q: with a few hundred samples drawn from several operation
        kinds, one order statistic jumps between the kinds' clusters from
        run to run, while the band's mean does not.
        """
        ordered = sorted(self.ratios())
        n = len(ordered)
        lo = max(math.floor((q - QUANTILE_BAND) * n), 0)
        hi = min(max(math.ceil((q + QUANTILE_BAND) * n), lo + 1), n)
        return statistics.fmean(ordered[lo:hi])


def judge(op: Any, result: Any, exc: BaseException | None) -> tuple[str, str]:
    """(text, status) of one operation; never raises."""
    if exc is None:
        try:
            return op.check(result)
        except Exception as err:  # a check that cannot read the result
            exc = err
    if isinstance(exc, TriderivError):
        return f"error {type(exc).__name__}: {exc}", workloads.ERROR
    traceback.print_exception(exc, file=sys.stderr)
    return f"crash {type(exc).__name__}: {exc}", workloads.WRONG


def run_pass(name: str, seed: int, *, rounds: int | None = None,
             seconds: float = 0.0, recorder: Any = None) -> Pass:
    """Run rounds 0, 1, ... -- ``rounds`` of them, or until ``seconds``
    have passed and MIN_SAMPLES latency samples are taken."""
    spec = workloads.WORKLOADS[name]
    cli = workloads.CliRunner()
    cli.recorder = recorder
    out = Pass(spec.batch)
    start = time.perf_counter()
    pending = 0
    batch_s = 0.0
    while True:
        for op in spec.build(seed, out.rounds, cli):
            if recorder is not None:
                recorder.active = True
            try:
                elapsed, result, exc = workloads.run_op(op)
            finally:
                if recorder is not None:
                    recorder.active = False
            text, status = judge(op, result, exc)
            out.attempted += 1
            batch_s += elapsed
            if out.rounds == 0:
                out.texts.append(f"{op.name}\t{text}")
            if status != workloads.OK:
                out.failed += 1
                out.wrong += status == workloads.WRONG
                out.failures[op.name] = text
            pending += 1
            if pending == spec.batch:
                out.samples.append(batch_s)
                out.cal_times.append(
                    calib.timed_slice(spec.cal_units, spec.cold))
                pending = 0
                batch_s = 0.0
        out.rounds += 1
        wall = time.perf_counter() - start
        if rounds is not None:
            if out.rounds >= rounds:
                break
        elif (wall >= seconds and len(out.samples) >= MIN_SAMPLES) \
                or wall >= HARD_STOP_S:
            break
    out.import_s = cli.import_s
    return out


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def report(name: str, seed: int, p: Pass) -> None:
    print(f"workload {name}, seed {seed}: {p.attempted} operations in "
          f"{p.rounds} rounds, {p.failed} failed ({p.wrong} wrong)")
    print(f"  digest of round 0: {p.digest}")
    print(f"  failed_frac  {p.failed / p.attempted:.6f} ratio")
    for op_name, text in sorted(p.failures.items()):
        print(f"  failed: {op_name}: {text}")


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    setups = setup_seconds(name, seed, SETUP_SAMPLES)
    p = run_pass(name, seed, seconds=seconds)
    setups += setup_seconds(name, seed, SETUP_SAMPLES)
    report(name, seed, p)
    print(f"  samples      {len(p.samples)} latency samples of "
          f"{p.batch} operations, each followed by a calibration slice")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "norm_wall": (p.norm_wall, "ratio"),
        "norm_op_p50": (p.norm_latency(0.5), "ratio"),
        "norm_op_p90": (p.norm_latency(0.9), "ratio"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    return result_line(p.wrong == 0, p.attempted, p.failed, metrics)


def trace(name: str, seed: int) -> dict[str, Any]:
    rounds = workloads.WORKLOADS[name].trace_rounds
    base = run_pass(name, seed, rounds=rounds)
    recorders = []
    passes = []
    for _ in range(2):
        rec = layers.Recorder()
        with layers.installed(rec):
            passes.append(run_pass(name, seed, rounds=rounds, recorder=rec))
        recorders.append(rec)
    report(name, seed, base)
    same_counts = recorders[0].counts() == recorders[1].counts()
    same_digest = base.digest == passes[0].digest == passes[1].digest
    print(f"  self-check: traced counts repeat: {same_counts}; "
          f"traced and untraced digests agree: {same_digest}")
    metrics = layer_metrics(recorders[0], base, passes[0])
    everything = [base] + passes
    return result_line(
        same_counts and same_digest and not any(p.wrong for p in everything),
        sum(p.attempted for p in everything),
        sum(p.failed for p in everything), metrics)


def layer_metrics(rec: Any, base: Pass, traced: Pass
                  ) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for span in layers.SPANS:
        metrics[f"{span}.calls"] = (rec.calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = (rec.self_s.get(span, 0.0), "s")
    c = rec.counters
    metrics["poly.mul.term_pairs"] = (c.get("poly.mul.term_pairs", 0), "count")
    metrics["poly.max_degree"] = (rec.peaks.get("poly.max_degree", 0),
                                  "degree")
    metrics["lie.bracket.term_pairs"] = (c.get("lie.bracket.term_pairs", 0),
                                         "count")
    for ratio, span in (("triaut.invert.hit_ratio", "triaut.invert"),
                        ("autgroup.probe.hit_ratio", "autgroup.probe")):
        calls = rec.calls.get(span, 0)
        hits = c.get(f"{span}.hits", 0)
        metrics[ratio] = (hits / calls if calls else 0.0, "ratio")
    metrics["cli.import_s"] = (
        statistics.median(traced.import_s) if traced.import_s else 0.0, "s")
    metrics["bench.wall_s"] = (sum(base.samples), "s")
    metrics["bench.cal_s"] = (sum(base.cal_times), "s")
    metrics["bench.trace_overhead"] = (traced.norm_wall / base.norm_wall,
                                       "ratio")
    metrics["bench.failed_frac"] = (base.failed / base.attempted, "ratio")
    metrics["bench.samples"] = (len(base.samples), "count")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:34s} {value} {unit}")
    return metrics


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
