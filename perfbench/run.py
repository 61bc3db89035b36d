"""Benchmark for the quintic CLI.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``. Each
run drives ``quintic.cli.main`` in-process through click's CliRunner as a
closed loop with one caller: the next op starts when the previous one has
returned, and the run walks its seeded op list once, so the program's caches
start cold as they do for a CLI user. Every output is checked; a run with a
wrong output prints ``"correct": false`` and exits 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
replays the ops of an untraced first half of the run under the tracer and
reports the per-layer metrics. ``--smoke`` runs every workload in both modes
for a fraction of a second each, in fresh processes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calib import calibrate, scale  # noqa: E402

SETUP_REPEATS = 11
#: op_tail_ms percentile per workload: the highest of p50, p75, p90, p95 and p99
#: that has at least 10 samples beyond it in the shortest 20 s runs seen on a
#: 2-CPU machine. It is fixed rather than chosen per run: the op count moves
#: with machine speed, and a percentile that changed between runs would make
#: their tails incomparable.
TAIL_PCT = {"report": 75, "genus-periods": 50, "enum-1e5": 95, "enum-1e12-formII": 95}

#: sha256 over the golden ops' output digests, recorded with the code this benchmark was
#: written against; CLI output must stay byte-identical, so these never need to change
GOLDEN = {
    "report": "1324f3097beb90f2731fd7b36ecb1eff27b1674c586b87fac8ba6afbcfd03889",
    "genus-periods": "92bbba7f631a1f160585d035fe1b7f1179ff1ea2de688bec64873bef3251b5b3",
    "enum-1e5": "a65ab67035e7707b4745cfba3dc0c520761142bcfea0122d074d0f663178a625",
    "enum-1e12-formII": "ce7dbb1469338597be2f9b4d2d49ea91e67c7f58ed423604b948d26c47d1646b",
}

#: The set-up probe, run in a fresh interpreter: one cold ``import quintic.cli``
#: between calibrations, each the best of three, made in the same process.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from calib import calibrate, scale\n"
    "before = min(calibrate() for _ in range(3))\n"
    "t = time.process_time()\n"
    "import quintic.cli\n"
    "t = time.process_time() - t\n"
    "print(t * scale(before, min(calibrate() for _ in range(3))))\n"
)


class CheckFailed(Exception):
    """An op's output disagrees with what its input was built to produce."""


def setup_seconds() -> float:
    """Median time of a cold ``import quintic.cli``, each in a fresh interpreter.

    Each import is scaled to the reference speed by calibrations in its own process.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ------------------------------------------------------------------ checks


def _error_code(stderr: str) -> str | None:
    try:
        return json.loads(stderr)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return None


def _has_error(doc) -> bool:
    if isinstance(doc, dict):
        return "error" in doc or any(_has_error(v) for v in doc.values())
    return isinstance(doc, list) and any(_has_error(v) for v in doc)


def check_op(op, res, out_path: Path) -> tuple[bool, int]:
    """Validate one op; returns (failed, rows emitted) or raises CheckFailed.

    An op fails, without being wrong, when the program reports an error
    section in place of a result; every other outcome must match how the
    input was built.
    """
    try:
        return _check(op, res, out_path)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"{op}: malformed output ({exc!r})") from exc


def _check(op, res, out_path: Path) -> tuple[bool, int]:
    from quintic.radicand import crosscheck_verdicts

    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise CheckFailed(f"{op}: unexpected {res.exception!r}")
    if isinstance(op, gen.ReportOp):
        doc = _report_result(op, res)
        return _has_error(doc), 0
    if res.exit_code != 0:
        raise CheckFailed(f"{op}: exit {res.exit_code}, error {_error_code(res.stderr)}")
    if isinstance(op, gen.GenusOp):
        doc = json.loads(res.stdout)["result"]
        comps = [c for c in doc["absolute_components"] if c["p"] == op.p]
        if doc["r"] != 1 or len(comps) != 1 or comps[0]["coefficients"][4:] != ["1", "1"]:
            raise CheckFailed(f"{op}: r = {doc['r']}, components {doc['absolute_components']}")
        return _has_error(doc), 0
    emitted = []
    with open(out_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            n, verdict = row["n"], row["verdict"]
            if op.form is not None and verdict != op.form:
                raise CheckFailed(f"{op}: row {n} has verdict {verdict}")
            if crosscheck_verdicts(n) != (() if verdict == "none" else (verdict,)):
                raise CheckFailed(f"{op}: row {n} says {verdict}, crosscheck {crosscheck_verdicts(n)}")
            emitted.append(n)
    if op.form is None:
        expected = [n for n in range(op.lo, op.hi + 1) if gen.is_fifth_power_free(n)]
    else:
        expected = sorted(n for n in set(emitted) if op.lo <= n <= op.hi)
    if emitted != expected:
        raise CheckFailed(f"{op}: emitted rows are not the expected ascending n")
    return False, len(emitted)


def _report_result(op, res) -> dict:
    if res.exit_code != 0:
        raise CheckFailed(f"{op}: exit {res.exit_code}, error {_error_code(res.stderr)}")
    doc = json.loads(res.stdout)["result"]
    got = (doc["radicand"]["verdict"], doc["capitulation"]["form"])
    if got != (op.family, op.family):
        raise CheckFailed(f"{op}: verdict {got}, built as Form {op.family}")
    return doc


def check_probe(op, res) -> bool:
    """Validate a refusal probe; returns True if the program refused it.

    A radicand built to be refused must be refused as uncertified, or, once
    the program can certify it, get the verdict it was built to have.
    """
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise CheckFailed(f"{op}: unexpected {res.exception!r}")
    if res.exit_code == 2 and _error_code(res.stderr) == "uncertified-factorization":
        return True
    try:
        _report_result(op, res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"{op}: malformed output ({exc!r})") from exc
    return False


# ------------------------------------------------------------------ ops


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has waited for.

    Children count so that an op that hands work to worker processes is not
    timed as if the work were free.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Harness:
    """Invokes ops through CliRunner and keeps what the metrics need."""

    def __init__(self):
        from click.testing import CliRunner
        from quintic.cli import main

        self.main = main
        self.runner = CliRunner()
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / "op.out"
        self.invoked = 0

    def invoke(self, op, span=None):
        """Run one op, inside the given span if any.

        Returns (CPU seconds at the reference speed, wall seconds, result).
        """
        if self.out_path.exists():
            self.out_path.unlink()
        args = op.args(str(self.out_path))
        self.invoked += 1
        before = calibrate()
        with span or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), cpu_seconds()
            res = self.runner.invoke(self.main, args)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        return cpu * scale(before, calibrate()), wall, res

    def output_digest(self, res) -> bytes:
        """sha256 of the exit code, stdout and the --out file of the last op."""
        h = hashlib.sha256(f"exit {res.exit_code}\n".encode() + res.stdout_bytes)
        if self.out_path.exists():
            h.update(self.out_path.read_bytes())
        return h.digest()


def golden_digest(harness: Harness, workload: str) -> str:
    h = hashlib.sha256()
    for op in gen.golden_ops(workload):
        _, _, res = harness.invoke(op)
        check_op(op, res, harness.out_path)
        h.update(harness.output_digest(res))
    return h.hexdigest()


def refused_share(harness: Harness, workload: str, seed: int) -> float:
    """Share of the seed's refusal probes that the program refuses; 0 off report.

    The probes run after the timed ops, untimed, and are not counted as ops.
    """
    if workload != "report":
        return 0.0
    probes = gen.refusal_probes(seed)
    refused = sum(check_probe(op, harness.invoke(op)[2]) for op in probes)
    print(f"  refusal probes: {refused} of {len(probes)} radicands with two prime factors "
          f"above the trial bound refused as uncertified-factorization")
    return refused / len(probes)


def tail(durations: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of the durations and the number of samples beyond it."""
    xs = sorted(durations)
    rank = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


@dataclass
class Record:
    op: object
    seconds: float  # CPU time at the reference speed
    wall: float
    failed: bool
    output: bytes | None  # digest of the exit code and output bytes, when kept


def run_pass(harness: Harness, ops, seconds: float, keep_output: bool) -> list[Record]:
    """Run and check ops until the time is up; the first op always runs."""
    records = []
    t_start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - t_start >= seconds:
            break
        dt, wall, res = harness.invoke(op)
        failed, _ = check_op(op, res, harness.out_path)
        records.append(Record(op, dt, wall, failed, harness.output_digest(res) if keep_output else None))
    return records


# ------------------------------------------------------------------ modes


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(harness: Harness, workload: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds()
    records = run_pass(harness, gen.WORKLOADS[workload](seed), seconds, keep_output=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(r.failed for r in records)
    items = sum(r.op.items for r in records if not r.failed)
    print(f"workload {workload}, seed {seed}: {len(records)} ops, {items} items completed")
    refused_share(harness, workload, seed)
    digest = golden_digest(harness, workload)

    durations = [r.seconds for r in records]
    pct = TAIL_PCT[workload]
    tail_s, beyond = tail(durations, pct)
    metrics = {
        "setup_s": metric(setup, "s"),
        "items_per_s": metric(items / sum(durations), "1/s"),
        "op_p50_ms": metric(statistics.median(durations) * 1000, "ms"),
        "op_tail_ms": metric(tail_s * 1000, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    print(f"  op_tail_ms is p{pct} of {len(records)} samples, {beyond} beyond it"
          + (" (fewer than 10: a short run)" if beyond < 10 else ""))
    walls = [r.wall for r in records]
    print(f"  op times are CPU time at the reference speed; in wall time at this host's speed op_p50_ms is "
          f"{statistics.median(walls) * 1000:.6g} and items_per_s {items / sum(walls):.6g}")
    print(f"  fail_ratio = {failed}/{len(records)} failed ops")
    print(f"  setup_s is the median CPU time of {SETUP_REPEATS} cold imports of quintic.cli, at the reference speed")
    return finish(workload, digest, len(records), failed, metrics)


def _clear_caches():
    from tracer import quintic_modules

    for mod in quintic_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_traced(harness: Harness, workload: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    plain = run_pass(harness, gen.WORKLOADS[workload](seed), seconds / 2, keep_output=True)

    _clear_caches()
    tracer = Tracer()
    fac = tracer.index["intarith.factorize"]
    traced_s, failed, fac_ok, items_ok, rows = 0.0, 0, 0, 0, 0
    tracer.install()
    try:
        for op_id, rec in enumerate(plain):
            calls_before = tracer.calls[fac]
            dt, _, res = harness.invoke(rec.op, tracer.op(op_id))
            op_failed, emitted = check_op(rec.op, res, harness.out_path)
            if harness.output_digest(res) != rec.output:
                raise CheckFailed(f"{rec.op}: traced output differs from untraced output")
            traced_s += dt
            failed += op_failed
            rows += emitted
            if not op_failed:
                fac_ok += tracer.calls[fac] - calls_before
                items_ok += rec.op.items
    finally:
        tracer.uninstall()

    op_total = tracer.root_s
    layer_total = sum(tracer.self_s)
    if abs(layer_total - op_total) > 1e-6 * op_total:
        raise CheckFailed(f"layer self times add up to {layer_total} s, ops took {op_total} s")

    metrics = {}
    for i, name in enumerate(tracer.names):
        if i == 0:
            metrics["cli.self_ms"] = metric(tracer.self_s[0] * 1000, "ms")
            continue
        metrics[f"{name}.calls"] = metric(tracer.calls[i], "count")
        metrics[f"{name}.self_ms"] = metric(tracer.self_s[i] * 1000, "ms")
    metrics["intarith.factorize.calls_per_item"] = metric(fac_ok / items_ok if items_ok else 0.0, "ratio")
    classified = tracer.calls[tracer.index["radicand.classify"]]
    metrics["radicand.emit_ratio"] = metric(rows / classified if classified else 0.0, "ratio")
    for name in ("primes.factor_rational_prime", "symbols.residue_field"):
        mod, fn = name.split(".")
        info = getattr(sys.modules[f"quintic.{mod}"], fn).cache_info()
        lookups = info.hits + info.misses
        metrics[f"{name}.hit_ratio"] = metric(info.hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_s / sum(r.seconds for r in plain), "ratio")

    trace_path = OUT_DIR / f"trace-{workload}.tsv"
    tracer.write(trace_path)
    ranked = sorted(range(len(tracer.names)), key=lambda i: -tracer.self_s[i])
    print(f"workload {workload}, seed {seed}: {len(plain)} ops replayed under the tracer, "
          f"{tracer.span_count()} spans written to {trace_path.relative_to(ROOT)}")
    print(f"  layer self times add up to the op time: {layer_total:.6f} s of {op_total:.6f} s")
    for i in ranked[:6]:
        share = tracer.self_s[i] / op_total
        print(f"  {tracer.names[i] + '.self_ms':<42} {tracer.self_s[i] * 1000:12.3f} ms {share:7.1%}")
    # after the cache counters are read: the probes and golden ops would move them
    metrics["report.refused_ratio"] = metric(refused_share(harness, workload, seed), "ratio")
    digest = golden_digest(harness, workload)
    return finish(workload, digest, len(plain), failed, metrics)


def finish(workload: str, digest: str, attempted: int, failed: int, metrics: dict) -> dict:
    expected = GOLDEN[workload]
    correct = digest == expected
    print(f"  golden digest {'matches' if correct else 'MISMATCH'}: {digest}"
          + ("" if correct else f" (recorded {expected})"))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload in both modes, briefly, each in a fresh process."""
    ok = True
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(gen.DEFAULT_SEED), "--seconds", "0.3", "--trace", str(trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            print("\n".join(lines[:-1] if result else lines))
            sys.stderr.write(res.stderr)
            good = res.returncode == 0 and result is not None and result["correct"]
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}\n")
    print("smoke: all workloads ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload briefly and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "quintic" / "cli.py").is_file():
        print(f"error: {SRC / 'quintic'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    run = run_traced if args.trace else run_untraced
    harness = Harness()
    try:
        result = run(harness, args.workload, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": harness.invoked, "failed": 1, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
