"""Benchmark of the gbfan CLI on four seeded workloads.

    python3 perfbench/run.py --workload fds_design --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each op is one `gbfan.cli.main(argv)`
call in this process, with stdout captured.  Passes over the workload's ops
repeat until `--seconds` is used up; outputs are checked afterwards, outside
the timed region.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import checks
import workloads
from probe import SRC, timed_setup
from tracing import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 3


def run_cli(argv):
    """(exit code, stdout) of one in-process gbfan CLI call."""
    import gbfan.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gbfan.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing op is a failed op
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue()


def percentile(values, q):
    """Inclusive linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Wall time, per-op times and per-op (exit code, stdout digest)."""

    __slots__ = ("wall", "times", "results")

    def __init__(self, wall, times, results):
        self.wall = wall
        self.times = times
        self.results = results


def run_pass(ops, outputs, tracer=None):
    """One pass over the ops; the first stdout of each op goes into outputs."""
    times, results = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        code, out = run_cli(op.argv)
        times.append(time.perf_counter() - t0)
        results.append((code, digest(out)))
        outputs.setdefault(i, out)
    return Pass(time.perf_counter() - start, times, results)


def measure(ops, seconds, outputs, tracer=None, summaries=None):
    """Repeat passes while the next one is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        mark = len(tracer.spans) if tracer else 0
        passes.append(run_pass(ops, outputs, tracer))
        if tracer is not None:
            summaries.append(tracer.pass_summary(mark))
            tracer.reset_counts()
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def failures(ops, passes, outputs, expected_digests=None):
    """(ops attempted, list of (op label, reason) per failed op execution).

    The first output of each op is checked; every later execution must
    repeat it byte for byte.  With expected_digests, the first output must
    also match the digest recorded for the op's label.
    """
    first = passes[0].results
    reasons = {}
    for i, op in enumerate(ops):
        code, sha = first[i]
        if code != 0:
            reasons[i] = f"exit code {code}"
            continue
        if expected_digests is not None and expected_digests.get(op.label) != sha:
            reasons[i] = f"stdout digest {sha[:12]} differs from the recorded one"
            continue
        reason = checks.check(op, outputs[i], run_cli)
        if reason:
            reasons[i] = reason
    failed = []
    for p in passes:
        for i, (code, sha) in enumerate(p.results):
            if i in reasons:
                failed.append((ops[i].label, reasons[i]))
            elif code != 0 or sha != first[i][1]:
                failed.append((ops[i].label, "output differs between passes"))
    return sum(len(p.results) for p in passes), failed


def setup_samples(warmups):
    """Set-up seconds of SETUP_PROBES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), json.dumps(warmups)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end_metrics(passes, setup):
    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "wall_s": m(median(p.wall for p in passes), "s"),
        "op_p50_s": m(median(percentile(p.times, 0.5) for p in passes), "s"),
        "op_p90_s": m(median(percentile(p.times, 0.9) for p in passes), "s"),
        "setup_s": m(median(setup), "s"),
        "peak_rss_mb": m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(name, seed, seconds, trace, workdir, tiny=False):
    """Result object of one benchmark run (see the module docstring)."""
    warm = workloads.warmups(name, workdir, tiny)
    setup = [timed_setup(warm)]
    import gbfan

    if Path(gbfan.__file__).resolve().parent != SRC / "gbfan":
        raise RuntimeError(f"gbfan imported from {gbfan.__file__}, not {SRC}")
    wl = workloads.build(name, seed, workdir, tiny)
    outputs = {}
    if trace:
        plain = measure(wl.ops, seconds / 2, outputs)
        tracer, summaries = Tracer(), []
        tracer.install()
        try:
            traced = measure(wl.ops, seconds / 2, outputs, tracer, summaries)
        finally:
            tracer.remove()
        passes = plain + traced
        overhead = median(p.wall for p in traced) / median(p.wall for p in plain) - 1
        metrics = per_layer_metrics(tracer.present, summaries, overhead)
        if any(s["calls"] != summaries[0]["calls"] for s in summaries):
            print("warning: traced counts differ between passes", file=sys.stderr)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        setup += setup_samples(warm)
        passes = measure(wl.ops, seconds, outputs)
        metrics = end_to_end_metrics(passes, setup)
    expected = None
    if seed == workloads.DEFAULT_SEED and not tiny:
        expected = json.loads(DIGESTS.read_text()).get(name, {})
    attempted, failed = failures(wl.ops, passes, outputs, expected)
    for label, reason in sorted(set(failed))[:10]:
        print(f"failed: {label}: {reason}", file=sys.stderr)
    print(
        f"{name} seed={seed}: {len(passes)} passes of {len(wl.ops)} ops, "
        f"{attempted} op samples, failed_frac={len(failed) / attempted}",
        file=sys.stderr,
    )
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gbfan" / "__init__.py").is_file():
        print(f"error: no gbfan sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
