"""Record the sha256 of every op's stdout for the default seed.

    python3 perfbench/record_digests.py

Runs one pass of each workload on the default seed, checks every output,
and writes perfbench/digests.json only when no op failed.  Benchmark runs
on the default seed then count any op whose stdout differs as failed, so a
change that alters the CLI's JSON, witness choice included, shows up.
"""

import json
import shutil
import sys
import tempfile

import run
import workloads
from probe import timed_setup


def main():
    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="inputs-", dir=run.OUT)
        try:
            timed_setup(workloads.warmups(name, workdir))
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            outputs = {}
            passes = [run.run_pass(wl.ops, outputs)]
            _, failed = run.failures(wl.ops, passes, outputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            for label, reason in failed:
                print(f"failed: {label}: {reason}", file=sys.stderr)
            return 1
        recorded[name] = {op.label: sha for op, (_, sha) in zip(wl.ops, passes[0].results)}
        print(f"{name}: {len(wl.ops)} digests", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
