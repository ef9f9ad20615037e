"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced counts repeat exactly across two runs, that no wrapper is left
after a traced run, and that a wrong CLI output is counted as failed.
Exits 1 on the first failed check.
"""

import json
import shutil
import sys
import tempfile

import run
import workloads

SECONDS = 0.3
SEED = 7


def tiny_run(name, trace):
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        return run.run(name, SEED, SECONDS, trace, workdir, tiny=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def wrapped_attributes():
    """Names of gbfan functions and methods that are currently trace wrappers."""
    import gbfan.cli  # noqa: F401

    found = []
    for name, module in list(sys.modules.items()):
        if not (name == "gbfan" or name.startswith("gbfan.")):
            continue
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [f"{name}.{a}" for a, v in owners if hasattr(v, "trace_name")]
    return found


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in workloads.WORKLOADS:
            result = tiny_run(name, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} runs without failed ops")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(got == want, f"{name} trace={trace} emits every {key} metric with its unit")

    for name in workloads.WORKLOADS:
        first, second = tiny_run(name, 1), tiny_run(name, 1)
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"
             and k != "trace_overhead_frac"}
            for r in (first, second)
        ]
        expect(counts[0] == counts[1], f"{name} traced counts repeat exactly")

    expect(wrapped_attributes() == [], "no trace wrapper is left after traced runs")
    plain = tiny_run("fds_design", 0)
    expect(plain["failed"] == 0 and wrapped_attributes() == [],
           "an untraced run after traced ones runs unwrapped")

    import gbfan.cli

    real_main = gbfan.cli.main

    def wrong_unique(argv):
        if argv[0] != "unique":
            return real_main(argv)
        print(json.dumps({"unique": True, "gb_count": 2}, indent=2))
        return 0

    gbfan.cli.main = wrong_unique
    try:
        stubbed = tiny_run("fds_design", 0)
    finally:
        gbfan.cli.main = real_main
    passes = stubbed["attempted"] // 3
    expect(not stubbed["correct"] and stubbed["failed"] == passes,
           "a wrong CLI output is counted as failed in every pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
