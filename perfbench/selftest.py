#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute after the
build).

    python3 perfbench/selftest.py

For every workload, on two seeds and in both modes, it asserts that the
run succeeds, that every metric BENCHMARK.json names for that mode is
emitted with its unit and nothing else, that every result matched the
reference, and that no mapping outlives its catalog
(storage.live_mappings_after_close == 0). It then tampers with one
reference digest per workload and asserts the run reports failures and
correct = false.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = "1"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", trace,
           "--tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    expected = {"0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for workload in workloads:
        for seed in (1, 2):
            for trace in ("0", "1"):
                label = f"{workload} seed={seed} trace={trace}"
                result = run(workload, seed, trace)
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, f"{label}: result keys")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace],
                      f"{label}: metrics/units differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{label}: {result['failed']} of "
                      f"{result['attempted']} failed")
                if trace == "1":
                    live = result["metrics"][
                        "storage.live_mappings_after_close"]["value"]
                    check(live == 0, f"{label}: {live} live mappings")
                print(f"ok   {label}: {result['attempted']} checked")
        tampered = run(workload, 1, "0", "--tamper-digest")
        check(tampered["failed"] > 0 and not tampered["correct"],
              f"{workload}: a tampered reference digest went unreported")
        print(f"ok   {workload}: tampered digest -> "
              f"{tampered['failed']} failures reported")
    print("selftest passed")


if __name__ == "__main__":
    main()
