#!/usr/bin/env python3
"""Self-test of the repository benchmark. From the repository root:

    python3 perfbench/selftest.py

Runs a short version of every workload (the minimum number of episodes)
and checks that
  * every end-to-end metric (BENCHMARK.json's list plus failed_share) and,
    in the traced run, every per-layer metric is printed with its unit and
    lands in the result JSON;
  * the timing probes are transparent: an episode's curve digest, traffic
    and final accuracy equal those of core::Experiment::execute on the same
    workload and seed, traced or not;
  * the correctness gate passes on the real expected values and fails when
    given a wrong expected byte count.
Exits 0 when every check passes, 1 otherwise.
"""

import contextlib
import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 3
SAME_OUTPUTS = ("curve_digest", "curve_rows", "total_payload_bytes",
                "total_messages", "final_acc", "upload_bytes_per_client_round")


def check(ok, what, failures):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_benchmark(workload, trace):
    """run.main with the smallest time budget; returns (stdout, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)])
    text = out.getvalue()
    lines = text.strip().splitlines()
    return code, text, json.loads(lines[-1]) if lines else {}


def check_metrics(workload, trace, expected, failures):
    code, text, result = run_benchmark(workload, trace)
    check(code == 0 and result.get("correct") is True,
          f"{workload} trace={trace}: exits 0 and passes the gate", failures)
    for name, unit in expected:
        printed = any(line.split()[:1] == [name] and line.split()[-1] == unit
                      for line in text.splitlines())
        check(printed, f"{workload} trace={trace}: {name} printed in {unit}",
              failures)
    # failed_share is reported through the result's attempted/failed counts.
    listed = {name: unit for name, unit in expected if name != "failed_share"}
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    check(got == listed, f"{workload} trace={trace}: the result JSON holds "
          "exactly the listed metrics and units", failures)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    end_to_end.append(("failed_share", "fraction"))
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    workloads = run.load_workloads()
    failures = []
    binary = run.build()

    for w in workloads:
        oracle = run.run_perfbench(binary, "oracle", w, SEED)
        episode = run.run_perfbench(binary, "episode", w, SEED)
        traced = run.run_perfbench(binary, "episode", w, SEED, trace=True)
        check(None not in (oracle, episode, traced),
              f"{w}: oracle, episode and traced episode ran", failures)
        if None in (oracle, episode, traced):
            continue
        for key in SAME_OUTPUTS:
            check(episode[key] == oracle[key] == traced[key],
                  f"{w}: probes transparent for {key} "
                  f"({episode[key]} / {oracle[key]} / {traced[key]})",
                  failures)

        spec = workloads[w]
        check(run.gate_accuracy([episode, oracle, traced], spec) is None,
              f"{w}: final_acc within the stated tolerance", failures)
        gate_failures, _ = run.gate(episode, spec)
        check(not gate_failures, f"{w}: gate passes ({gate_failures})",
              failures)
        wrong = copy.deepcopy(spec)
        wrong["expected"]["round_payload_bytes"] += 1
        gate_failures, _ = run.gate(episode, wrong)
        check(bool(gate_failures),
              f"{w}: gate fails on a wrong expected byte count", failures)

        check_metrics(w, 0, end_to_end, failures)
        check_metrics(w, 1, per_layer, failures)

    print(f"selftest: {'FAIL' if failures else 'pass'} "
          f"({len(failures)} failed checks)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
