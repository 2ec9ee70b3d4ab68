#!/usr/bin/env python3
"""Repository benchmark: FedClassAvg federated rounds through the
production core::Experiment -> fl::FederatedRun path.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library sources plus the fca_perfbench program) into
.bench_build/ (or $CARGO_TARGET_DIR), then runs episodes of the workload —
each one full federated run in its own child process, with a seed drawn
from --seed — until --seconds have passed. Every episode goes through the
correctness gate (perfbench/workloads.json holds the expected values).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced episodes (obs tracing on, spans joined by round) and reports the
per-layer metrics. Timing metrics prefer rounds during which the host's
hypervisor stole no CPU time (see least_stolen). A stamped human-readable
report goes to stdout first; the last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EPISODE_TIMEOUT_S = 60.0  # keeps a run with a hung episode under 180 s
MIN_EPISODES = 3  # set-up is measured at least this many times per run


class BenchError(Exception):
    """The benchmark cannot run at all (bad arguments, no sources, build)."""


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


# -- build ---------------------------------------------------------------------


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds fca_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/CMakeLists.txt) not found "
                         "next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "fca_perfbench")


# -- child processes -----------------------------------------------------------


def child_env(tmp):
    """The parent's environment without FCA_* overrides (transport, pool,
    residency, tracing), so the workload config alone decides the run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCA_")}
    env["FCA_LOG_LEVEL"] = "warn"
    env["TMPDIR"] = tmp
    return env


def run_child(argv, tmp, timeout=EPISODE_TIMEOUT_S):
    """Runs argv to completion; returns (exit code, peak RSS in MB) read
    from wait4's rusage, as bench/bench_scale.cpp does. A child still
    running after `timeout` seconds is killed (and reported as failed)."""
    proc = subprocess.Popen(argv, env=child_env(tmp), stdout=sys.stderr,
                            stderr=sys.stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_perfbench(binary, mode, workload, seed, trace=False):
    """One fca_perfbench episode or oracle in a fresh temp dir (page and
    checkpoint files), removed afterwards. Returns the parsed JSON or None
    when the child failed."""
    scratch = os.path.join(build_dir(), "tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=workload + "-", dir=scratch)
    try:
        out = os.path.join(tmp, "result.json")
        argv = [binary, mode, "--workload", workload, "--seed", str(seed),
                "--tmp", tmp, "--out", out]
        if mode == "episode":
            argv += ["--trace", "1" if trace else "0"]
        code, rss_mb = run_child(argv, tmp)
        if code != 0 or not os.path.isfile(out):
            return None
        with open(out) as f:
            result = json.load(f)
        result["peak_rss_mb"] = rss_mb
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- correctness gate ----------------------------------------------------------


def gate(ep, spec):
    """Checks one episode against the workload's expected values. Returns
    the list of failed check descriptions (empty = correct) and the number
    of checks made."""
    exp = spec["expected"]
    rounds = ep["rounds"]
    recs = ep["round_records"]
    checks = [
        ("init payload bytes", ep["init_payload_bytes"],
         exp["init_payload_bytes"]),
        ("init messages", ep["init_messages"], exp["init_messages"]),
        ("total payload bytes", ep["total_payload_bytes"],
         exp["init_payload_bytes"] + rounds * exp["round_payload_bytes"]),
        ("total messages", ep["total_messages"],
         exp["init_messages"] + rounds * exp["round_messages"]),
        ("pending messages", ep["pending_messages"], 0),
        ("curve rows", ep["curve_rows"], rounds),
        ("completed rounds", len(recs), rounds),
    ]
    failures = [f"{name}: got {got}, expected {want}"
                for name, got, want in checks if got != want]
    for r in recs:
        if (r["payload_bytes"], r["messages"]) != (
                exp["round_payload_bytes"], exp["round_messages"]):
            failures.append(
                f"round {r['round']} traffic: got {r['payload_bytes']} B / "
                f"{r['messages']} msgs, expected "
                f"{exp['round_payload_bytes']} B / {exp['round_messages']}")
    if time_to_target(ep, spec["target_acc"]) is None:
        failures.append(f"never reached target accuracy {spec['target_acc']}")
    return failures, len(checks) + len(recs) + 1


def gate_accuracy(episodes, spec):
    """The run's final_acc (median over its episodes, whose seeds differ)
    against the expected value; a single episode's accuracy varies too much
    with its seed to be checked on its own. Returns a failure or None."""
    acc = spec["final_acc"]
    got = statistics.median(ep["final_acc"] for ep in episodes)
    if abs(got - acc["expected"]) > acc["tolerance"]:
        return (f"median final_acc {got:.4f} outside {acc['expected']} +- "
                f"{acc['tolerance']}")
    return None


def time_to_target(ep, target):
    """Seconds from the first round's start until the evaluation that first
    reports mean accuracy >= target has finished; None if never."""
    for r in ep["round_records"]:
        if r["accuracy"] >= target:
            return r["hook_enter"] - ep["init_end"]
    return None


# -- metrics -------------------------------------------------------------------


def round_times(ep):
    """Boundary-to-boundary round durations (body + eval + hook/checkpoint)."""
    prev = ep["init_end"]
    out = []
    for r in ep["round_records"]:
        out.append(r["boundary"] - prev)
        prev = r["boundary"]
    return out


def steal_free(ticks):
    """True when the host stole at most one clock tick (10 ms of one CPU)
    in the interval; -1 = not measurable here, taken as steal-free."""
    return ticks <= 1


def least_stolen(items, need):
    """Values of (value, steal ticks, seconds) items that the timing metrics
    use: every steal-free one, topped up with the least-stolen others (by
    ticks per second) to at least `need`. Stolen time is time the
    hypervisor ran another tenant on this machine's CPUs, so intervals that
    lost the least of it measure the program rather than the neighbours.
    Returns (values, steal-free count)."""
    free = [v for v, ticks, _ in items if steal_free(ticks)]
    stolen = sorted((ticks / max(secs, 1e-9), v)
                    for v, ticks, secs in items if not steal_free(ticks))
    return free + [v for _, v in stolen[:max(0, need - len(free))]], len(free)


def timed_rounds(episodes, need):
    """(durations, samples, note) of the least-stolen rounds (see
    least_stolen), at least `need` of them."""
    items = [((t, r["samples"]), r["steal_ticks"], t)
             for ep in episodes
             for t, r in zip(round_times(ep), ep["round_records"])]
    kept, free = least_stolen(items, need)
    note = (f"{len(kept)} least-stolen rounds of {len(items)} "
            f"({free} steal-free)")
    return [t for t, _ in kept], sum(n for _, n in kept), note


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))
    return s[int(rank) - 1]


def n_rounds(episodes):
    return sum(len(ep["round_records"]) for ep in episodes)


def setup_s(ep):
    return ep["synth_s"] + ep["store_s"] + ep["init_s"]


def time_to_target_steal(ep, target):
    """Steal ticks over the rounds time_to_target() spans (-1 = unknown)."""
    ticks = 0
    for r in ep["round_records"]:
        if r["steal_ticks"] < 0:
            return -1
        ticks += r["steal_ticks"]
        if r["accuracy"] >= target:
            break
    return ticks


def end_to_end(episodes, spec):
    p = spec["tail_percentile"]
    need = -(-10 * 100 // (100 - p))  # rounds for ten beyond the tail
    times, samples, note = timed_rounds(episodes, need)
    half = -(-len(episodes) // 2)
    target = spec["target_acc"]
    reached = [(ep, time_to_target(ep, target)) for ep in episodes]
    ttas, _ = least_stolen([(t, time_to_target_steal(ep, target), t)
                            for ep, t in reached if t is not None], half)
    setups, _ = least_stolen(
        [(setup_s(ep), ep["setup_steal_ticks"], setup_s(ep))
         for ep in episodes], half)
    metrics = {
        "round_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "round_ms.tail": (percentile(times, p) * 1e3, "ms"),
        "samples_per_s": (samples / sum(times), "samples/s"),
        # A run where no episode reaches the target is already failed by
        # the gate; its value is then the longest episode's round time.
        "time_to_acc_s": (statistics.median(ttas) if ttas else
                          max(sum(round_times(ep)) for ep in episodes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(ep["peak_rss_mb"]
                                          for ep in episodes), "MB"),
        "final_acc": (statistics.median(ep["final_acc"] for ep in episodes),
                      "fraction"),
        "upload_kb_per_client_round": (
            statistics.median(ep["upload_bytes_per_client_round"]
                              for ep in episodes) / 1e3, "KB"),
    }
    beyond = len(times) - -(-len(times) * p // 100)
    return metrics, f"p{p} of {note}, {beyond} beyond it"


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(traced, untraced):
    """Per-layer metrics from the traced episodes (means per round unless
    the name says otherwise)."""
    recs = [r for ep in traced for r in ep["round_records"]]
    ph = [r["phases"] for r in recs]
    kernels = any(p["conv_calls"] > 0 for p in ph)

    def ms(key):
        return mean(p[key] for p in ph) * 1e3

    local_train = ms("local_train_s")
    conv_fwd, conv_bwd = ms("conv_fwd_s"), ms("conv_bwd_s")
    optim, supcon = ms("optim_s"), ms("supcon_s")
    lane_time = sum(p["lanes"] * p["sweep_s"] for p in ph)
    touches = sum(r["selected"] + r["eval_clients"] for r in recs)
    materializations = sum(r["materializations"] for r in recs)
    traced_p50, untraced_p50 = (
        statistics.median(timed_rounds(eps, n_rounds(eps) // 2)[0])
        for eps in (traced, untraced))
    ckpt_kb = [ep.get("ckpt_last_file_bytes", 0) / 1e3 for ep in traced]
    m = {
        "fl.round_body.ms": (mean(r["body_s"] for r in recs) * 1e3, "ms"),
        "fl.eval.ms": (ms("eval_s"), "ms"),
        "fl.eval.gap_ms": (mean(r["hook_enter"] - r["body_start"] - r["body_s"]
                                for r in recs) * 1e3, "ms"),
        "fl.round_body.unattributed_ms": (ms("unattributed_s"), "ms"),
        "fl.local_train.ms": (local_train, "ms"),
        "fl.local_train.max_ms": (ms("local_train_max_s"), "ms"),
        "fl.executor.idle_share": (
            (lane_time - sum(p["local_train_s"] for p in ph)) / lane_time
            if lane_time > 0 else 0.0, "fraction"),
        "fl.serialize.ms": (ms("serialize_s"), "ms"),
        "fl.broadcast.ms": (ms("broadcast_s"), "ms"),
        "fl.aggregate.ms": (ms("aggregate_s"), "ms"),
        "nn.conv2d.fwd.ms": (conv_fwd, "ms"),
        "nn.conv2d.bwd.ms": (conv_bwd, "ms"),
        "nn.conv2d.calls": (mean(p["conv_calls"] for p in ph), "count/round"),
        "nn.optim.step.ms": (optim, "ms"),
        "autograd.supcon.ms": (supcon, "ms"),
        "nn.other.ms": (local_train - conv_fwd - conv_bwd - optim - supcon
                        if kernels else 0.0, "ms"),
        "comm.payload_kb_per_round": (
            mean(r["payload_bytes"] for r in recs) / 1e3, "KB"),
        "comm.messages_per_round": (mean(r["messages"] for r in recs),
                                    "count/round"),
        "comm.wire_kb_per_round": (mean(r["wire_bytes"] for r in recs) / 1e3,
                                   "KB"),
        "comm.retry_events": (sum(r["retry_events"] for r in recs), "count"),
        "comm.real_peer_faults": (sum(r["real_peer_faults"] for r in recs),
                                  "count"),
        "ckpt.save.ms": (mean(r["save_s"] for r in recs) * 1e3, "ms"),
        "ckpt.strategy_state.ms": (
            sum(ep["save_state_s"] for ep in traced) / len(recs) * 1e3, "ms"),
        "ckpt.file_kb": (statistics.median(ckpt_kb), "KB"),
        "client_store.materialize.ms": (
            mean(r["materialize_s"] for r in recs) * 1e3, "ms"),
        "client_store.bootstrap.ms": (
            sum(ep["bootstrap_s"] for ep in traced) / len(recs) * 1e3, "ms"),
        "client_store.materializations": (materializations / len(recs),
                                          "count/round"),
        "client_store.page_writes": (mean(r["page_writes"] for r in recs),
                                     "count/round"),
        "client_store.page_loads": (mean(r["page_loads"] for r in recs),
                                    "count/round"),
        "client_store.clean_drops": (mean(r["clean_drops"] for r in recs),
                                     "count/round"),
        "client_store.peak_resident": (max(r["peak_resident"] for r in recs),
                                       "count"),
        "client_store.hit_ratio": (1.0 - materializations / touches,
                                   "fraction"),
        "data.synth.ms": (mean(ep["synth_s"] for ep in traced) * 1e3, "ms"),
        "setup.store.ms": (mean(ep["store_s"] for ep in traced) * 1e3, "ms"),
        "setup.init.ms": (mean(ep["init_s"] for ep in traced) * 1e3, "ms"),
        "obs.trace_overhead": (traced_p50 / untraced_p50 - 1.0, "fraction"),
    }
    return m


# -- report --------------------------------------------------------------------


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def stamp(binary, workload, seed):
    scratch = os.path.join(build_dir(), "tmp")
    os.makedirs(scratch, exist_ok=True)
    out = os.path.join(scratch, f"stamp-{os.getpid()}.json")
    try:
        subprocess.run([binary, "stamp", "--out", out], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
        with open(out) as f:
            build_info = json.load(f)
    finally:
        if os.path.exists(out):
            os.remove(out)
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "flags": build_info["flags"].strip(),
        "build_type": build_info["build_type"],
        "commit": commit_sha(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_metrics(title, metrics):
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {fmt(value):>12} {unit}")


def print_phase_table(traced):
    """Round x phase table (ms, mean over traced episodes) with the part of
    each round no phase span covers shown as its own rows."""
    rounds = min(len(ep["round_records"]) for ep in traced)
    rows = [
        ("round (boundary)", None),
        ("  body", "body_s"),
        ("    serialize", "serialize_s"),
        ("    broadcast", "broadcast_s"),
        ("    local-train (wall)", "local_train_wall_s"),
        ("    aggregate", "aggregate_s"),
        ("    unattributed (body)", "unattributed_s"),
        ("  eval", "eval_s"),
        ("  ckpt after_round", "after_round"),
        ("  unattributed (round)", "rest"),
    ]
    rows += [("summed over clients:", ""),
             ("  local-train", "local_train_s")]
    if any(r["phases"]["conv_calls"] > 0
           for ep in traced for r in ep["round_records"]):
        rows += [("    conv2d fwd", "conv_fwd_s"),
                 ("    conv2d bwd", "conv_bwd_s"),
                 ("    optim step", "optim_s"),
                 ("    supcon", "supcon_s"),
                 ("    other", "other")]
    rows += [("  materialize (factory)", "materialize_s")]

    def value(ep, i, key):
        rec = ep["round_records"][i]
        p = rec["phases"]
        boundary = round_times(ep)[i]
        if key is None:
            return boundary
        if key == "after_round":
            return rec["save_s"]
        if key == "rest":
            return boundary - p["body_s"] - p["eval_s"] - rec["save_s"]
        if key == "other":
            return (p["local_train_s"] - p["conv_fwd_s"] - p["conv_bwd_s"] -
                    p["optim_s"] - p["supcon_s"])
        return p[key]

    print(f"round x phase (ms, mean of {len(traced)} traced episodes):")
    header = "  " + f"{'phase':<24}" + "".join(f"{i + 1:>8}"
                                               for i in range(rounds))
    print(header)
    for label, key in rows:
        cells = "" if key == "" else "".join(
            f"{mean(value(ep, i, key) for ep in traced) * 1e3:8.2f}"
            for i in range(rounds))
        print(f"  {label:<24}{cells}")


# -- main ----------------------------------------------------------------------


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux. Steal is
    time the hypervisor gave this VM's CPUs to someone else: the main source
    of run-to-run noise on shared hosts, so the report shows it."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def measure(binary, workload, seed, seconds, trace):
    """Runs episodes until `seconds` have passed (at least MIN_EPISODES,
    and with --trace 1 at least that many of each kind). Episode seeds are
    drawn from a generator seeded by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    start = time.monotonic()
    episodes, crashed, seeds = [], 0, []
    i = 0
    while True:
        traced = trace and i % 2 == 1
        ep_seed = rng.randrange(1, 2**31)
        seeds.append(ep_seed)
        ep = run_perfbench(binary, "episode", workload, ep_seed, traced)
        if ep is None:
            crashed += 1
        else:
            episodes.append(ep)
        i += 1
        elapsed = time.monotonic() - start
        floor = MIN_EPISODES * (2 if trace else 1)
        if i >= floor and elapsed * (i + 1) / i > seconds:
            break
        if i >= 2 * floor and crashed == i:
            break
    return episodes, crashed, seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        workloads = load_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; known: "
                             + ", ".join(workloads))
        spec = workloads[args.workload]
        binary = build()
        st = stamp(binary, args.workload, args.seed)
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ==")
    print("stamp: " + " ".join(f"{k}={json.dumps(v)}" for k, v in st.items()))
    ticks_before = cpu_ticks()
    episodes, crashed, seeds = measure(binary, args.workload, args.seed,
                                       args.seconds, args.trace == 1)
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = ((ticks_after[0] - ticks_before[0]) /
                 (ticks_after[1] - ticks_before[1]))
        print(f"host cpu steal during the run: {steal:.1%}")

    attempted, failed = crashed, crashed
    digests = []
    for ep in episodes:
        failures, checks = gate(ep, spec)
        selected = sum(r["selected"] for r in ep["round_records"])
        replays = ep["execute_round_calls"] - len(ep["round_records"])
        attempted += 1 + checks + selected + ep["rounds"]
        failed += (len(failures) + ep["missed_updates"] + ep["aborted_rounds"]
                   + replays)
        digests.append(f"{ep['seed']}:{ep['curve_digest']}")
        for f in failures:
            print(f"GATE FAIL seed {ep['seed']}: {f}")
    if episodes:
        attempted += 1
        acc_failure = gate_accuracy(episodes, spec)
        if acc_failure:
            failed += 1
            print(f"GATE FAIL: {acc_failure}")
    correct = failed == 0 and bool(episodes)
    print(f"episodes: {len(episodes)} ok, {crashed} crashed "
          f"(episode seeds {seeds[0]}..., {len(seeds)} drawn)")
    print("curve digests: " + " ".join(digests))
    print(f"gate: {'pass' if correct else 'FAIL'} "
          f"({failed} failed of {attempted} attempted operations)")

    untraced = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    if not untraced or (args.trace == 1 and not traced):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 0

    e2e, tail_note = end_to_end(untraced, spec)
    e2e_all = dict(e2e)
    e2e_all["failed_share"] = (failed / attempted if attempted else 0.0,
                               "fraction")
    print_metrics(f"end-to-end ({len(untraced)} untraced episodes; "
                  f"round_ms.tail = {tail_note}):", e2e_all)
    if args.trace == 1:
        layers = per_layer(traced, untraced)
        print_phase_table(traced)
        title = f"per-layer ({len(traced)} traced episodes"
        if layers["nn.conv2d.calls"][0] == 0:
            title += "; kernel spans are not traced on this workload"
        print_metrics(title + "):", layers)
        reported = layers
    else:
        reported = e2e
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
