#!/usr/bin/env python3
"""Byte-compare two fca_cli builds across every algorithm and run mode.

Usage: tools/oracle_diff.py <parent fca_cli> <change fca_cli> [--keep DIR]

Runs every --algorithm the parent's `--help` lists, in three configurations:

  eager     eager init, inproc fabric, serial clients
  lazy      --lazy-init --max-resident-clients 3 --client-parallelism 2,
            pages under the run's own --page-dir
  faults    --drop-rate 0.2 --fault-seed 7

For each run it compares, between the two binaries:

  * the --save-curve CSV, byte for byte;
  * every checkpoint file retained in --checkpoint-dir, by name and byte
    for byte (runs set FCA_DETERMINISTIC_WALL=1 so the per-round wall time
    the checkpoint records is zero);
  * the --trace-out JSONL, line by line, after dropping only the wall-clock
    keys listed in WALL_CLOCK_KEYS (everything else in the logical trace,
    including sequence numbers and span values, must match).

It also fails a run that leaves a partially written file (a `.tmp` temp
file of the atomic writers) in its checkpoint or page directory.

A refactor that claims "same behaviour" must exit 0 here. Any mismatch, or a
run that fails on either side, prints the offending run and exits 1.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

# Trace keys that carry wall-clock time; the only fields ignored.
WALL_CLOCK_KEYS = ("ts_us", "dur_us")

# Small enough to finish in seconds per run, large enough that lazy mode
# pages clients (6 clients > 3 resident) and the prototype term switches on
# (warm-up is 2 rounds).
BASE_ARGS = ["--clients", "6", "--rounds", "5", "--train-per-class", "4",
             "--seed", "7"]

# PAGES stands for the run's own page directory.
PAGES = "{pages}"
CONFIGS = {
    "eager": [],
    "lazy": ["--lazy-init", "--max-resident-clients", "3",
             "--client-parallelism", "2", "--page-dir", PAGES],
    "faults": ["--drop-rate", "0.2", "--fault-seed", "7"],
}


def algorithms(cli):
    """Parses the --algorithm choices out of `cli --help`."""
    text = subprocess.run([cli, "--help"], capture_output=True, text=True,
                          check=False).stdout
    m = re.search(r"--algorithm NAME(.*?)\n\s+--", text, re.S)
    if m is None:
        sys.exit(f"cannot find --algorithm in {cli} --help")
    names = [n for n in re.split(r"[\s|]+", m.group(1)) if n]
    if not names:
        sys.exit(f"no algorithms listed by {cli} --help")
    return names


def run(cli, algorithm, extra, out_dir):
    os.makedirs(out_dir)
    extra = [os.path.join(out_dir, "pages") if a == PAGES else a
             for a in extra]
    cmd = [cli, "--algorithm", algorithm, *BASE_ARGS, *extra,
           "--save-curve", os.path.join(out_dir, "curve.csv"),
           "--checkpoint-dir", os.path.join(out_dir, "ckpt"),
           "--trace-out", os.path.join(out_dir, "trace.jsonl")]
    env = dict(os.environ, FCA_DETERMINISTIC_WALL="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          env=env)
    with open(os.path.join(out_dir, "log.txt"), "w") as f:
        f.write(" ".join(cmd) + "\n" + proc.stdout + proc.stderr)
    return proc.returncode


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def checkpoints(out_dir):
    """Every retained checkpoint of a run, as {file name: bytes}."""
    ckpt_dir = os.path.join(out_dir, "ckpt")
    files = sorted(f for f in os.listdir(ckpt_dir) if f.endswith(".fckpt"))
    if not files:
        raise FileNotFoundError(f"no checkpoint in {ckpt_dir}")
    return {f: read_bytes(os.path.join(ckpt_dir, f)) for f in files}


def leftover_temp_files(out_dir):
    """Temp files the atomic writers left in the checkpoint/page dirs."""
    found = []
    for sub in ("ckpt", "pages"):
        d = os.path.join(out_dir, sub)
        if os.path.isdir(d):
            found += [os.path.join(sub, f) for f in sorted(os.listdir(d))
                      if f.endswith(".tmp")]
    return found


def logical_trace(path):
    events = []
    with open(path) as f:
        for line in f:
            event = json.loads(line)
            for key in WALL_CLOCK_KEYS:
                event.pop(key, None)
            events.append(event)
    return events


def compare(parent_dir, change_dir):
    """Returns a list of mismatch descriptions (empty when identical)."""
    problems = []
    if read_bytes(os.path.join(parent_dir, "curve.csv")) != read_bytes(
            os.path.join(change_dir, "curve.csv")):
        problems.append("curve CSV differs")
    p_ckpts = checkpoints(parent_dir)
    c_ckpts = checkpoints(change_dir)
    if list(p_ckpts) != list(c_ckpts):
        problems.append(f"retained checkpoints {list(p_ckpts)} vs "
                        f"{list(c_ckpts)}")
    for name in sorted(p_ckpts.keys() & c_ckpts.keys()):
        if p_ckpts[name] != c_ckpts[name]:
            problems.append(f"checkpoint {name} differs")
    for side, d in (("parent", parent_dir), ("change", change_dir)):
        for f in leftover_temp_files(d):
            problems.append(f"{side} left {f} behind")
    p_trace = logical_trace(os.path.join(parent_dir, "trace.jsonl"))
    c_trace = logical_trace(os.path.join(change_dir, "trace.jsonl"))
    if len(p_trace) != len(c_trace):
        problems.append(
            f"trace has {len(p_trace)} vs {len(c_trace)} events")
    for i, (p, c) in enumerate(zip(p_trace, c_trace)):
        if p != c:
            problems.append(f"trace event {i} differs: {p} vs {c}")
            break
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_cli")
    ap.add_argument("change_cli")
    ap.add_argument("--keep", help="write run outputs here and keep them")
    args = ap.parse_args()

    names = algorithms(args.parent_cli)
    if algorithms(args.change_cli) != names:
        sys.exit("the two binaries accept different --algorithm lists")

    work = args.keep or tempfile.mkdtemp(prefix="oracle_diff_")
    failures = 0
    for algorithm in names:
        for config, extra in CONFIGS.items():
            label = f"{algorithm:20s} {config:7s}"
            dirs = {side: os.path.join(work, algorithm, config, side)
                    for side in ("parent", "change")}
            codes = {side: run(cli, algorithm, extra, dirs[side])
                     for side, cli in (("parent", args.parent_cli),
                                       ("change", args.change_cli))}
            if any(codes.values()):
                problems = [f"exit codes parent={codes['parent']} "
                            f"change={codes['change']} (see log.txt)"]
            else:
                problems = compare(dirs["parent"], dirs["change"])
            print(f"{label} {'MISMATCH' if problems else 'ok'}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    total = len(names) * len(CONFIGS)
    print(f"{total - failures}/{total} runs identical")
    if failures or args.keep:
        print(f"run outputs kept in {work}")
    else:
        shutil.rmtree(work)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
