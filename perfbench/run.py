#!/usr/bin/env python3
"""Repository benchmark for the ELISA simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kvs-gate --seed 1 --seconds 10 --trace 0

Builds the simulator libraries from ./src and the benchmark program from
perfbench/cc (CMake, Release) into .bench_build/perfbench, derives the
workload's inputs from --seed, self-tests the workload's oracles at a
tiny size, then runs the workload for about --seconds host seconds. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics from the benchmark's spans with --trace 1.

The C++ program never sees the seed: this script turns it into op streams
and sizes and writes them to one input file (format in cc/inputs.hh).
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import random
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kvs-gate", "net-rx-observed", "scale-pings", "overcommit-touch")

# Host seconds a run may take before it is stopped (the contract's
# limit is 180 s per run).
RUN_TIMEOUT_S = 170

# Host seconds of one repetition (set-up, window, probes, oracles) on
# a 4-vCPU x86-64 KVM guest. A run makes --seconds / REP_SECONDS
# repetitions, a number fixed by the workload and --seconds alone, so
# that statistics taken over repetitions do not shift when the program
# gets faster.
REP_SECONDS = {
    "kvs-gate": 2.0,
    "net-rx-observed": 1.8,
    "scale-pings": 4.5,
    "overcommit-touch": 1.8,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- inputs -----------------------------------------------------------

def zipf_sampler(rng, n, skew):
    """Return f(k): k zipf(skew) ranks over n items, spread by a seeded
    permutation so hot items are not neighbours."""
    cum, total = [], 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** skew
        cum.append(total)
    perm = list(range(n))
    rng.shuffle(perm)
    population = range(n)

    def sample(k):
        return [perm[r] for r in rng.choices(population, cum_weights=cum, k=k)]

    return sample


def kvs_gate(rng, tiny):
    clients = 2 if tiny else 4
    keys = 2048 if tiny else 32768
    params = {
        "ram_mib": 256 if tiny else 1536,
        "clients": clients,
        "key_space": keys,
        # 8 buckets per 4 KiB page: 8192 pages, 8x the 1024-entry TLB.
        "buckets": 4096 if tiny else 65536,
        "threads": 1,
        "slices": 8 if tiny else 1000,
        "slice_ns": 100_000 if tiny else 250_000,
    }
    zipf = zipf_sampler(rng, keys, 0.99)
    length = 4096 if tiny else 1 << 17
    streams = {}
    for c in range(clients):
        ids = zipf(length)
        streams["ops.%d" % c] = [
            k | (1 << 31) if rng.random() < 0.10 else k for k in ids]
    return params, streams


def net_rx(rng, tiny):
    params = {
        "ram_mib": 512 if tiny else 768,
        "sample_period_ns": 50_000 if tiny else 200_000,
        "slot_bytes": 128 * 1024,
        "threads": 1,
        "slices": 8 if tiny else 1000,
        "slice_ns": 50_000 if tiny else 200_000,
    }
    length = 4096 if tiny else 1 << 16
    streams = {}
    # The two receivers alternate out of step, so every slice moves
    # about the same bytes; the seed varies the payloads.
    for phase, path in enumerate(("elisa", "vmcall")):
        streams["frames." + path] = [
            (64 if (i + phase) % 2 == 0 else 1472) | rng.randrange(256) << 16
            for i in range(length)]
    return params, streams


def scale_pings(rng, tiny):
    machines = 2 if tiny else 8
    vms = 4 if tiny else 128
    params = {
        "machines": machines,
        "vms_per": vms,
        "threads": 2 if tiny else 4,
        "slices": 8 if tiny else 1000,
        "slice_ns": 100_000 if tiny else 20_000,
    }
    peers = []
    for m in range(machines):
        others = [p for p in range(machines) if p != m]
        for _ in range(vms * 16):
            peers.append(rng.choice(others))
    return params, {"peers": peers}


def overcommit_touch(rng, tiny):
    pages = 32 if tiny else 256
    params = {
        "ram_mib": 256 if tiny else 512,
        "object_pages": pages,
        # 2.0x overcommit: half the object may be resident.
        "resident_frames": pages // 2,
        "swap_slots": pages * 2,
        "threads": 1,
        "slices": 8 if tiny else 1000,
        "slice_ns": 100_000 if tiny else 450_000,
    }
    zipf = zipf_sampler(rng, pages, 0.99)
    length = 4096 if tiny else 1 << 17
    streams = {}
    for who in ("gate", "map"):
        streams["touch." + who] = [
            p | rng.randrange(512) << 16 | ((1 << 31) if rng.random() < 0.30 else 0)
            for p in zipf(length)]
    return params, streams


GENERATORS = {
    "kvs-gate": kvs_gate,
    "net-rx-observed": net_rx,
    "scale-pings": scale_pings,
    "overcommit-touch": overcommit_touch,
}


def write_inputs(path, params, streams):
    out = [b"EPB1", struct.pack("<I", len(params))]
    for name, value in sorted(params.items()):
        key = name.encode()
        out.append(struct.pack("<I", len(key)) + key + struct.pack("<Q", value))
    out.append(struct.pack("<I", len(streams)))
    for name, values in sorted(streams.items()):
        key = name.encode()
        out.append(struct.pack("<I", len(key)) + key +
                   struct.pack("<Q", len(values)))
        out.append(struct.pack("<%dI" % len(values), *values))
    with open(path, "wb") as f:
        f.write(b"".join(out))


def make_inputs(workload, seed, tiny, directory):
    # One stream of randomness per (workload, seed, size).
    rng = random.Random("%s/%d/%s" % (workload, seed, "tiny" if tiny else "full"))
    params, streams = GENERATORS[workload](rng, tiny)
    # One file per workload and size, overwritten by the next run.
    path = os.path.join(directory, "%s%s.bin" %
                        (workload, "-tiny" if tiny else ""))
    write_inputs(path, params, streams)
    return path


# ---- build and run ----------------------------------------------------

def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at %s/src" % ROOT)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    scratch = os.path.join(build_dir, "runs")
    os.makedirs(scratch, exist_ok=True)
    full = make_inputs(args.workload, args.seed, False, scratch)
    tiny = make_inputs(args.workload, args.seed, True, scratch)
    reps = max(4, round(args.seconds / REP_SECONDS[args.workload]))
    cmd = [binary, "--workload", args.workload, "--inputs", full,
           "--selftest-inputs", tiny, "--reps", str(reps),
           "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log("perfbench: benchmark program exited with %d" % result.returncode)
        return 4
    try:
        report = json.loads(lines[-1])
    except ValueError:
        report = None
    if not isinstance(report, dict) or set(report) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(result.stdout)
        log("perfbench: benchmark program printed no result line")
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
