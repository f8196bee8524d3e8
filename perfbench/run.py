#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
builds the repository's libraries from source) into $CARGO_TARGET_DIR,
default .bench_build/, then runs the workload. Passes the program's
output through; its last line is the JSON result.

Besides the program's own output checks, this script keeps a ledger of
the exact counters (proof bytes, modmuls per proof, arrival counts)
under the build directory, keyed by the SHA-256 of the built binary and
by workload, seed and duration. It exits 1 when a later run of the same
binary with the same seed reports a different value for any of them;
a rebuilt program starts a ledger of its own, since a code change may
rightly change these counts. It also checks that the printed metrics are exactly the ones
BENCHMARK.json names for the mode.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("repository sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_ledger(build_dir, binary, args, exact):
    ledger_dir = os.path.join(build_dir, "ledger", file_sha256(binary)[:16])
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(
        ledger_dir, f"{args.workload}-seed{args.seed}-t{args.seconds}.json")
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    diffs = [f"{k}: {known[k]} then {v}" for k, v in exact.items()
             if k in known and known[k] != v]
    known.update(exact)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return diffs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    exact = {}
    for line in lines:
        if line.startswith("EXACT "):
            exact = json.loads(line[len("EXACT "):])
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        fail(f"no result line (exit {proc.returncode})")

    problems = []
    if proc.returncode != 0 or not result.get("correct"):
        problems.append(f"output checks failed (exit {proc.returncode})")
    want = expected_metrics(args.trace == "1")
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(want) & set(got)
                           if want[k] != got[k])
            problems.append(f"metric set differs from BENCHMARK.json: "
                            f"missing {missing}, extra {extra}, "
                            f"unit {wrong}")
    diffs = check_ledger(build_dir, binary, args, exact)
    if diffs:
        problems.append("exact counters differ from an earlier run of "
                        "this binary with this seed: " +
                        "; ".join(diffs[:8]))
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    if problems:
        fail("; ".join(problems))


if __name__ == "__main__":
    main()
