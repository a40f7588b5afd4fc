#!/usr/bin/env python3
"""Entry point of the RoboShape repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload design_cold --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --selftest

Builds the benchmark package (perfbench/CMakeLists.txt) from the sources of
the checkout it sits in, runs the workload in a child process, passes its
output through, and prints as the last line the result object that
BENCHMARK.json defines: the metrics it lists, in its units.

With --trace 1 it runs the traced pass of every workload, the named one
first.  Each per-layer metric is named after the workload whose ops run
its layer ("ilqr_stream.accel.run_us") and is read from that workload's
pass only, so every per-layer value is measured, none made up.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the checkout root.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_cold", "ilqr_stream", "mpc_batch")
# A run measures --seconds, then checks its outputs; the whole run, all
# its child processes together, must end well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, targets):
    """Configures once, then (re)builds the named targets."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no RoboShape sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"))
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (full log: %s)" % log_path, 1)


def run(cmd, capture, deadline):
    """Runs cmd in its own process group; kills the group if it is still
    running at the monotonic time deadline.  Returns (exit status,
    captured stdout or None)."""
    env = dict(os.environ)
    # The executor runs one lane unless the caller asks otherwise: on a
    # shared host its park/unpark cycles make the hypervisor withhold CPU
    # and the spread between runs triples (README.md, "Steadiness").  The
    # traced passes still measure the executor at full width.
    env.setdefault("ROBOSHAPE_THREADS", "1")
    proc = subprocess.Popen(cmd, start_new_session=True, env=env,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise


def result_line(docs, workload, trace):
    """The BENCHMARK.json result object from the result documents of one
    run's passes, keyed by workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    metrics = {}
    for spec in contract["per_layer" if trace else "end_to_end"]:
        source, name = workload, spec["name"]
        if trace:
            source, _, name = name.partition(".")
        got = docs[source]["metrics"].get(name) if source in docs else None
        if got is None:
            fail("%s was not measured" % spec["name"], 1)
        if got["unit"] != spec["unit"]:
            fail("%s measured in %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]), 1)
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    attempted = sum(doc["attempted"] for doc in docs.values())
    failed = sum(doc["failed"] for doc in docs.values())
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    if args.selftest:
        build(out, ["perfbench_selftest"])
        sys.exit(run([os.path.join(out, "perfbench_selftest")], False,
                     time.monotonic() + RUN_TIMEOUT_S)[0])
    if args.workload is None:
        fail("--workload is required")

    build(out, ["roboshape_perfbench"])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = os.path.join(out, "perfbench-out")
    os.makedirs(results, exist_ok=True)
    passes = [args.workload]
    if args.trace:
        passes += [w for w in WORKLOADS if w != args.workload]
    docs = {}
    for workload in passes:
        status, stdout = run([
            os.path.join(out, "roboshape_perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out-dir", results,
        ], True, deadline)
        sys.stdout.write(stdout)
        if status != 0:
            sys.exit(status)
        docs[workload] = json.loads(stdout.strip().splitlines()[-1])
    print(json.dumps(result_line(docs, args.workload, bool(args.trace))))


if __name__ == "__main__":
    main()
