#!/usr/bin/env python3
"""Build and run the Zmail host-time benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zipf_mail --seed 1 --seconds 10 --trace 0

The script builds perfbench/main.exe with dune (inside the checkout's
own _build directory, with the shared dune cache off), runs it once,
checks that the metrics it reports are exactly the ones BENCHMARK.json
names for the requested --trace mode, and passes its output through.
The last line of standard output is the benchmark's JSON result.  Any
build failure, oracle failure, digest mismatch or metric mismatch exits
non-zero without printing a result.

    python3 perfbench/run.py --list-metrics   # name unit host|sim section layer
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 120


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, env, timeout, stdout):
    """Run [cmd] in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def build(env):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the root of a checkout of the repository (missing %s)" % needed, 3)
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
            env, BUILD_TIMEOUT_S, sys.stderr)
    except OSError as e:
        fail("build failed: %s" % e, 3)
    if code is None:
        fail("build exceeded %d s" % BUILD_TIMEOUT_S, 3)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % code, 3)


def seconds_arg(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--seconds":
            try:
                return float(argv[i + 1])
            except ValueError:
                fail("--seconds must be a number", 2)
    return 0.0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    argv = sys.argv[1:]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    if argv == ["--list-metrics"]:
        code, out = run_group([EXE] + argv, env, RUN_MARGIN_S, subprocess.PIPE)
        sys.stdout.write(out or "")
        sys.exit(1 if code is None else code)
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    timeout = seconds_arg(argv) + RUN_MARGIN_S
    code, out = run_group([EXE] + argv, env, timeout, subprocess.PIPE)
    if code is None:
        fail("benchmark exceeded %.0f s" % timeout)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited %d: %s" % (code, lines[-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units))
    if not result["correct"] or result["failed"] != 0:
        fail("benchmark reported incorrect output")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
