#!/usr/bin/env python3
"""Build and run the XSPCL/Hinch benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <app_streams|tenant_mix|paper_sim>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first call configures and compiles perfbench/ (which builds the
libraries from src/) into .bench_build/perfbench; later calls reuse it.
Build output goes to stderr. The harness's last stdout line, one JSON
object with "correct", "attempted", "failed" and "metrics", is checked
and printed as this script's last line; the exit code is the harness's
(1 when any output differed from its reference). Traced runs write their
span timeline to .bench_out/<workload>.trace.json (tools/hinchtrace reads
it).

--self-check runs every workload briefly three ways: as is (must pass),
with a wrong expected checksum and with a wrong simulated-cycle golden
(each must fail), and reports whether the checks caught both.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
GOLDENS = os.path.join(HERE, "sim_goldens.txt")
WORKLOADS = ("app_streams", "tenant_mix", "paper_sim")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no XSPCL sources at {os.path.join(ROOT, 'src')}; run from a "
            "checkout of the repository")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {' '.join(cmd)} failed: {e}")
            return False
        if rc != 0:
            log(f"build step {' '.join(cmd)} exited {rc}")
            return False
    return os.path.isfile(BINARY)


def run_harness(workload, seed, seconds, trace, inject=None):
    """Returns (exit code, parsed result or None)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--goldens", GOLDENS,
           "--trace-out", os.path.join(OUT, f"{workload}.trace.json")]
    if inject:
        cmd += ["--inject", inject]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        log(f"{workload}: harness printed no result (exit {p.returncode})")
        return p.returncode or 1, None
    return p.returncode, result


def self_check():
    ok = True
    for workload in WORKLOADS:
        for inject in (None, "checksum", "golden"):
            rc, result = run_harness(workload, 7, 3, 0, inject)
            failed = result["failed"] if result else -1
            good = (rc == 0 and failed == 0) if inject is None else \
                (rc != 0 and failed > 0)
            ok = ok and good
            print(f"{workload:12s} inject={inject or 'none':8s} exit={rc} "
                  f"failed={failed}  {'ok' if good else 'WRONG'}")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None or
                                args.seconds is None or args.seconds <= 0):
        ap.error("--workload, --seed and --seconds are required")
    if not build():
        return 2
    if args.self_check:
        return self_check()
    rc, result = run_harness(args.workload, args.seed, args.seconds,
                             args.trace)
    if result is None:
        return rc or 1
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
