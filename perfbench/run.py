#!/usr/bin/env python3
"""Builds and runs the dagmap end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload suite_warm --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

A run builds perfbench/ (and the dagmap sources it compiles) into the
build directory, which is $CARGO_TARGET_DIR when set and .bench_build
otherwise, then runs one workload and passes its report through.  The
last line of standard output is the result object.  --selftest runs
the smoke test and the cross-check against dagmap_cli instead.
"""
import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["suite_warm", "suite_best", "big_subject"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures once and builds `targets`; build output goes to stderr."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    out = os.path.join(bdir, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    return bdir, out


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def source_digest():
    """Hash of the sources the benchmark compiles, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def run_bench(bdir, out, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, result object or None)."""
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out,
           "--git-sha", git_sha(), "--source-digest", source_digest(), *extra]
    # Own process group, so a timeout also stops its set-up processes.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if p.returncode != 0 or not lines:
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except ValueError:
        return lines, None


def benchmark_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def rows_of(lines):
    """Per-circuit rows as {circuit: (delay text, area text)}."""
    rows = {}
    for line in lines:
        m = re.match(r"row (\S+)\s+delay (\S+) area (\S+)", line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3))
    return rows


def cli_mapping(bdir, flags, blif):
    """(delay, area) text as dagmap_cli prints them, or None on failure."""
    cli = subprocess.run([os.path.join(bdir, "dagmap_cli"), *flags, blif],
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    m = re.search(r"mapping: delay (\S+), area (\S+),", cli.stdout)
    return m.groups() if cli.returncode == 0 and m else None


def selftest():
    """Smoke test of every workload, then the dagmap_cli cross-check."""
    bdir, out = build(["perfbench", "dagmap_cli"])
    e2e, layers = benchmark_names()
    problems = []
    for w in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            lines, res = run_bench(bdir, out, w, 1, 1, trace,
                                   ("--jobs", "4", "--setups", "2"))
            tag = "%s trace=%d" % (w, trace)
            found = []
            if res is None:
                found.append("no result\n" + "\n".join(lines[-20:]))
            else:
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    found.append("wrong result keys")
                if not res["correct"] or res["failed"]:
                    found.append("jobs failed")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    found.append("metrics/units differ from BENCHMARK.json: %s"
                                 % sorted(set(got.items()) ^ set(want.items())))
                cov = res["metrics"].get("trace.coverage", {}).get("value", 0)
                if trace and cov < 0.95:
                    found.append("spans cover %.3f of job time" % cov)
            log("smoke %-22s %s" % (tag, "ok" if not found else "FAIL"))
            problems += ["%s: %s" % (tag, f) for f in found]
            if trace or w == "big_subject" or res is None:
                continue
            # The same circuit, library and flags through dagmap_cli.
            # suite_best maps with the compiled .dmlc artifact, so the CLI
            # loads it too; the GENLIB-parsed library is printed alongside.
            flags = ["--lib44", "3"]
            if w == "suite_best":
                flags = ["--load-lib", os.path.join(out, "44-3.dmlc"),
                         "--backend", "cuts", "--choices"]
            cdir = os.path.join(out, "circuits")
            os.makedirs(cdir, exist_ok=True)
            for name, row in rows_of(lines).items():
                blif = os.path.join(cdir, name + ".blif")
                subprocess.run([os.path.join(bdir, "perfbench"),
                                "--write-circuit", name, blif], check=True)
                cli = cli_mapping(bdir, flags, blif)
                note = ""
                if w == "suite_best":
                    parsed = cli_mapping(bdir, ["--lib44", "3", "--backend",
                                                "cuts", "--choices"], blif)
                    if parsed != cli:
                        note = "  (GENLIB-parsed library: %s)" % (
                            "%s/%s" % parsed if parsed else "failed")
                log("cli   %-12s %-12s bench %s/%s dagmap_cli %s%s" % (
                    w, name, row[0], row[1],
                    "%s/%s" % cli if cli else "failed", note))
                if cli != row:
                    problems.append("%s %s: bench %s/%s, dagmap_cli %s" % (
                        w, name, row[0], row[1], cli))
    for p in problems:
        log("FAIL " + p)
    log("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    try:
        if a.selftest:
            return selftest()
        if a.workload is None:
            ap.error("--workload is required")
        bdir, out = build(["perfbench"])
        lines, res = run_bench(bdir, out, a.workload, a.seed, a.seconds, a.trace)
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    if res is None:
        log("\n".join(lines[-20:]))
        log("perfbench: the run produced no result")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
