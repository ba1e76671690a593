#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --generate-goldens

The first call configures and builds perfbench/ (the libraries under src/
plus the pf_perfbench program) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Build
output goes to stderr so that the benchmark's last stdout line stays its
JSON result. Run-time state (server socket and store, trace files) lives in
.bench_work/. Both directories are inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens" / "goldens.txt"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def child_env():
    """The environment for the build and the benchmark: temporary files stay
    in the checkout, and the libraries' fault-injection switches are off."""
    env = dict(os.environ)
    for name in ("PF_CAMPAIGN_FAULTS", "PF_SERVICE_FAULTS"):
        env.pop(name, None)
    tmp = Path(".bench_work").resolve() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, env=child_env(),
                              **kwargs).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 124


def build():
    """Configure (once) and build pf_perfbench; returns the binary path."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {REPO_ROOT / 'src'}; nothing to build")
        return None
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
        if home not in cache.read_text(errors="replace").splitlines():
            log(f"{build_dir} was configured for another source tree; "
                "remove it or point CARGO_TARGET_DIR elsewhere")
            return None
    if not cache.is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(build_dir), "--target", "pf_perfbench",
           "-j", jobs]
    if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        return None
    binary = build_dir / "pf_perfbench"
    return binary if binary.is_file() else None


def source_digest():
    """SHA-256 over every file under src/ and perfbench/ (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO_ROOT)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (REPO_ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def work_dir(name):
    path = Path(".bench_work").resolve() / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_bench(binary, workload, seed, seconds, trace, extra=(), capture=False):
    """Run one benchmark invocation; returns (exit code, stdout or None)."""
    cwd = work_dir(workload)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--goldens", str(GOLDENS),
           "--source-digest", source_digest(), "--git-commit", git_commit()]
    if trace:
        cmd += ["--trace-out", str(cwd / f"trace-seed{seed}.json")]
    cmd += list(extra)
    if not capture:
        return run_checked(cmd, RUN_TIMEOUT_S, cwd=cwd), None
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        return 124, ""
    return out.returncode, out.stdout


def selftest(binary):
    """Smoke every workload, then show each mutation is counted as failed."""

    def result_of(stdout):
        lines = [l for l in stdout.splitlines() if l.strip()]
        return json.loads(lines[-1]) if lines else None

    ok = True
    default_seed = 0x5EA12C4
    # The held-out seed switches march's search gate from golden equality
    # to the scalar oracle plus "no longer than greedy".
    checks = [("table1", 0, default_seed), ("region_maps", 0, default_seed),
              ("march", 0, default_seed), ("served", 0, default_seed),
              ("march", 0, 7), ("table1", 1, default_seed)]
    for workload, trace, seed in checks:
        code, out = run_bench(binary, workload, seed, 0.1, trace,
                              ("--smoke",), capture=True)
        res = result_of(out)
        good = code == 0 and res is not None and res["failed"] == 0
        label = f"smoke {workload} trace={trace} seed={seed}"
        print(f"{'PASS' if good else 'FAIL'} {label}: exit {code}, "
              f"{res and res['failed']} failed of {res and res['attempted']}")
        ok = ok and good
    for workload, mutation in (("table1", "report"), ("march", "search"),
                               ("served", "reply")):
        code, out = run_bench(binary, workload, default_seed, 0.1, 0,
                              ("--smoke", "--mutate", mutation), capture=True)
        res = result_of(out)
        caught = code == 1 and res is not None and res["failed"] >= 1
        print(f"{'PASS' if caught else 'FAIL'} mutation {mutation} on "
              f"{workload}: exit {code}, {res and res['failed']} failed")
        ok = ok and caught
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["table1", "region_maps", "march", "served",
                                 "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--generate-goldens", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.generate_goldens:
        return run_checked([str(binary), "--generate-goldens", str(GOLDENS)],
                           900, cwd=work_dir("goldens"))
    if args.selftest:
        return selftest(binary)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run_bench(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
