#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
the benchmark (Release) with the repository's libraries into
.bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result.  Extra arguments (--trace-out, --alter-result) pass through to
the perfbench binary; see perfbench/README.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git sha when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    parts = []
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            parts.append("git:" + sha.stdout.strip())
    parts.append("src:" + digest.hexdigest()[:16])
    return " ".join(parts)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def run(argv):
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    proc = subprocess.Popen([str(BUILD / "perfbench")] + argv, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    argv = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    if argv == ["--self-test"]:
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
