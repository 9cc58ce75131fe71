#!/usr/bin/env python3
"""Build perfbench from this checkout's sources, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the first run configures and builds it,
later runs only bring it up to date. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Traces and the compile
service's scratch directories go under the build directory's out/.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: '{' '.join(cmd)}' failed with code {done.returncode}")


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no program sources at {ROOT / 'src'}; nothing to build")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs])
    out = build / "out"
    out.mkdir(exist_ok=True)
    binary = str(build / "perfbench")
    # A relative --out-dir keeps the compile service's socket path short.
    args = sys.argv[1:] + ["--out-dir", os.path.relpath(out)]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
