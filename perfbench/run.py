#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the program's libraries
are compiled (Release, the repository's flags) into .bench_build/perfbench
under the checkout; later runs only relink what changed. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits nonzero, printing no result, if the build fails (for
example when the program's sources are not beside this directory).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, env):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", "4"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    work = os.path.join(ROOT, ".bench_build")
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build_dir = os.path.join(work, "perfbench")
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
