#!/usr/bin/env python3
"""Build and run the kert-bn benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_ediamond|serve_wide|relearn_cycle \\
        --seed N --seconds S --trace 0|1

Builds `kertctl` and the benchmark (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
last line of stdout is the result object. Every process the run starts is
stopped before this script exits.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

# A run ends well inside the 180 s a caller allows it; the build before it
# is not counted.
BENCH_TIMEOUT_S = 170
WORK_DIR = ".perfbench-work"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision, or a digest of the built sources outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(top)
            if "target" not in d.split(os.sep)
            for f in files
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def stop_group(pgid):
    """SIGKILL what is left of the benchmark's process group and wait until
    it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile("perfbench/Cargo.toml")):
        fail("run from the root of a kert-bn checkout (Cargo.toml, crates/, perfbench/)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "kertctl"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    work = os.path.abspath(WORK_DIR)
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "kert-perfbench"), *sys.argv[1:],
        "--kertctl", os.path.join(target, "release", "kertctl"),
        "--work", work,
        "--rev", revision(),
    ]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    code = 3
    try:
        code = proc.wait(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {BENCH_TIMEOUT_S} s", file=sys.stderr)
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
