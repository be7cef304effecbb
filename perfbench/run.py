#!/usr/bin/env python3
"""Build odbsim's benchmark program from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--jobs J]

odbsim_perfbench is compiled in Release mode into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to stderr, so the
last line of stdout is the program's JSON result. Arguments are passed
through unchanged; the program rejects bad ones. See README.md here.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def revision():
    """Git revision of the checkout, or a digest of src/ outside git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure and build odbsim_perfbench; exit on failure."""
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--parallel", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = build_dir / "perfbench"
    build(build_dir)
    binary = str(build_dir / "odbsim_perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--golden-dir", str(HERE / "golden"),
                      "--rev", revision()] + sys.argv[1:])


if __name__ == "__main__":
    main()
