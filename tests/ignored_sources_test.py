#!/usr/bin/env python3
"""Fails when .gitignore hides a file under a source directory.

An ignored source still builds in the tree that has it, but no commit
carries it, so a clean checkout breaks (a bare "core" rule once hid
src/core/). Lists what `git ls-files -o -i --exclude-standard` finds under
the source directories; exits 77 (skipped) outside a git checkout.

    python3 tests/ignored_sources_test.py [REPO_ROOT]
"""

import os
import subprocess
import sys

SOURCE_DIRS = ["src", "bench", "examples", "tests", "tools"]
SKIP = 77


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    try:
        inside = subprocess.run(
            ["git", "-C", root, "rev-parse", "--is-inside-work-tree"],
            capture_output=True, text=True)
    except OSError:
        print("git not available; skipping")
        return SKIP
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        print("not a git checkout; skipping")
        return SKIP
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-o", "-i", "--exclude-standard",
         "--"] + SOURCE_DIRS,
        capture_output=True, text=True, check=True).stdout.split()
    if listed:
        print("ignored files under source directories (fix .gitignore):")
        for path in listed:
            print("  " + path)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
