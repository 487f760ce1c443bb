#!/usr/bin/env python3
"""Run the full symbolic verification battery and write certificates.

Produces one certificate per scope under certificates/ (created next to
the working directory), plus a combined summary on stdout.
"""

import json
import pathlib
import sys

from braidwork.cli import SCOPES, main

OUT_DIR = pathlib.Path("certificates")


def run() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    worst = 0
    for scope in SCOPES:
        out = OUT_DIR / f"verify-{scope}.json"
        code = main(["verify", scope, "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        print(f"{scope:12s} {data['summary']}  sha256={data['body_sha256'][:16]}…")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
