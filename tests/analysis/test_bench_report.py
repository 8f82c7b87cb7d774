#!/usr/bin/env python3
"""scripts/bench_report.py --check on real radio_bench output.

Runs `radio_bench run E15 --quick --trials 2 --out DIR`; --check must accept
DIR and reject copies whose metrics.jsonl has a truncated line, a repeated
key, or a missing summary line.

Usage: test_bench_report.py RADIO_BENCH BENCH_REPORT
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile


def check(report: str, out_dir: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, report, "--check", str(out_dir), "--expect", "E15"],
        capture_output=True, text=True)


def damaged_copy(run: pathlib.Path, name: str, edit) -> pathlib.Path:
    """A copy of the run directory with metrics.jsonl's lines edited."""
    copy = run.parent / name
    shutil.copytree(run, copy)
    metrics = copy / "metrics.jsonl"
    lines = metrics.read_text().splitlines()
    metrics.write_text("".join(line + "\n" for line in edit(lines)))
    return copy


def main(radio_bench: str, report: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run = pathlib.Path(tmp) / "run"
        subprocess.run(
            [radio_bench, "run", "E15", "--quick", "--trials", "2", "--out",
             str(run)],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        result = check(report, run)
        if result.returncode != 0:
            print(f"FAIL: --check rejected real output\n{result.stderr}")
            return 1

        damaged = {
            "truncated line":
                lambda lines: [lines[0][: len(lines[0]) // 2]] + lines[1:],
            "repeated key": lambda lines: [
                lines[0].replace('"row":0,', '"row":0,"row":0,', 1)
            ] + lines[1:],
            "missing summary line": lambda lines: lines[:-1],
        }
        failures = 0
        for name, edit in damaged.items():
            copy = damaged_copy(run, name.replace(" ", "_"), edit)
            result = check(report, copy)
            if result.returncode == 0:
                print(f"FAIL: --check accepted a metrics.jsonl with a {name}")
                failures += 1
            else:
                print(f"ok: {name} rejected: {result.stderr.strip()}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
