#!/usr/bin/env python3
"""Byte identity of the experiment tables against tests/golden/.

Every `eN.csv` next to this script names an experiment. One
`radio_bench run EN ... --quick --trials 2 --seed 7 --csv TMP` writes them
all again; each must match its golden file byte for byte, and a mismatch
prints a unified diff (golden first).

Usage: check_golden.py RADIO_BENCH
"""

from __future__ import annotations

import difflib
import pathlib
import subprocess
import sys
import tempfile


def main(radio_bench: str, golden_dir: pathlib.Path) -> int:
    goldens = sorted(golden_dir.glob("e*.csv"),
                     key=lambda path: int(path.stem[1:]))
    if not goldens:
        print(f"FAIL: no e*.csv in {golden_dir}")
        return 1
    ids = [path.stem.upper() for path in goldens]
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [radio_bench, "run", *ids, "--quick", "--trials", "2", "--seed",
             "7", "--csv", tmp],
            check=True, stdout=subprocess.DEVNULL)
        failures = 0
        for golden in goldens:
            written = pathlib.Path(tmp) / golden.name
            expected = golden.read_bytes()
            actual = written.read_bytes() if written.exists() else b""
            if actual == expected:
                continue
            failures += 1
            # Decoded for the printout only: the comparison above is on bytes,
            # so a changed line ending fails too.
            sys.stdout.writelines(difflib.unified_diff(
                expected.decode(errors="replace").splitlines(keepends=True),
                actual.decode(errors="replace").splitlines(keepends=True),
                fromfile=str(golden), tofile=str(written)))
            print(f"FAIL: {golden.name} differs from {golden}")
    if failures:
        return 1
    print(f"ok: {', '.join(ids)} match {golden_dir}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], pathlib.Path(__file__).resolve().parent))
