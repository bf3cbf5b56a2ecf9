"""Record the class flags of every classification pool member.

    python3 perfbench/record_flags.py

Writes corpus_flags.txt: one hex digit per pool member in pool order, the
bits being convex, exact, totally balanced and balanced (high to low).  The
flags are mathematical facts about fixed inputs, so the classify_corpus
workload checks every item against this file.  Rerun only when the pool in
inputs.py changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from capax import Capacity, GroundSet, classify_full, verify_report  # noqa: E402
from workloads import FLAGS_FILE, flag_code  # noqa: E402


def main() -> int:
    codes = []
    for index in range(inputs.POOL_SIZE):
        n, table = inputs.pool_member(index)
        nu = Capacity(GroundSet(n), table)
        report = classify_full(nu)
        if not verify_report(nu, report):
            print(f"pool member {index}: report fails verification", file=sys.stderr)
            return 1
        codes.append(flag_code(report))
    text = "".join(codes)
    FLAGS_FILE.write_text("\n".join(text[i:i + 100] for i in range(0, len(text), 100)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
