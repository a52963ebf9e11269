#!/usr/bin/env python3
"""Compare the reports of two `amalgam sweep --out` directories.

    python scripts/compare_reports.py OLD NEW

Prints one line per scenario: `identical` when its report .json and .csv
are byte-equal in both directories, else the old and new empirical
constant, the relative move (new - old) / |old|, both verdicts and the
largest relative move |new - old| / |old| over the rows' lhs, rhs_core
and ratio, which tells a rounding drift from a real move (`n/a` when
the row counts differ or a moved value is 0 or not finite).  A
scenario with a report on one side only is listed as such.  A last line
counts them: `N identical, N moved, N verdict changes, N one-sided`.
Exits 1 if any verdict changed (a one-sided report counts as a change),
else 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SUMMARY = "sweep_summary.json"
ROW_FIELDS = ("lhs", "rhs_core", "ratio")


def _stems(d: Path) -> set[str]:
    return {p.stem for p in d.glob("*.json") if p.name != SUMMARY}


def _same_bytes(old: Path, new: Path, stem: str) -> bool:
    return all((old / f"{stem}{ext}").read_bytes() == (new / f"{stem}{ext}").read_bytes()
               for ext in (".json", ".csv"))


def _move(a: float, b: float) -> str:
    if a == b:
        return "0"
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return "n/a"
    return f"{(b - a) / abs(a):+.2e}"


def _rows_move(a: list, b: list) -> str:
    if len(a) != len(b):
        return "n/a"
    worst = 0.0
    for ra, rb in zip(a, b):
        for key in ROW_FIELDS:
            x, y = ra[key], rb[key]
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if x == 0.0 or not (math.isfinite(x) and math.isfinite(y)):
                return "n/a"
            worst = max(worst, abs(y - x) / abs(x))
    return f"{worst:.2e}" if worst else "0"


def compare(old: Path, new: Path, out=sys.stdout) -> int:
    old_stems, new_stems = _stems(old), _stems(new)
    identical = moved = verdicts = one_sided = 0
    for stem in sorted(old_stems | new_stems):
        if stem not in new_stems or stem not in old_stems:
            side = "OLD" if stem in old_stems else "NEW"
            print(f"{stem}  only in {side}", file=out)
            one_sided += 1
            continue
        if _same_bytes(old, new, stem):
            print(f"{stem}  identical", file=out)
            identical += 1
            continue
        a = json.loads((old / f"{stem}.json").read_text())
        b = json.loads((new / f"{stem}.json").read_text())
        ca, cb = a["empirical_constant"], b["empirical_constant"]
        print(f"{stem}  {ca!r} -> {cb!r}  ({_move(ca, cb)})  "
              f"{a['verdict']} -> {b['verdict']}  "
              f"rows {_rows_move(a['rows'], b['rows'])}", file=out)
        moved += 1
        verdicts += a["verdict"] != b["verdict"]
    print(f"{identical} identical, {moved} moved, {verdicts} verdict changes, "
          f"{one_sided} one-sided", file=out)
    return 1 if verdicts or one_sided else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
