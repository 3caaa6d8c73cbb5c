"""Run the grep gates of ``.github/grep-gates.tsv`` from the repo root.

Each row is one ``git grep -n <flags> -e <pattern> -- <pathspecs>``;
the number of lines it prints must be the row's allowed hits ("0", an
exact count, or "N+" for at least N).  Prints every row's verdict, the
offending lines and the reason of every row that fails, and exits 1 if
any row fails.

    python3 .github/grep_gates.py [TABLE]
"""

import csv
import subprocess
import sys
from pathlib import Path


def hits(flags: str, pattern: str, paths: str) -> list[str]:
    grep = ["git", "grep", "-n", flags, "-e", pattern, "--", *paths.split()]
    return subprocess.run(grep, capture_output=True, text=True).stdout.splitlines()


def allowed(spec: str, count: int) -> bool:
    if spec.endswith("+"):
        return count >= int(spec[:-1])
    return count == int(spec)


def main(table: Path) -> int:
    lines = [line for line in table.read_text().splitlines() if not line.startswith("#")]
    failed = set()
    for row in csv.DictReader(lines, delimiter="\t", quoting=csv.QUOTE_NONE):
        found = hits(row["flags"], row["pattern"], row["paths"])
        ok = allowed(row["hits"], len(found))
        print(f"{'ok  ' if ok else 'FAIL'} {row['gate']}: {len(found)} hit(s), "
              f"allowed {row['hits']}: {row['flags']} {row['pattern']} -- {row['paths']}")
        if not ok:
            failed.add(row["gate"])
            print("\n".join(f"    {line}" for line in found))
            print(f"    {row['reason']}")
    if failed:
        print(f"failed gates: {', '.join(sorted(failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else ".github/grep-gates.tsv")))
