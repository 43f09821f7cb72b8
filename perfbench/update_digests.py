"""Regenerate perfbench/digests.json, the reference verdict digests.

    python3 perfbench/update_digests.py

Runs one round of each workload and stores the sha256 of its sorted verdict
(or report) JSON.  A run prints its own digest and whether it matches the
reference; a change that must keep every verdict bit-identical shows
`reference match` on every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import DIGESTS, ROOT
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        found = [line.split()[2] for line in proc.stdout.splitlines()
                 if line.startswith(f"digest {name} ")]
        if proc.returncode != 0 or len(found) != 1:
            print(f"{name}: run failed (exit {proc.returncode}); digests left unchanged")
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        digests[name] = found[0]
        print(f"{name} {found[0]}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
