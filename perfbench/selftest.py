"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one round of every workload, requires its checks to pass, then seeds one
fault into the output and requires the checks to catch it: a flipped verdict
(a witness reported as a refusal and a refusal as a witness), a dropped corpus
report, and a theorem instance turned into a violation without the report's
totals saying so.  Also requires BENCHMARK.json to list exactly the metrics
the benchmark prints.  Exits 1 on the first fault that goes unnoticed.
"""

from __future__ import annotations

import json
import sys
import time
import types

import run
from tracer import PER_LAYER
from workloads import WORKLOADS, Round

END_TO_END = ["setup_s", "sweep_s", "verdicts_per_s", "verdict_p50_ms", "verdict_p99_ms",
              "peak_rss_mb"]


def flipped(v):
    """The same verdict object's fields with `satisfied` negated."""
    fields = {k: getattr(v, k) for k in ("group", "subgroup", "terms", "checks", "blocked")
              if hasattr(v, k)}
    return types.SimpleNamespace(**fields, satisfied=not v.satisfied)


def mutations(name: str, rnd: Round):
    """(label, mutated round) pairs for one workload's real output."""
    if name == "corpus":
        rc, text = rnd.output
        payload = json.loads(text)
        dropped = json.loads(text)
        dropped["reports"].pop(len(dropped["reports"]) // 2)
        yield "drop one corpus report", Round(rnd.ops, [], [], (rc, json.dumps(dropped)))
        violated = json.loads(text)
        for report in violated["reports"]:
            hits = [d for d in report["details"] if d.get("hypothesis") and d.get("conclusion")]
            if hits:
                hits[0]["conclusion"] = False
                break
        yield "inject one violation", Round(rnd.ops, [], [], (rc, json.dumps(violated)))
        assert payload["reports"], "corpus produced no reports"
        return
    for want in (True, False):
        i = next(i for i, v in enumerate(rnd.output) if v.satisfied == want)
        out = list(rnd.output)
        out[i] = flipped(out[i])
        label = "flip a witness to a refusal" if want else "flip a refusal to a witness"
        yield label, Round(rnd.ops, [], [], out)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != PER_LAYER:
        print("FAIL BENCHMARK.json per_layer differs from the traced metrics")
        return 1
    if [m["name"] for m in spec["end_to_end"]] != END_TO_END:
        print("FAIL BENCHMARK.json end_to_end differs from the printed metrics")
        return 1
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from the benchmark's")
        return 1

    sys.path.insert(0, str(run.ROOT / "src"))
    for name, cls in WORKLOADS.items():
        wl = cls(time.perf_counter)
        run.forget_gpi()
        state, rnd, *_ = run.one_round(wl, 1)
        problems = wl.check(state, rnd)
        if problems:
            print(f"FAIL {name}: the unmodified output fails its checks: {problems[:3]}")
            return 1
        for label, bad in mutations(name, rnd):
            caught = wl.check(state, bad)
            if not caught:
                print(f"FAIL {name}: '{label}' went unnoticed")
                return 1
            print(f"ok   {name}: '{label}' caught: {caught[0]}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
