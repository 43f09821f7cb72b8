"""Command line front end.

Four subcommands: `info` summarises one group, `check` decides the
chief-series property for chosen subgroups, `theorem` runs one theorem
checker over one group, and `corpus` sweeps every checker over the
built-in catalogue.  Exit codes: 0 success, 1 a refusal or theorem
violation was found, 2 usage or resource errors, or an output pipe
closed by its reader, 3 an internal error (any other exception, reported
on one line without a traceback).

Groups are given either as a catalogue name (`S4`) or as a JSON object:
{"type": "catalog", "name": ...}, {"type": "perm", "degree": n,
"generators": [cycle lists]}, or {"type": "semidirect", "normal": ...,
"quotient": ..., "action": [cycle lists]}.  Subgroups are given as a
JSON list of generators (element ids, or cycle lists for permutation
groups) or as one of the named families `family:sylow`, `family:2min`,
`family:2max`, `family:cyc4`, all relative to the Sylow p-subgroup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .arith import is_prime, prime_set
from .catalog import corpus_names, from_description, group_names
from . import groups
from .groups import FiniteGroup, LimitExceeded, PermGroup, Subgroup
from .partialpi import satisfies_partial_pi
from .perm import Perm
from .series import (
    fitting_subgroup,
    hypercenter,
    is_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
    one_chief_series,
    socle,
)
from .structure import centre
from .sylow import (
    cyclic_subgroups_of_order,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)
from .verify import THEOREM_IDS, run_corpus, verify_theorem

SCHEMA = "gpi-report/1"

FAMILY_TAGS = ("sylow", "2min", "2max", "cyc4")


def _group(text: str) -> FiniteGroup:
    text = text.strip()
    if text.startswith(("{", "[")):
        return from_description(json.loads(text))
    return from_description(text)


def _prime(p: int) -> int:
    # No accepted group has an order divisible by a prime above the element
    # ceiling.
    if p > groups.MAX_ELEMENTS:
        raise ValueError(f"--prime {p} exceeds the element ceiling {groups.MAX_ELEMENTS}")
    if not is_prime(p):
        raise ValueError(f"--prime wants a prime, got {p}")
    return p


def _subgroup_from_json(G: FiniteGroup, data) -> Subgroup:
    """Generators as element ids, or as cycle lists in a permutation group."""
    if not isinstance(data, list):
        raise ValueError("subgroup generators must be a JSON list")
    # JSON true/false arrive as bools, which Python counts as ints.
    if all(type(x) is int for x in data):
        for x in data:
            if not 0 <= x < G.n:
                raise ValueError(f"element id {x} outside 0..{G.n - 1}")
        return G.generated(data)
    if not isinstance(G, PermGroup):
        raise ValueError("cycle-list generators need a permutation group")
    ids = []
    for cycles in data:
        if not isinstance(cycles, list) or not all(isinstance(c, list) for c in cycles):
            raise ValueError(f"generator {cycles!r} is neither an element id nor a list of cycles")
        ids.append(G.id_of_perm(Perm.from_cycles(G.degree, cycles)))
    return G.generated(ids)


def _family(G: FiniteGroup, p: int, tag: str) -> list[Subgroup]:
    P = sylow_subgroup(G, p)
    if tag == "sylow":
        return [P]
    if tag == "2min":
        return two_minimal_subgroups(P, p)
    if tag == "2max":
        return two_maximal_subgroups_of_p_group(P)
    if tag == "cyc4":
        return cyclic_subgroups_of_order(P, 4)
    raise ValueError(f"unknown family {tag!r}; choose from {', '.join(FAMILY_TAGS)}")


def _gens_label(H: Subgroup) -> str:
    gens = ", ".join(H.group.label(g) for g in H.gens)
    return f"<{gens}>" if gens else "<1>"


def _format_verdict(verdict) -> str:
    head = f"{_gens_label(verdict.subgroup)} order {verdict.subgroup.order}"
    if verdict.satisfied:
        orders = " < ".join(str(t.order) for t in verdict.terms)
        return f"{head}: witness  {orders}"
    # Passing factors can still lead into dead subtrees, so the first
    # failing check may sit above the first blocked state.
    state, bad = next(
        (s, c) for s, checks in verdict.blocked for c in checks if not c.passed
    )
    pi = "{" + ", ".join(str(q) for q in bad.pi) + "}"
    return (
        f"{head}: refusal  blocked above order {state.order}: "
        f"normalizer index {bad.index} is no {pi}-number "
        f"({verdict.explored} states explored)"
    )


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_info(args) -> int:
    G = _group(args.group)
    primes = sorted(prime_set(G.n))
    series = one_chief_series(G)
    payload = {
        "schema": SCHEMA,
        "command": "info",
        "group": G.name,
        "order": G.n,
        "primes": primes,
        "abelian": G.is_abelian(),
        "nilpotent": is_nilpotent(G),
        "soluble": is_soluble(G),
        "supersoluble": is_supersoluble(G),
        "p_soluble": {str(p): is_p_soluble(G, p) for p in primes},
        "p_supersoluble": {str(p): is_p_supersoluble(G, p) for p in primes},
        "centre": centre(G).order,
        "fitting": fitting_subgroup(G).order,
        "socle": socle(G).order,
        "hypercenter": hypercenter(G).order,
        "chief_series": [t.order for t in series.terms],
    }
    if isinstance(G, PermGroup):
        payload["degree"] = G.degree
    if args.json:
        _emit(payload)
        return 0
    degree = f", degree {G.degree}" if isinstance(G, PermGroup) else ""

    def yn(b: bool) -> str:
        return "yes" if b else "no"

    print(f"{G.name}: order {G.n}{degree}, primes {primes}")
    print(
        f"  abelian {yn(payload['abelian'])}, nilpotent {yn(payload['nilpotent'])}, "
        f"soluble {yn(payload['soluble'])}, supersoluble {yn(payload['supersoluble'])}"
    )
    for p in primes:
        print(
            f"  p={p}: soluble {yn(payload['p_soluble'][str(p)])}, "
            f"supersoluble {yn(payload['p_supersoluble'][str(p)])}"
        )
    print(
        f"  centre {payload['centre']}, fitting {payload['fitting']}, "
        f"socle {payload['socle']}, hypercenter {payload['hypercenter']}"
    )
    print(f"  chief series {series.describe()}")
    return 0


def _cmd_check(args) -> int:
    G = _group(args.group)
    spec = args.subgroup.strip()
    if spec.startswith("family:"):
        if args.prime is None:
            raise ValueError("family subgroup specs need --prime")
        subs = _family(G, _prime(args.prime), spec[len("family:"):])
    else:
        subs = [_subgroup_from_json(G, json.loads(spec))]
    verdicts = [satisfies_partial_pi(G, H) for H in subs]
    satisfied = sum(1 for v in verdicts if v.satisfied)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "command": "check",
                "group": G.name,
                "order": G.n,
                "prime": args.prime,
                "subgroup_spec": spec,
                "count": len(verdicts),
                "satisfied": satisfied,
                "verdicts": [v.to_json() for v in verdicts],
            }
        )
    else:
        print(f"{G.name}: checking {len(verdicts)} subgroup(s)")
        for v in verdicts:
            print("  " + _format_verdict(v))
        print(f"satisfied {satisfied}/{len(verdicts)}")
    return 0 if satisfied == len(verdicts) else 1


def _cmd_theorem(args) -> int:
    G = _group(args.group)
    primes = [_prime(args.prime)] if args.prime is not None else None
    normal = None
    if args.normal is not None:
        normal = _subgroup_from_json(G, json.loads(args.normal))
    rep = verify_theorem(
        args.id, G, exhaustive=args.exhaustive, primes=primes, normal_only=normal
    )
    if args.json:
        _emit({"schema": SCHEMA, "command": "theorem", "report": rep.to_json()})
    else:
        print(
            f"{rep.theorem} ({rep.label}) on {rep.group}: "
            f"instances {rep.instances}, applicable {rep.applicable}, "
            f"hypothesis true {rep.hypothesis_true}, violations {len(rep.violations)}"
        )
        for d in rep.violations:
            print(f"  violation: {d}")
        print("OK" if rep.ok else "VIOLATED")
    return 0 if rep.ok else 1


def _cmd_corpus(args) -> int:
    names = corpus_names()
    if args.filter:
        names = [n for n in names if args.filter in n]
    quiet = args.json == "-"
    reports = []

    def progress(rep):
        reports.append(rep)
        if not quiet:
            skipped = any("skipped" in d for d in rep.details)
            status = "skipped" if skipped else ("ok" if rep.ok else "VIOLATED")
            print(
                f"{rep.group:<10} {rep.theorem:<5} instances {rep.instances:>3} "
                f"hypothesis true {rep.hypothesis_true:>3}  {status}"
            )

    run_corpus(names=names, progress=progress)
    violations = sum(len(r.violations) for r in reports)
    skipped = sum(1 for r in reports if any("skipped" in d for d in r.details))
    if args.json is not None:
        payload = {
            "schema": SCHEMA,
            "command": "corpus",
            "groups": names,
            "reports": [r.to_json() for r in reports],
            "violations": violations,
            "skipped": skipped,
            "ok": violations == 0,
        }
        if quiet:
            _emit(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
    if not quiet:
        print(
            f"{len(names)} groups, {len(reports)} reports, "
            f"{violations} violations, {skipped} skipped"
        )
    return 0 if violations == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpi",
        description="Chief-series subgroup criteria on finite groups.",
        epilog=f"catalogue names: {', '.join(group_names())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="Summarise one group.")
    p_info.add_argument("group", help="Catalogue name or JSON description.")
    p_info.add_argument("--json", action="store_true", help="Machine output.")
    p_info.set_defaults(handler=_cmd_info)

    p_check = sub.add_parser("check", help="Decide the property for subgroups.")
    p_check.add_argument("--group", required=True, help="Catalogue name or JSON description.")
    p_check.add_argument("--prime", type=int, help="Prime selecting the Sylow family.")
    p_check.add_argument(
        "--subgroup",
        required=True,
        help="JSON generator list, or family:{%s}." % ",".join(FAMILY_TAGS),
    )
    p_check.add_argument("--json", action="store_true", help="Machine output.")
    p_check.set_defaults(handler=_cmd_check)

    p_thm = sub.add_parser("theorem", help="Run one theorem checker on one group.")
    p_thm.add_argument("--id", required=True, choices=list(THEOREM_IDS))
    p_thm.add_argument("--group", required=True, help="Catalogue name or JSON description.")
    p_thm.add_argument("--prime", type=int, help="Restrict to one prime.")
    p_thm.add_argument(
        "--normal",
        help="JSON generator list; restrict t11/t12 to this normal subgroup.",
    )
    p_thm.add_argument(
        "--exhaustive",
        action="store_true",
        help="Record every failing family member, not just the first.",
    )
    p_thm.add_argument("--json", action="store_true", help="Machine output.")
    p_thm.set_defaults(handler=_cmd_theorem)

    p_corpus = sub.add_parser("corpus", help="Run every checker over the catalogue.")
    p_corpus.add_argument("--filter", help="Keep only group names containing this.")
    p_corpus.add_argument(
        "--json",
        nargs="?",
        const="-",
        help="Write the full report as JSON to a file, or to stdout with no path.",
    )
    p_corpus.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that has gone shows up here, not at exit
        return code
    except BrokenPipeError:
        # Nothing more can be written; send the interpreter's final flush to
        # devnull so it stays quiet, and exit as for any other I/O error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except LimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        print(f"bad JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the engine, never a refusal
        msg = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {msg}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
