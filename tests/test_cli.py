"""Command line interface: parsing, output shapes, exit codes."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gpi
from gpi import partialpi, structure
from gpi import verify as verify_mod
from gpi.catalog import build_group
from gpi.cli import main
from gpi.partialpi import satisfies_partial_pi
from gpi.perm import Perm
from gpi.sylow import cyclic_subgroups_of_order, sylow_subgroup, two_minimal_subgroups
from gpi.verify import TheoremReport

S3_DESC = json.dumps(
    {
        "type": "semidirect",
        "normal": {"type": "perm", "degree": 3, "generators": [[[0, 1, 2]]]},
        "quotient": {"type": "perm", "degree": 2, "generators": [[[0, 1]]]},
        "action": [[[[0, 2, 1]]]],
    }
)


TRIVIAL_DESC = json.dumps({"type": "perm", "degree": 1, "generators": []})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_human(capsys):
    code, out, err = run(capsys, "info", "S4")
    assert code == 0 and err == ""
    assert "order 24" in out and "chief series 1 < 4 < 12 < 24" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "SL(2,3)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "gpi-report/1"
    assert data["command"] == "info"
    assert data["order"] == 24 and data["hypercenter"] == 2
    assert data["p_supersoluble"] == {"2": False, "3": True}


def test_info_unknown_group(capsys):
    code, _, err = run(capsys, "info", "Z99")
    assert code == 2
    assert "unknown group" in err


def test_check_witness_and_refusal(capsys):
    code, out, _ = run(capsys, "check", "--group", "S4", "--subgroup", "[[[0, 1]]]")
    assert code == 0
    assert "witness" in out
    code, out, _ = run(capsys, "check", "--group", "S4", "--subgroup", "[[[0, 1, 2, 3]]]")
    assert code == 1
    assert "refusal" in out and "normalizer index 3" in out


def test_check_element_id_generators(capsys):
    # id 0 is the identity, so this is the trivial subgroup: witnessed.
    code, out, _ = run(capsys, "check", "--group", "Q8", "--subgroup", "[0]")
    assert code == 0 and "witness" in out


def test_check_rejects_json_booleans(capsys):
    code, out, err = run(capsys, "check", "--group", "S4", "--subgroup", "[true]")
    assert code == 2 and out == ""
    assert "neither an element id nor a list of cycles" in err
    code, out, err = run(capsys, "check", "--group", "S4", "--subgroup", "[[[true, 2]]]")
    assert code == 2 and out == "" and "cycle point True" in err


def test_check_family_json(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "SL(2,5)", "--prime", "2",
        "--subgroup", "family:cyc4", "--json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == "gpi-report/1"
    assert data["count"] == 3 and data["satisfied"] == 0
    for verdict in data["verdicts"]:
        assert verdict["verdict"] == "refusal"
        assert any(
            factor["index"] == 15
            for entry in verdict["blocked"]
            for factor in entry["factors"]
        )


def test_check_family_sylow(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "A5", "--prime", "2", "--subgroup", "family:sylow"
    )
    assert code == 1
    assert "normalizer index 5" in out


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, "check", "--group", "A5", "--subgroup", "family:sylow")
    assert code == 2 and "--prime" in err
    code, _, err = run(
        capsys, "check", "--group", "A5", "--prime", "2", "--subgroup", "family:huge"
    )
    assert code == 2 and "unknown family" in err
    code, _, err = run(
        capsys, "check", "--group", "A5", "--prime", "4", "--subgroup", "family:sylow"
    )
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "check", "--group", "A5", "--subgroup", "[[[")
    assert code == 2 and "bad JSON" in err
    code, _, err = run(capsys, "check", "--group", "A5", "--subgroup", "[999]")
    assert code == 2 and "element id" in err
    code, _, err = run(capsys, "check", "--group", "A5", "--subgroup", '{"a": 1}')
    assert code == 2 and "JSON list" in err


def test_theorem_ok(capsys):
    code, out, _ = run(capsys, "theorem", "--id", "cls", "--group", "SL(2,5)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "theorem"
    assert data["report"]["ok"] is True
    assert data["report"]["hypothesis_true"] == 1


def test_theorem_violation_exit(capsys, monkeypatch):
    def forged(G, exhaustive=False, primes=None):
        rep = TheoremReport("l28", "sylow-property-p-soluble", G.name)
        rep.details.append({"p": 2, "hypothesis": True, "conclusion": False})
        return rep

    monkeypatch.setitem(verify_mod.CHECKERS, "l28", forged)
    code, out, _ = run(capsys, "theorem", "--id", "l28", "--group", "S4")
    assert code == 1
    assert "VIOLATED" in out


@pytest.mark.parametrize("exc", [RuntimeError("stalled\nfor good"), MemoryError(), AssertionError()])
def test_internal_errors_exit_3_on_one_line(capsys, monkeypatch, exc):
    # Exit 1 is kept for refusals and violations, 2 for usage and resources.
    def broken(args):
        raise exc

    monkeypatch.setattr(importlib.import_module("gpi.cli"), "_cmd_info", broken)
    code, out, err = run(capsys, "info", "S4")
    assert code == 3 and out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_theorem_usage_errors(capsys):
    code, _, err = run(
        capsys, "theorem", "--id", "l28", "--group", "S4", "--normal", "[1]"
    )
    assert code == 2 and "does not range over" in err
    code, _, err = run(
        capsys, "theorem", "--id", "t13", "--group", "S4", "--prime", "6"
    )
    assert code == 2 and "wants a prime" in err
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--id", "nope", "--group", "S4"])
    assert exc.value.code == 2


def test_prime_above_the_element_ceiling_exits_2_at_once(capsys):
    # Trial division to sqrt(p) would run for hours; no accepted group has
    # an order divisible by a prime above the element ceiling.
    huge = "1000000000000000003"
    for argv in (("check", "--group", "S4", "--prime", huge, "--subgroup", "family:sylow"),
                 ("theorem", "--id", "t13", "--group", "S4", "--prime", huge)):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 2 and "element ceiling" in err
        assert time.perf_counter() - start < 1.0
    for argv in (("check", "--group", "S4", "--prime", "7", "--subgroup", "family:sylow"),
                 ("theorem", "--id", "t13", "--group", "S4", "--prime", "7")):
        assert run(capsys, *argv)[0] == 0


def _gf125_description():
    # x -> x + 1, x -> ax with a of order 31, and x -> x^3 on GF(125), built
    # as GF(5)[t]/(t^3 + t + 1) (the cubic has no root mod 5), the element
    # c0 + c1 t + c2 t^2 numbered c0 + 5 c1 + 25 c2.  They generate a group
    # far past the element ceiling.
    def times(x, y):
        a, b = [x // 5**i % 5 for i in range(3)], [y // 5**i % 5 for i in range(3)]
        c = [sum(a[i] * b[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]
        for k in (4, 3):  # t^3 = -t - 1
            c[k - 2] -= c[k]
            c[k - 3] -= c[k]
        return sum(c[i] % 5 * 5**i for i in range(3))

    def power(x, k):
        out = 1
        for _ in range(k):
            out = times(out, x)
        return out

    a = next(x for x in range(2, 125) if power(x, 31) == 1)
    maps = [[x - x % 5 + (x + 1) % 5 for x in range(125)],
            [times(a, x) for x in range(125)],
            [power(x, 3) for x in range(125)]]
    gens = [[list(c) for c in Perm(images).cycles()] for images in maps]
    return json.dumps({"type": "perm", "degree": 125, "generators": gens})


def test_order_past_the_element_ceiling_exits_2_in_time(capsys):
    # The stabilizer chain stops once the orbit lengths found so far pass
    # the ceiling, where the full chain ran past 12 s; the bound it reports
    # is a lower bound, never cached as the order.
    desc = _gf125_description()

    def expire(signum, frame):
        raise TimeoutError("refusing the order took over two seconds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code, out, err = run(capsys, "info", desc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    assert "order at least" in err and "exceeds the element ceiling 1000000" in err


def test_theorem_normal_restriction(capsys):
    code, out, _ = run(
        capsys, "theorem", "--id", "t12", "--group", "S4",
        "--normal", "[[[0, 1], [2, 3]], [[0, 2], [1, 3]]]", "--json",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["instances"] == 1
    assert report["details"][0]["E"] == 4


def test_corpus_filter(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "SL(2,3)")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("SL(2,3)")]
    assert len(lines) == 7
    assert "0 violations" in out


def test_corpus_json_stdout(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "Q8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "gpi-report/1"
    assert data["groups"] == ["Q8"]
    assert data["ok"] is True and len(data["reports"]) == 7


def test_corpus_json_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "corpus", "--filter", "C12", "--json", str(target))
    assert code == 0
    assert "wrote" in out
    data = json.loads(target.read_text())
    assert data["command"] == "corpus" and data["violations"] == 0


def test_semidirect_description(capsys):
    code, out, _ = run(capsys, "info", S3_DESC, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert data["abelian"] is False and data["supersoluble"] is True


def test_semidirect_count_errors_name_the_kept_generators(capsys):
    # Every group keeps its distinct non-identity generators: a repeated
    # quotient generator, or an identity one in the normal part, is
    # dropped, and the error says how many were kept.
    flip, turn = [[0, 1]], [[0, 1, 2]]
    cases = [
        ({"type": "perm", "degree": 3, "generators": [turn]},
         {"type": "perm", "degree": 2, "generators": [flip, flip]},
         [[[[0, 2, 1]]]] * 2,
         "need one action row per quotient generator: got 2 rows, and the quotient keeps 1 "
         "of the generators given (every group keeps the distinct non-identity ones)"),
        ({"type": "perm", "degree": 3, "generators": [turn, []]}, "C2",
         [[[[0, 2, 1]], []]],
         "action row 0 has 2 images, and the normal part keeps 1 of the generators given "
         "(every group keeps the distinct non-identity ones)"),
    ]
    for normal, quotient, action, message in cases:
        desc = {"type": "semidirect", "normal": normal, "quotient": quotient, "action": action}
        code, out, err = run(capsys, "info", json.dumps(desc))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n", err


def test_description_errors(capsys):
    code, _, err = run(capsys, "info", '{"type": "wedge"}')
    assert code == 2 and "unknown group description" in err
    code, _, err = run(capsys, "info", '{"type": "perm"}')
    assert code == 2
    code, _, err = run(capsys, "info", "[1, 2]")
    assert code == 2 and "name or an object" in err


def test_description_missing_keys_name_their_path(capsys):
    perm = {"type": "perm", "degree": 3, "generators": [[[0, 1, 2]]]}
    cases = [
        ({"type": "catalog"}, "'name'"),
        ({"type": "perm", "degree": 3}, "'generators'"),
        ({"type": "perm", "generators": []}, "'degree'"),
        ({"type": "semidirect", "normal": perm, "quotient": perm}, "'action'"),
        ({"type": "semidirect", "quotient": perm, "action": []}, "'normal'"),
        ({"type": "semidirect", "normal": {"type": "perm", "degree": 3},
          "quotient": perm, "action": []}, "'normal.generators'"),
        ({"type": "semidirect", "normal": perm, "action": [],
          "quotient": {"type": "semidirect", "normal": perm, "quotient": perm}},
         "'quotient.action'"),
    ]
    for desc, path in cases:
        code, out, err = run(capsys, "info", json.dumps(desc))
        assert code == 2 and out == "", desc
        assert f"has no key {path}" in err, (desc, err)


_PERM3 = {"type": "perm", "degree": 3, "generators": [[[0, 1, 2]]]}


@pytest.mark.parametrize("desc,message", [
    ({"type": "semidirect", "normal": {"type": "perm", "degree": 0, "generators": []},
      "quotient": "C2", "action": []}, "normal.degree must be a positive integer"),
    ({"type": "semidirect", "normal": "Q16", "quotient": "C2", "action": []},
     "normal must be permutation-backed"),
    ({"type": "semidirect", "normal": _PERM3, "quotient": {"type": "wedge"}, "action": []},
     "quotient.type: unknown group description type 'wedge'"),
    ({"type": "semidirect", "normal": _PERM3, "quotient": "C3", "action": {"0": []}},
     "action must be a list of rows"),
    ({"type": "semidirect", "normal": _PERM3, "quotient": [1, 2], "action": []},
     "quotient must be a name or an object"),
], ids=["normal.degree", "normal", "quotient.type", "action", "quotient"])
def test_description_errors_name_their_path(capsys, desc, message):
    code, out, err = run(capsys, "info", json.dumps(desc))
    assert code == 2 and out == ""
    assert f"error: {message}" in err, err


def test_description_catalog_name_must_be_a_string(capsys):
    perm = {"type": "perm", "degree": 3, "generators": [[[0, 1, 2]]]}
    cases = [
        ({"type": "catalog", "name": [1]}, "name"),
        ({"type": "catalog", "name": 8}, "name"),
        ({"type": "semidirect", "normal": perm, "action": [],
          "quotient": {"type": "catalog", "name": {"S3": 1}}}, "quotient.name"),
    ]
    for desc, path in cases:
        code, out, err = run(capsys, "info", json.dumps(desc))
        assert code == 2 and out == "", desc
        assert f"{path} must be a catalog name string" in err, (desc, err)


def test_description_names_must_be_strings(capsys):
    perm = {"type": "perm", "degree": 2, "generators": [[[0, 1]]]}
    cases = [
        ({**perm, "name": [1]}, "name"),
        ({**perm, "name": None}, "name"),
        ({"type": "semidirect", "normal": {**perm, "name": 7}, "quotient": "C2",
          "action": [[[]]]}, "normal.name"),
        ({"type": "semidirect", "normal": perm, "quotient": "C2", "action": [[[]]],
          "name": {"C2": 2}}, "name"),
    ]
    for desc, path in cases:
        for extra in [(), ("--json",)]:
            code, out, err = run(capsys, "info", json.dumps(desc), *extra)
            assert code == 2 and out == "", (desc, extra)
            assert f"error: {path} must be a string" in err, (desc, err)
    code, out, _ = run(capsys, "info", json.dumps({**perm, "name": "two"}))
    assert code == 0 and out.startswith("two: order 2")


def test_description_degree_ceiling_before_allocation(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("Perm.from_cycles called before the degree check")

    monkeypatch.setattr(Perm, "from_cycles", refuse)
    monkeypatch.setattr(importlib.import_module("gpi.catalog"), "cyc", refuse)
    desc = json.dumps({"type": "perm", "degree": 4097, "generators": [[[0, 1]]]})
    code, out, err = run(capsys, "info", desc)
    assert code == 2 and out == ""
    assert "degree 4097 exceeds the ceiling 4096" in err


@pytest.mark.parametrize("where", ["info", "check --subgroup", "theorem --normal"])
def test_deeply_nested_json_is_bad_json(capsys, where):
    # The parser gives up with a RecursionError: an input error, not a crash.
    deep = "[" * 30000 + "]" * 30000
    argv = {"info": ["info", deep],
            "check --subgroup": ["check", "--group", "S4", "--subgroup", deep],
            "theorem --normal": ["theorem", "--id", "t11", "--group", "S4", "--normal", deep]}
    code, out, err = run(capsys, *argv[where])
    assert code == 2 and out == "" and "bad JSON" in err


def test_semidirect_ceiling_before_allocation(capsys, monkeypatch):
    # S7 x S7 has order 25,401,600 > 10^6: refused before any of its 5,040
    # automorphism tables of 5,040 ids is built.
    def refuse(*args):
        raise AssertionError("an automorphism table was built")

    monkeypatch.setattr(importlib.import_module("gpi.groups"), "hom_from_generators", refuse)
    s7 = {"type": "perm", "degree": 7, "generators": [[[0, 1, 2, 3, 4, 5, 6]], [[0, 1]]]}
    desc = json.dumps({"type": "semidirect", "normal": s7, "quotient": s7,
                       "action": [[[[0, 1, 2, 3, 4, 5, 6]], [[0, 1]]]] * 2})
    code, out, err = run(capsys, "info", desc)
    assert code == 2 and out == ""
    assert "order 25401600 exceeds the element ceiling 1000000" in err


def test_catalog_submodule_is_not_shadowed():
    import gpi.catalog as catalog_module
    from gpi import catalog

    assert catalog is catalog_module is sys.modules["gpi.catalog"]
    assert catalog.build_group("S3").n == 6


def test_description_generator_shape(capsys):
    code, _, err = run(capsys, "info", '{"type": "perm", "degree": 3, "generators": [[0, 1]]}')
    assert code == 2 and "generators" in err


def test_trivial_group(capsys):
    code, out, _ = run(capsys, "info", TRIVIAL_DESC, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1 and data["socle"] == 1 and data["chief_series"] == [1]
    code, out, _ = run(capsys, "check", "--group", TRIVIAL_DESC, "--subgroup", "[0]")
    assert code == 0 and "witness" in out
    for tid in ("t11", "l214"):
        code, out, _ = run(capsys, "theorem", "--id", tid, "--group", TRIVIAL_DESC)
        assert code == 0 and "OK" in out


def test_readme_info_examples(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"gpi info '(.*)'", line.strip())
        if m is None:
            continue
        try:
            json.loads(m.group(1))
        except json.JSONDecodeError:
            continue  # an elided sketch such as {"normal": {...}}
        examples.append(m.group(1))
    assert examples
    for desc in examples:
        code, _, err = run(capsys, "info", desc)
        assert code == 0, (desc, err)


def _child_env():
    # The child imports the same gpi as this test, installed or not.
    src = str(Path(gpi.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


_COLD_IMPORT = """
import sys
made = []
sys.addaudithook(lambda event, args: made.append(args[1]) if event == "compile" else None)
import gpi, gpi.cli
print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
print(sorted({str(f) for f in made if not str(f).endswith(".py")}))
"""


def test_cold_import_generates_no_code():
    # A fresh interpreter imports the package and its CLI without
    # `dataclasses` or `inspect`, and compiles nothing but the modules'
    # own files: no record or memo generates source at import.
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "gpi.cli", "info", "Q8"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "order 8" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_2(unbuffered):
    # Unbuffered, print itself fails; buffered, the failure waits for a flush.
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gpi.cli", "info", "S4", "--json"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


_RESOLVE_LAYERS = """
import importlib.util, json, sys
import gpi, gpi.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
targets, missing = 0, []
for layer, homes in tracer.LAYERS.items():
    for home, path in homes:
        targets += 1
        obj = sys.modules.get(home)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{layer}: {home}.{path}")
print(json.dumps({"targets": targets, "missing": missing}))
"""


def test_public_names_resolve_once():
    # A cut that forgets its export would leave a name that fails on use;
    # a star import raises on any name of __all__ the package lacks.
    exec("from gpi import *", {})
    assert len(set(gpi.__all__)) == len(gpi.__all__) == 46
    for gone in ("normalizer", "derived_subgroup", "minimal_normal_subgroups", "Limits"):
        assert gone not in gpi.__all__ and not hasattr(gpi, gone)


def test_tracer_layers_resolve_on_a_fresh_import():
    # `perfbench/run.py --trace 1` wraps these functions after importing
    # gpi and gpi.cli; a renamed or deleted one would break tracing only
    # when it runs.
    # -B keeps the load read-only: no bytecode is written next to tracer.py.
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _RESOLVE_LAYERS, str(tracer)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert got["targets"] >= 27


def test_engine_calls_normalizer_index_as_the_tracer_unpacks_it(monkeypatch):
    # perfbench/tracer.py reads `G, ids = args` off every call it wraps, so
    # the engine passes the group and the id-set by position and `modulus`
    # only by keyword.  Every gpi module that binds the kernel is wrapped.
    calls = []
    orbit = structure.normalizer_index

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return orbit(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gpi" and getattr(mod, "normalizer_index", None) is orbit:
            monkeypatch.setattr(mod, "normalizer_index", recorded)
    for name in ("GL(2,3)", "S4"):
        G = build_group(name, fresh=True)
        for k in {G.element_order(x) for x in range(G.n)}:
            for H in cyclic_subgroups_of_order(G, k):
                satisfies_partial_pi(G, H)
    assert calls
    assert all(len(args) == 2 and set(kwargs) <= {"modulus"} for args, kwargs in calls)
    assert any(kwargs.get("modulus") is not None for _, kwargs in calls)


def test_search_checks_factors_through_the_name_the_tracer_wraps(monkeypatch):
    # perfbench/tracer.py counts factor checks by wrapping the module-level
    # name `gpi.partialpi.factor_condition`, so the search must make every
    # check through it: a refusal lists each check it made, a witness at
    # least the checks on its series.
    calls = [0]
    check = partialpi.factor_condition

    def counted(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(partialpi, "factor_condition", counted)
    kinds = set()
    for name in ("S4", "A5", "SL(2,3)", "5^4:3"):
        G = build_group(name, fresh=True)
        for k in {G.element_order(x) for x in range(G.n)}:
            for H in cyclic_subgroups_of_order(G, k):
                calls[0] = 0
                v = satisfies_partial_pi(G, H)
                kinds.add(v.satisfied)
                if v.satisfied:
                    assert calls[0] >= len(v.checks), (name, H.sorted_ids)
                else:
                    assert calls[0] == sum(len(cs) for _, cs in v.blocked), (name, H.sorted_ids)
    assert kinds == {True, False}


def test_search_expands_each_state_once_through_the_name_the_tracer_wraps(monkeypatch):
    # perfbench/tracer.py counts `partialpi.dfs_states` as the calls to the
    # module-level name `gpi.partialpi.minimal_normal_overgroups` made inside
    # a verdict, so the search must expand each non-full state it explores
    # with exactly one call, however many checks it answers from the table.
    expanded, checks = [], [0]
    steps, check = partialpi.minimal_normal_overgroups, partialpi.factor_condition

    def counted_steps(G, N):
        expanded.append(N.ids)
        return steps(G, N)

    def counted_check(*args):
        checks[0] += 1
        return check(*args)

    monkeypatch.setattr(partialpi, "minimal_normal_overgroups", counted_steps)
    monkeypatch.setattr(partialpi, "factor_condition", counted_check)
    G = build_group("5^4:3", fresh=True)
    P = sylow_subgroup(G, 5)
    # A line is blocked at 1 (26 steps) and at each of the 25 planes it
    # steps into (one step each): 26 states and 51 checks, on every line.
    for line in cyclic_subgroups_of_order(P, 5)[:3]:
        expanded.clear()
        checks[0] = 0
        res = satisfies_partial_pi(G, line)
        assert not res.satisfied
        assert len(expanded) == len(set(expanded)) == 26 and checks[0] == 51
        assert expanded[0] == G.trivial_subgroup().ids
        assert set(expanded) == {state.ids for state, _ in res.blocked}
    for plane in two_minimal_subgroups(P, 5)[:20]:
        expanded.clear()
        wit = satisfies_partial_pi(G, plane)
        assert wit.satisfied and expanded == [t.ids for t in wit.terms[:-1]]


def test_corpus_json_keeps_its_digest(capsys):
    # Perf changes must leave every theorem report byte-identical.
    assert main(["corpus", "--json", "-"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b08085f470ed19f4e49fc99c848e3edf26fef52b4925ea23efce081230ad4a27"
