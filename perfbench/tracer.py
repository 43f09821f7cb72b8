"""Spans and work counts at the layer boundaries of gpi, recorded from outside.

A traced round wraps the public functions of the package in every module that
binds them (the package imports names with `from ... import`, so patching the
home module alone would miss most callers), plus methods on their class.  Each
call opens a span (name, start, end, parent); a layer's self time is its
span's duration minus the time of the wrapped calls it made.  Spans opened by
the benchmark itself are named `bench.*`; their self time is the part of the
round no wrapped layer accounts for.

Product counts are derived from arguments and results at the boundary, never
by counting inside the product loops:

- `closure_ids`: |result| x |distinct non-identity seeds| (one product per
  element and seed);
- `product_ids`: |result| (each coset walked contributes |right| products);
- `normalizer_index`: 2 x index x |reduced generators| x |S| (conjugating S
  costs two products per element, once per orbit point and generator).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# layer name -> (home module, attribute path).  An attribute path with a dot
# names a method on a class.
LAYERS = {
    "catalog.build": [("gpi.catalog", "build_group"), ("gpi.catalog", "from_description")],
    "groups.materialize": [("gpi.groups", "FiniteGroup.materialize")],
    "groups.class_reps": [("gpi.groups", "FiniteGroup.conjugacy_class_reps")],
    "groups.closure_ids": [("gpi.groups", "closure_ids")],
    "groups.product_ids": [("gpi.groups", "product_ids")],
    "groups.quotient": [("gpi.groups", "quotient")],
    "structure.normalizer_index": [("gpi.structure", "normalizer_index")],
    "structure.normal_closure": [("gpi.structure", "normal_closure")],
    "structure.p_residual": [("gpi.structure", "p_residual")],
    "structure.centralizer": [("gpi.structure", "centralizer")],
    "series.principal_closures": [("gpi.series", "principal_normal_closures")],
    "series.min_overgroups": [("gpi.series", "minimal_normal_overgroups")],
    "series.hypercenter": [("gpi.series", "hypercenter")],
    "series.p_length": [("gpi.series", "p_length")],
    "formations.f_hypercenter": [("gpi.formations", "f_hypercenter")],
    "sylow.sylow": [("gpi.sylow", "sylow_subgroup")],
    "sylow.families": [
        ("gpi.sylow", "cyclic_subgroups_of_order"),
        ("gpi.sylow", "two_minimal_subgroups"),
        ("gpi.sylow", "maximal_subgroups_of_p_group"),
        ("gpi.sylow", "two_maximal_subgroups_of_p_group"),
        ("gpi.sylow", "all_subgroups"),
        ("gpi.sylow", "is_quaternion_free"),
    ],
    "partialpi.verdict": [("gpi.partialpi", "satisfies_partial_pi")],
    "partialpi.factor_condition": [("gpi.partialpi", "factor_condition")],
    **{
        f"verify.{tid}": [("gpi.verify", f"verify_{tid}")]
        for tid in ("t11", "t12", "t13", "t14", "cls", "l28", "l214")
    },
    "cli": [("gpi.cli", "main")],
}

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = [
    ("catalog.build_s", "s", "lower"),
    ("groups.materialize_s", "s", "lower"),
    ("groups.class_reps_s", "s", "lower"),
    ("series.principal_closures_s", "s", "lower"),
    ("groups.closure_ids_calls", "count", "lower"),
    ("groups.closure_ids_s", "s", "lower"),
    ("groups.closure_ids_products", "count", "lower"),
    ("structure.p_residual_s", "s", "lower"),
    ("structure.normal_closure_s", "s", "lower"),
    ("groups.product_ids_calls", "count", "lower"),
    ("groups.product_ids_s", "s", "lower"),
    ("groups.product_ids_products", "count", "lower"),
    ("structure.normalizer_index_calls", "count", "lower"),
    ("structure.normalizer_index_s", "s", "lower"),
    ("structure.normalizer_orbit_points", "count", "lower"),
    ("structure.normalizer_conj_products", "count", "lower"),
    ("groups.quotient_calls", "count", "lower"),
    ("groups.quotient_s", "s", "lower"),
    ("series.hypercenter_calls", "count", "lower"),
    ("series.hypercenter_s", "s", "lower"),
    ("series.p_length_s", "s", "lower"),
    ("structure.centralizer_s", "s", "lower"),
    ("formations.f_hypercenter_s", "s", "lower"),
    ("sylow.families_s", "s", "lower"),
    ("sylow.sylow_s", "s", "lower"),
    ("series.min_overgroups_calls", "count", "lower"),
    ("series.min_overgroups_s", "s", "lower"),
    ("series.min_overgroups_hit_ratio", "ratio", "higher"),
    ("partialpi.verdicts", "count", "lower"),
    ("partialpi.verdict_s", "s", "lower"),
    ("partialpi.factor_checks", "count", "lower"),
    ("partialpi.factor_condition_s", "s", "lower"),
    ("partialpi.factor_shortcut_ratio", "ratio", "higher"),
    ("partialpi.dfs_states", "count", "lower"),
    ("partialpi.refusal_states", "count", "lower"),
    ("partialpi.verdict_cache_hit_ratio", "ratio", "higher"),
    *[(f"verify.{tid}_s", "s", "lower")
      for tid in ("t11", "t12", "t13", "t14", "cls", "l28", "l214")],
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Span store for one traced round, kept in memory as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self._child: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._asked: set = set()
        self._verdicts: dict[int, object] = {}

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(i)
        self._child.append(0.0)
        self.starts[i] = clock()
        return i

    def close(self, i: int) -> None:
        t = clock()
        self.ends[i] = t
        self._open.pop()
        child = self._child.pop()
        dur = t - self.starts[i]
        self.self_s[self.names[i]] += dur - child
        if self._child:
            self._child[-1] += dur
        self.calls[self.names[i]] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function of the freshly imported package."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "gpi" or name.startswith("gpi."))]
        for layer, targets in LAYERS.items():
            for home, path in targets:
                owner = sys.modules[home]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(layer, meth, getattr(cls, meth)))
                    continue
                orig = getattr(owner, path)
                wrapped = self._wrap(layer, path, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if attr.startswith("__"):
                            continue
                        if val is orig:
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict):
                            # Dispatch tables such as verify.CHECKERS.
                            for k, v in list(val.items()):
                                if v is orig:
                                    val[k] = wrapped

    def _wrap(self, layer: str, attr: str, fn):
        before = getattr(self, f"_before_{attr}", None)
        after = getattr(self, f"_after_{attr}", None)
        tracer = self

        if attr == "materialize":
            # Every `.n` access calls materialize(); only the first call on a
            # handle builds, so only that call opens a span.
            @functools.wraps(fn)
            def wrapper(G):
                if getattr(G, "_n", None) is not None:
                    return fn(G)
                i = tracer.open(layer)
                try:
                    return fn(G)
                finally:
                    tracer.close(i)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(layer)
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(i, args, result)
                return result
            finally:
                tracer.close(i)

        return wrapper

    # -- boundary counts -------------------------------------------------------

    @staticmethod
    def _before_closure_ids(args):
        G, seeds, *rest = args
        return (G, list(seeds), *rest)

    def _after_closure_ids(self, i, args, result):
        seeds = {s for s in args[1] if s != 0}
        self.counts["groups.closure_ids_products"] += len(result) * len(seeds)

    def _after_product_ids(self, i, args, result):
        self.counts["groups.product_ids_products"] += len(result)

    @staticmethod
    def _before_normalizer_index(args):
        G, ids = args
        ids = getattr(ids, "ids", ids)
        return (G, ids if isinstance(ids, frozenset) else frozenset(ids))

    def _after_normalizer_index(self, i, args, result):
        G, ids = args
        self.counts["structure.normalizer_orbit_points"] += result
        self.counts["structure.normalizer_conj_products"] += (
            2 * result * len(G.reduced_generator_ids()) * len(ids)
        )

    def _after_minimal_normal_overgroups(self, i, args, result):
        G, N = args
        key = (id(G), N.ids)
        if key in self._asked:
            self.counts["series.min_overgroups_hits"] += 1
        self._asked.add(key)
        # The verdict DFS expands each non-full state with exactly one call.
        parent = self.parents[i]
        if parent >= 0 and self.names[parent] == "partialpi.verdict":
            self.counts["partialpi.dfs_states"] += 1

    def _after_satisfies_partial_pi(self, i, args, result):
        if id(result) in self._verdicts:
            # Same object as an earlier answer: served from the verdict cache.
            self.counts["partialpi.verdict_hits"] += 1
            return
        self._verdicts[id(result)] = result
        if result.satisfied:
            self.counts["partialpi.dfs_states"] += 1  # the full group, reached
        else:
            self.counts["partialpi.refusal_states"] += result.explored

    def _after_factor_condition(self, i, args, result):
        if result.meet_order in (result.k_order, result.m_order):
            self.counts["partialpi.factor_shortcuts"] += 1

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Per-layer values of one traced round; `root` is its outer span."""
        s, c, n = self.self_s, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{layer}_s": s.get(layer, 0.0) for layer in LAYERS if layer != "cli"}
        out["cli.self_s"] = s.get("cli", 0.0)
        for layer in ("groups.closure_ids", "groups.product_ids", "groups.quotient",
                      "series.hypercenter", "series.min_overgroups",
                      "structure.normalizer_index"):
            out[f"{layer}_calls"] = c.get(layer, 0)
        out.update(
            {
                "groups.closure_ids_products": n["groups.closure_ids_products"],
                "groups.product_ids_products": n["groups.product_ids_products"],
                "structure.normalizer_orbit_points": n["structure.normalizer_orbit_points"],
                "structure.normalizer_conj_products": n["structure.normalizer_conj_products"],
                "series.min_overgroups_hit_ratio": ratio(
                    n["series.min_overgroups_hits"], c["series.min_overgroups"]),
                "partialpi.verdicts": c["partialpi.verdict"],
                "partialpi.factor_checks": c["partialpi.factor_condition"],
                "partialpi.factor_shortcut_ratio": ratio(
                    n["partialpi.factor_shortcuts"], c["partialpi.factor_condition"]),
                "partialpi.dfs_states": n["partialpi.dfs_states"],
                "partialpi.refusal_states": n["partialpi.refusal_states"],
                "partialpi.verdict_cache_hit_ratio": ratio(
                    n["partialpi.verdict_hits"], c["partialpi.verdict"]),
            }
        )
        # Every span lies inside the root, so all self times together make up
        # its duration; what the layers leave of it is the benchmark's own.
        wall = self.ends[root] - self.starts[root]
        out["trace.wall_s"] = wall
        out["trace.remainder_s"] = wall - sum(
            v for k, v in s.items() if not k.startswith("bench."))
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                [n, round(a, 9), round(b, 9), p]
                for n, a, b, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
        }
