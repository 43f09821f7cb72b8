"""Group handles with a uniform integer-id face.

Two backends exist: permutation groups (generators given as `Perm`s, order
decided by a stabilizer chain, elements enumerated lazily and held as
`bytes` of images up to degree 256, as tuples above it) and table groups
(an order and product and inverse functions on ids).  Table groups serve
re-rooted subgroups, hand-built groups, semidirect products (a direct
product has trivial action rows) and quotients, which only tests form.
Once materialised, every handle looks the same:
elements are the ids 0..n-1 with 0 the identity, `mul`/`inv` work on ids,
and a subgroup is a canonical frozen set of ids.  All structural algorithms
in the package are written once against that face.

Two desk-scale ceilings are constants of this module, read when they are
checked, so one assignment here moves every check: `MAX_DEGREE` bounds a
permutation group's degree when the handle is made, and `MAX_ELEMENTS`
bounds a permutation group's order (the stabilizer chain refuses it
before anything is enumerated), a table group's order when the handle is
made, and a semidirect product's order before its automorphism tables
are built.  It also sets a permutation group's storage budget, the
MAX_ELEMENTS * 256 bytes that that many elements of degree 256 take: its
order times its degree, at one byte a point as `bytes` and eight as a
tuple, must fit before it is enumerated.  The subgroup scan bound sits
beside `sylow.all_subgroups`.

The orbit kernels read id tables built once per group and kept in `G.memo`,
not products of single elements, and read a whole set through a table at
once: `itemgetter(*S)(t)` gathers the image of S with one C call.  Only
the first table is made of products; the others are lookups into it:

- `right_tables`: one table x -> x g per reduced generator g, n ids each,
  at n products per generator; a `PermGroup` reads them off its
  enumeration, which already composed every element with every
  generator (one `bytes.translate` each), at no products;
- `translation_tables`: one table x -> g^-1 x per reduced generator g,
  read as (x^-1 g)^-1 off the right tables and the inverses;
- `conjugation_tables`: one table x -> g^-1 x g per reduced generator g,
  read as (g^-1 x) g off the two above;
- `class_labels`: the class number of each id, n labels, recorded by the
  class BFS that `conjugacy_class_reps` runs over the conjugation tables;
  element orders are a class function, read off one power walk per class;
- `left_cosets`: one left-coset numbering per subgroup id-set a product,
  quotient or factor check is taken by, n labels and one representative
  per coset, walked over the translation tables with one `itemgetter`
  call per coset gathering its image;
- `coset_conjugation_tables`: for a normal subgroup K, one table per
  reduced generator over the |G:K| coset numbers, read off the two above.

So a `PermGroup` makes no products for its tables and classes, and a
`TableGroup` n per reduced generator.  Each table is a tuple, so callers
cannot change what the memo holds.  No Cayley table is built.
"""

from __future__ import annotations

import functools
from itertools import compress
from math import gcd, inf
from operator import itemgetter

from . import bsgs
from .perm import Perm


class Record:
    """A value record over `__slots__`: fields compare as a tuple, and the
    repr names each field but those in `_unshown`.  The records are written
    out by hand rather than made by `dataclasses`, so importing the package
    generates and runs no code."""

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # a mutable record is unhashable

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class FrozenRecord(Record):
    """A `Record` whose fields `__init__` sets once, through `_fix`; then
    they are read-only, and the record hashes by value."""

    __slots__ = ()

    def _fix(self, *values) -> None:
        for f, v in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, f, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())


# Desk-scale ceilings (see the module docstring); raise them deliberately.
MAX_ELEMENTS = 1_000_000  # the order of every handle, and of a semidirect product's tables
MAX_DEGREE = 4096  # the degree of every permutation group


class LimitExceeded(RuntimeError):
    """The computation would overrun a desk-scale ceiling: `MAX_ELEMENTS`
    or `MAX_DEGREE` here, the storage budget a permutation group's
    elements must fit (MAX_ELEMENTS elements of degree 256, as bytes), or
    `sylow.SUBGROUP_SCAN_BOUND`.  Each is checked before the memory it
    guards is allocated."""


def memo(fn):
    """Remember each result on the group that owns the call.

    The owner is the first argument, or its ambient group when that is a
    `Subgroup`.  Results live in `owner.memo[fn.__qualname__]`, keyed by the
    call's other positional arguments; a `Subgroup` first argument stays in
    the key.  So that one entry answers one call shape, `fn` must take no
    defaults, keyword-only parameters, *args or **kwargs, and is called by
    position only (a keyword call raises `TypeError`).  A stored list is
    handed out as a shallow copy, so callers may mutate what they get; a
    stored tuple, or any other value, is handed out as the stored object,
    so a function whose callers only read its sequence returns a tuple and
    its hits copy nothing.  A function's table is made on its first miss
    that returns, so a hit builds no empty table to throw away.
    """
    code = fn.__code__
    if code.co_flags & 0x0C or code.co_kwonlyargcount or fn.__defaults__:  # 0x0C: *args, **kwargs
        raise TypeError(f"memo cannot key {fn.__qualname__}: it takes defaults, "
                        "keyword-only parameters, *args or **kwargs")
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(first, /, *rest):
        if isinstance(first, Subgroup):
            owner, key = first.group, (first, *rest)
        else:
            owner, key = first, rest
        try:
            got = owner.memo[name][key]
        except KeyError:
            got = fn(first, *rest)
            owner.memo.setdefault(name, {})[key] = got
        return list(got) if type(got) is list else got

    return wrapper


class FiniteGroup:
    """Common face of the two backends, `PermGroup` and `TableGroup`.

    Subclasses fill in `order`, `_build`, `mul`, `inv` and `label` (a
    `TableGroup` sets `mul` and `inv` on the instance), and may read
    `right_tables` and `_generates` off tables they already hold, as a
    `PermGroup` does; everything else (element orders, conjugacy class
    representatives, generator reduction, subgroup constructors) is shared.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.memo: dict[str, dict] = {}
        self._n: int | None = None
        self._gen_ids: list[int] | None = None
        self._orders: tuple[int, ...] | None = None

    # -- subclass contract -------------------------------------------------

    def order(self) -> int:
        raise NotImplementedError

    def _build(self) -> None:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def label(self, a: int) -> str:
        raise NotImplementedError

    # -- materialisation -----------------------------------------------------

    def materialize(self) -> "FiniteGroup":
        if self._n is None:
            self._build()
        return self

    @property
    def n(self) -> int:
        self.materialize()
        assert self._n is not None
        return self._n

    @property
    def generator_ids(self) -> list[int]:
        self.materialize()
        assert self._gen_ids is not None
        return list(self._gen_ids)

    # -- shared machinery ----------------------------------------------------

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        return self.mul(self.mul(self.inv(g), a), g)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def element_order(self, a: int) -> int:
        """The order of a, read off a tuple over all ids.

        Order is a class function, so the tuple takes one power walk per
        class: walking the powers x^j of a representative x of order m also
        gives the class of each x^j its order m / gcd(j, m), and a class met
        that way is not walked again.
        """
        if self._orders is None:
            reps, labels = self.conjugacy_class_reps(), self.class_labels()
            mul = self.mul
            of = [0] * len(reps)
            for c, x in enumerate(reps):
                if of[c]:
                    continue
                powers = [x]
                while powers[-1] != 0:
                    powers.append(mul(powers[-1], x))
                m = len(powers)
                for j, y in enumerate(powers, 1):
                    of[labels[y]] = m // gcd(j, m)
            self._orders = tuple(map(of.__getitem__, labels))
        return self._orders[a]

    @memo
    def reduced_generator_ids(self) -> list[int]:
        """A greedily pruned generating subset; orbit loops run faster on it."""
        keep = list(dict.fromkeys(g for g in self.generator_ids if g != 0))
        for g in list(keep):
            if len(keep) == 1:
                break
            rest = [h for h in keep if h != g]
            if self._generates(rest):
                keep = rest
        return keep

    def _generates(self, gens: list[int]) -> bool:
        """Whether the ids `gens` generate the group."""
        return len(closure_ids(self, gens)) == self.n

    @memo
    def right_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each reduced generator g, the table x -> x g over all ids.

        Costs n products per generator, once per group.
        """
        n = self.n
        mul = self.mul
        return tuple(tuple([mul(x, g) for x in range(n)]) for g in self.reduced_generator_ids())

    @memo
    def translation_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each reduced generator g, the table x -> g^-1 x over all ids,
        read as (x^-1 g)^-1 off g's right table and the inverses.

        Costs n inverses and n lookups per generator, once per group.
        """
        inv = tuple(map(self.inv, range(self.n)))
        pick = itemgetter(*inv)  # one C call per table; n > 1 when a generator exists
        return tuple(itemgetter(*pick(r))(inv) for r in self.right_tables())

    @memo
    def conjugation_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each reduced generator g, the table x -> g^-1 x g over all ids,
        read as (g^-1 x) g off g's translation and right tables.

        Costs n lookups per generator, once per group.
        """
        return tuple(itemgetter(*t)(r)
                     for r, t in zip(self.right_tables(), self.translation_tables()))

    @memo
    def left_cosets(self, right: frozenset) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Number the left cosets g*right of a subgroup's id-set in scan order.

        Returns (labels, reps): labels[x] is the number of the coset holding
        x, and reps[c] is the least id of coset c, with cosets numbered by
        their least ids, so the identity's coset is 0.

        Left translation by g^-1 maps the coset x*right onto the coset
        (g^-1 x)*right, and the reduced generators generate G, so the
        cosets are the orbit of `right` under the translation tables: an
        image is a new coset when its first member is unlabelled (Holt,
        Eick & O'Brien, Handbook of Computational Group Theory, 2005, §4).
        Costs one lookup per coset and table, plus one `itemgetter` call
        that gathers each new coset's image, and no products once the
        translation tables exist; once per group and id-set.  The cosets of
        the trivial subgroup are the ids themselves, so that numbering is
        returned without a walk; every coset walked has two or more
        members, so each gather is a tuple.
        """
        if len(right) == 1:
            ids = tuple(range(self.n))
            return ids, ids
        labels = [-1] * self.n
        cosets = [list(right)]
        for m in right:
            labels[m] = 0
        tables = self.translation_tables()
        for coset in cosets:  # grows while it is walked
            for t in tables:
                if labels[t[coset[0]]] < 0:
                    c = len(cosets)
                    image = itemgetter(*coset)(t)
                    for y in image:
                        labels[y] = c
                    cosets.append(image)
        cosets.sort(key=min)
        number = [0] * len(cosets)
        for k, coset in enumerate(cosets):
            number[labels[coset[0]]] = k
        return tuple(map(number.__getitem__, labels)), tuple(map(min, cosets))

    @memo
    def coset_conjugation_tables(self, normal: frozenset) -> tuple[tuple[int, ...], ...]:
        """For each reduced generator g, the table c -> g^-1 (xK) g over the
        coset numbers of `left_cosets(normal)`, where K is a normal
        subgroup's id-set and x the representative of coset c.

        K is normal, so g^-1 (xK) g = (g^-1 x g)K: each entry is
        labels[t[reps[c]]] for g's conjugation table t.  Costs |G:K|
        lookups per generator and no products, once per group and K.
        """
        labels, reps = self.left_cosets(normal)
        return tuple(
            tuple([labels[t[r]] for r in reps]) for t in self.conjugation_tables()
        )

    @memo
    def conjugacy_class_reps(self) -> list[int]:
        """The least id of each class; the BFS also records `class_labels`."""
        tables = self.conjugation_tables()
        label = [-1] * self.n
        reps = []
        for a in range(self.n):
            if label[a] >= 0:
                continue
            c = label[a] = len(reps)
            reps.append(a)
            frontier = [a]
            while frontier:
                nxt = []
                for x in frontier:
                    for t in tables:
                        y = t[x]
                        if label[y] < 0:
                            label[y] = c
                            nxt.append(y)
                frontier = nxt
        self._class_labels = tuple(label)
        return reps

    def class_labels(self) -> tuple[int, ...]:
        """labels[x] is the position of x's class in `conjugacy_class_reps()`."""
        self.conjugacy_class_reps()
        return self._class_labels

    def is_abelian(self) -> bool:
        gens = self.generator_ids
        return all(
            self.mul(a, b) == self.mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    # -- subgroup constructors ------------------------------------------------

    @memo
    def trivial_subgroup(self) -> "Subgroup":
        """The trivial subgroup, one handle per group (its `gens` are
        handed out as a fresh empty list)."""
        return Subgroup(self, (0,), gens=())

    @memo
    def full_subgroup(self) -> "Subgroup":
        """The whole group, one handle per group; its id-set is copied from
        a set, so its table is sized for n ids (one grown from a range
        holds about twice the memory)."""
        self.materialize()
        return Subgroup(self, set(range(self.n)), gens=self.reduced_generator_ids())

    def generated(self, seed_ids) -> "Subgroup":
        seeds = [s for s in dict.fromkeys(seed_ids) if s != 0]
        return Subgroup(self, closure_ids(self, seeds), gens=seeds)

    def __repr__(self) -> str:
        tag = self.name or type(self).__name__
        return f"<{tag} order={self.order()}>"


# -- id-set algebra -----------------------------------------------------------


def closure_ids(G: FiniteGroup, seed_ids, *, prior: frozenset | None = None,
                bound: float = inf, stop: set | frozenset = frozenset()) -> frozenset:
    """Ids of the subgroup generated by the seeds, grown by right cosets.

    Seeds are adjoined in order (Dimino's algorithm).  When a seed lies
    outside the subgroup H generated by those before it, the new subgroup
    is a union of right cosets H*r.  Starting from r = 1, each
    representative r is multiplied by every seed so far; a product x
    outside the union adds its whole coset H*x, at |H| products, and
    becomes a representative.  The union holds an element exactly when it
    holds that element's coset, so once every representative has been
    tried it is closed under the seeds.  That is one product per new
    element plus one per representative and seed, where a breadth-first
    walk takes one per element and seed.

    `prior` is the closed id-set of all seeds but the last, when the
    caller has it; only the last seed is then adjoined.  Growth gives up,
    returning the empty set, once a new coset would pass `bound` ids or meet `stop`.
    """
    gens = [s for s in dict.fromkeys(seed_ids) if s != 0]
    if prior is None:
        els, start = [0], 0
    else:
        els, start = list(prior), max(len(gens) - 1, 0)
    have = set(els)
    mul = G.mul
    for k in range(start, len(gens)):
        if gens[k] in have:
            continue
        H = tuple(els)
        now = gens[: k + 1]
        reps = [0]
        for r in reps:  # grows while it is walked
            for g in now:
                x = mul(r, g)
                if x not in have:
                    if len(els) + len(H) > bound:
                        return frozenset()
                    reps.append(x)
                    coset = [mul(h, x) for h in H]
                    if stop and not stop.isdisjoint(coset):
                        return frozenset()
                    have.update(coset)
                    els += coset
    return frozenset(els)


def product_ids(G: FiniteGroup, left, right: frozenset) -> frozenset:
    """The product set left*right, where right is a subgroup's id-set.

    The result is the union of the left cosets a*right for a in left: one
    scan of the coset numbering of right (`G.left_cosets`, n entries stored
    per group and distinct right, walked over the translation tables) and
    no products.  Every caller in the package passes a normal subgroup as
    right.
    """
    labels = G.left_cosets(right)[0]
    want = set(map(labels.__getitem__, left))
    return frozenset(compress(range(G.n), map(want.__contains__, labels)))


class Subgroup:
    """A subgroup of a materialised group, held as a frozen set of ids.

    The sorted id sequence is the canonical identity: two references are the
    same subgroup exactly when group and id-set agree.
    """

    __slots__ = ("group", "ids", "_gens")

    def __init__(self, group: FiniteGroup, ids, gens=None):
        group.materialize()
        idset = frozenset(ids) or frozenset((0,))
        if 0 not in idset:
            raise ValueError("subgroup is missing the identity")
        if group.n % len(idset):
            raise ValueError(
                f"set of size {len(idset)} cannot be a subgroup of a group of order {group.n}"
            )
        self.group = group
        self.ids = idset
        self._gens = None if gens is None else [g for g in dict.fromkeys(gens) if g != 0]

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def index(self) -> int:
        return self.group.n // len(self.ids)

    @property
    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    @property
    def gens(self) -> list[int]:
        """A small generating list, computed greedily on first use."""
        if self._gens is None:
            gens: list[int] = []
            span = frozenset((0,))
            for e in sorted(self.ids):
                if e not in span:
                    gens.append(e)
                    span = closure_ids(self.group, gens, prior=span)
                    if span == self.ids:
                        break
            if span != self.ids:
                raise ValueError("id-set is not closed under the group product")
            self._gens = gens
        return list(self._gens)

    @property
    def is_trivial(self) -> bool:
        return len(self.ids) == 1

    @property
    def is_full(self) -> bool:
        return len(self.ids) == self.group.n

    def __contains__(self, a: int) -> bool:
        return a in self.ids

    def __le__(self, other: "Subgroup") -> bool:
        self._same_ambient(other)
        return self.ids <= other.ids

    def __lt__(self, other: "Subgroup") -> bool:
        self._same_ambient(other)
        return self.ids < other.ids

    def _same_ambient(self, other: "Subgroup") -> None:
        if self.group is not other.group:
            raise ValueError("subgroups live in different ambient groups")

    @memo
    def as_group(self) -> tuple["TableGroup", dict[int, int]]:
        """Re-root as a standalone group; also returns the ambient->new id map.

        The new ids number the ambient ids in sorted order, and the new
        handle computes through the ambient product, so the action is
        faithful by construction regardless of backend.
        """
        amb = self.group
        domain = sorted(self.ids)
        to_new = {a: i for i, a in enumerate(domain)}
        amul, ainv = amb.mul, amb.inv
        sub = TableGroup(
            len(domain),
            lambda a, b: to_new[amul(domain[a], domain[b])],
            lambda a: to_new[ainv(domain[a])],
            gens=[to_new[g] for g in self.gens],
            label_fn=lambda a: amb.label(domain[a]),
            name=f"{amb.name}|{len(domain)}" if amb.name else f"sub{len(domain)}",
        )
        return sub, to_new

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup) and self.group is other.group and self.ids == other.ids
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.ids))

    def __repr__(self) -> str:
        gens = ", ".join(self.group.label(g) for g in self.gens[:4])
        if len(self.gens) > 4:
            gens += ", ..."
        return f"<subgroup order={self.order} gens=[{gens}]>"


# -- permutation backend --------------------------------------------------------


class PermGroup(FiniteGroup):
    """Group generated by permutations; order comes from a stabilizer chain.

    The enumeration holds each element as its images.  Up to degree 256
    they are `bytes`, one byte a point: a * b is a.translate(b + pad),
    where pad fixes the points from the degree to 255, and the inverse of
    a is bytes.maketrans(a, identity) cut to the degree, one C call each.
    `translate` reads points as byte values, so a wider group holds tuples,
    composed by `itemgetter` and inverted point by point; the handle picks
    its path once, from its degree.  Callers see only ids and `Perm`s.
    """

    def __init__(
        self,
        gens,
        degree: int | None = None,
        name: str = "",
    ):
        super().__init__(name)
        gens = list(gens)
        for g in gens:
            if not isinstance(g, Perm):
                raise ValueError(f"not a Perm: {g!r}")
        degrees = {g.degree for g in gens}
        if len(degrees) > 1:
            raise ValueError(f"generator degrees disagree: {sorted(degrees)}")
        if degree is None:
            degree = degrees.pop() if degrees else 1
        elif degrees and degrees.pop() != degree:
            raise ValueError("explicit degree disagrees with the generators")
        if degree > MAX_DEGREE:
            raise LimitExceeded(f"degree {degree} exceeds the ceiling {MAX_DEGREE}")
        self.degree = degree
        self._small = degree <= 256  # `translate` reads each point as a byte value
        self._element = bytes if self._small else tuple
        if not self._small:
            self.mul = self._mul_tuples
        self._pad = bytes(range(degree, 256))  # fixes the points past the degree
        self._given = [g for g in dict.fromkeys(gens) if not g.is_identity()]
        self._order: int | None = None
        self._els: list = []  # each element's images, as `bytes` or a tuple
        self._ids: dict = {}
        self._inv_arr: list[int] = []
        self._right: dict[int, tuple[int, ...]] = {}

    def order(self) -> int:
        """|G| from a stabilizer chain; a group past `MAX_ELEMENTS` is refused
        as soon as a lower bound on its order passes the ceiling."""
        if self._order is None:
            ceiling = MAX_ELEMENTS
            got = bsgs.group_order([g.images for g in self._given], ceiling)
            if got > ceiling:
                raise LimitExceeded(
                    f"group of order at least {got} exceeds the element ceiling {ceiling}"
                )
            self._order = got
        return self._order

    def _build(self) -> None:
        order = self.order()  # refuses a group past the ceiling before enumerating it
        d = self.degree
        need, budget = order * d * (1 if self._small else 8), MAX_ELEMENTS * 256
        if need > budget:
            raise LimitExceeded(
                f"{order} elements of degree {d} take {need} bytes, past the storage "
                f"budget of {budget} ({MAX_ELEMENTS} elements of degree 256)"
            )
        ident = self._element(range(d))
        els = [ident]
        ids = {ident: 0}
        gens = [self._element(g.images) for g in self._given]
        # Breadth first: ids are handed out in the order the walk meets the
        # elements, and the walk takes them in id order, so each generator's
        # row collects its right table.  a.translate(g + pad) and
        # itemgetter(*a)(g) are both a * g, in one C call.
        rows = [(g + self._pad if self._small else g, []) for g in gens]
        for a in els:  # grows while it is walked
            step = a.translate if self._small else itemgetter(*a)
            for g, row in rows:
                b = step(g)
                got = ids.setdefault(b, len(els))
                if got == len(els):
                    els.append(b)
                row.append(got)
        self._els = els
        self._ids = ids
        self._n = len(els)
        if self._n != order:
            raise RuntimeError(
                f"enumeration found {self._n} elements but the stabilizer chain says {order}"
            )
        if self._small:
            # maketrans(a, identity) maps each a[i] to i: the inverse, padded to 256.
            self._inv_arr = [ids[bytes.maketrans(a, ident)[:d]] for a in els]
        else:
            inv = []
            for img in els:
                out = [0] * d
                for i, v in enumerate(img):
                    out[v] = i
                inv.append(ids[tuple(out)])
            self._inv_arr = inv
        self._gen_ids = [ids[g] for g in gens]
        self._right = {ids[g]: tuple(row) for g, (_, row) in zip(gens, rows)}

    def mul(self, a: int, b: int) -> int:
        # One C call: a.translate(b + pad) is the bytes (b[a[0]], b[a[1]], ...).
        els = self._els
        return self._ids[els[a].translate(els[b] + self._pad)]

    def _mul_tuples(self, a: int, b: int) -> int:
        # One C call: itemgetter(*a)(b) is the tuple (b[a[0]], b[a[1]], ...).
        els = self._els
        return self._ids[itemgetter(*els[a])(els[b])]

    def inv(self, a: int) -> int:
        return self._inv_arr[a]

    def right_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each reduced generator g, the table x -> x g, read off the
        enumeration: no products."""
        gens = self.reduced_generator_ids()  # materialises first
        return tuple(map(self._right.__getitem__, gens))

    def _generates(self, gens: list[int]) -> bool:
        """Whether the ids `gens` reach every id from the identity along
        their right tables: lookups, no products."""
        tables = [self._right[g] for g in gens]
        seen = bytearray(self.n)
        seen[0] = 1
        walk = [0]
        for x in walk:  # grows while it is walked
            for t in tables:
                y = t[x]
                if not seen[y]:
                    seen[y] = 1
                    walk.append(y)
        return len(walk) == self.n

    def perm(self, a: int) -> Perm:
        self.materialize()
        return Perm(self._els[a])

    def id_of_perm(self, p: Perm) -> int:
        self.materialize()
        got = self._ids.get(self._element(p.images)) if p.degree == self.degree else None
        if got is None:
            raise ValueError(f"{p!r} is not an element of {self!r}")
        return got

    def label(self, a: int) -> str:
        return self.perm(a).cycle_string()


# -- table backend ---------------------------------------------------------------


class TableGroup(FiniteGroup):
    """Group on the ids 0..n-1 with caller-supplied functions on ids.

    Id 0 must be the identity; `mul` and `inv` are set on the instance as
    given.  Semidirect products, quotients, re-rooted subgroups and flat
    product tables all compute on ids directly.
    """

    def __init__(
        self,
        n: int,
        mul,
        inv,
        gens=None,
        label_fn=None,
        name: str = "",
    ):
        super().__init__(name)
        if n > MAX_ELEMENTS:
            raise LimitExceeded(f"order {n} exceeds the element ceiling {MAX_ELEMENTS}")
        if n < 1:
            raise ValueError("empty group")
        if mul(0, 0) != 0:
            raise ValueError("id 0 is not the identity")
        self._order = n
        self.mul, self.inv = mul, inv
        self._label_fn = label_fn
        self._given_gens = list(gens) if gens is not None else None

    def order(self) -> int:
        return self._order

    def _build(self) -> None:
        n = self._n = self._order
        gens = list(range(1, n)) if self._given_gens is None else self._given_gens
        for g in gens:
            if not isinstance(g, int) or not 0 <= g < n:
                raise ValueError(f"generator {g!r} is not an id of the group")
        self._gen_ids = gens

    def label(self, a: int) -> str:
        return repr(a) if self._label_fn is None else self._label_fn(a)


# -- homomorphism extension --------------------------------------------------------


def hom_from_generators(G: FiniteGroup, gen_images: list[int], target_mul, target_identity=0):
    """Extend generator images to a homomorphism on all of G, or raise
    `ValueError` when they define none.

    The walk is breadth first from 1 (first in, first out, generators in
    order): each element's image is its parent's image times the image
    given for the generator that reached it.  The walk meets every
    (element, generator) pair once, and a pair whose product it has met
    before is checked against the image given for that generator, so a
    repeated generator's second image and an identity generator's image
    are checked too.  Returns the full image list.
    """
    gens = G.generator_ids
    if len(gen_images) != len(gens):
        raise ValueError("one image per generator, in order, is required")
    mul = G.mul
    phi: list = [None] * G.n
    phi[0] = target_identity
    walk = [0]
    for a in walk:  # grows while it is walked
        pa = phi[a]
        for g, img in zip(gens, gen_images):
            b = mul(a, g)
            got = target_mul(pa, img)
            if phi[b] is None:
                phi[b] = got
                walk.append(b)
            elif phi[b] != got:
                raise ValueError(f"element pair ({a}, {g}) breaks the homomorphism")
    if len(walk) != G.n:
        raise ValueError("stored generators do not generate the group")
    return phi


# -- semidirect products -------------------------------------------------------------


_KEPT = "a permutation group keeps the distinct non-identity ones"


def semidirect_product(N: FiniteGroup, Q: FiniteGroup, action, name="") -> TableGroup:
    """Build N x| Q from the action of Q's generators on N's generators.

    `action[i][j]` is the image of N's j-th generator under the automorphism
    attached to Q's i-th generator, given as an N element id or a Perm (for
    permutation-backed N).  The assignment is validated: each generator image
    list must extend to an automorphism of N, and the automorphisms must
    compose the way Q's generators multiply.

    The product is a table group on ids: the pair (n, q) has id n*|Q| + q
    and label "(n; q)", and (n1,q1)(n2,q2) = (n1 * q1(n2), q1 q2).
    """
    N.materialize()
    Q.materialize()
    if N.n * Q.n > MAX_ELEMENTS:  # the automorphism tables hold |Q| * |N| ids
        raise LimitExceeded(f"semidirect product of order {N.n * Q.n} exceeds the "
                            f"element ceiling {MAX_ELEMENTS}")
    ngens = N.generator_ids
    qgens = Q.generator_ids
    if len(action) != len(qgens):
        raise ValueError(f"need one action row per quotient generator: got {len(action)} rows, "
                         f"and the quotient keeps {len(qgens)} of the generators given ({_KEPT})")

    base_auts = []
    for qi, row in enumerate(action):
        row = list(row)
        if len(row) != len(ngens):
            raise ValueError(f"action row {qi} has {len(row)} images, and the normal part keeps "
                             f"{len(ngens)} of the generators given ({_KEPT})")
        images = [N.id_of_perm(x) if isinstance(x, Perm) else x for x in row]
        try:
            aut = hom_from_generators(N, images, N.mul)
        except ValueError as err:
            raise ValueError(f"action row {qi} does not define an endomorphism of the "
                             f"normal part: {err}") from None
        if len(set(aut)) != N.n:
            raise ValueError(f"action row {qi} defines a non-bijective endomorphism")
        base_auts.append(aut)

    # Extend q -> aut_q over all of Q as a homomorphism into Aut(N) (left action).
    def compose(pa, ga):
        return [pa[x] for x in ga]

    try:
        auts = hom_from_generators(Q, base_auts, compose, list(range(N.n)))
    except ValueError as err:
        raise ValueError(f"action is not a homomorphism into Aut(normal part): {err}") from None

    qn, nmul, qmul, ninv, qinv = Q.n, N.mul, Q.mul, N.inv, Q.inv

    def mul(a: int, b: int) -> int:
        n1, q1 = divmod(a, qn)
        n2, q2 = divmod(b, qn)
        return nmul(n1, auts[q1][n2]) * qn + qmul(q1, q2)

    def inv(a: int) -> int:
        n, q = divmod(a, qn)
        qi = qinv(q)
        return auts[qi][ninv(n)] * qn + qi

    def label(a: int) -> str:
        n, q = divmod(a, qn)
        return f"({N.label(n)}; {Q.label(q)})"

    return TableGroup(
        N.n * qn,
        mul,
        inv,
        gens=[g * qn for g in ngens] + qgens,
        label_fn=label,
        name=name,
    )


# -- quotients ------------------------------------------------------------------------


def is_normal(G: FiniteGroup, sub: Subgroup) -> bool:
    if sub.group is not G:
        raise ValueError("subgroup lives in a different group")
    ids = sub.ids
    return all(G.conj(m, g) in ids for g in G.reduced_generator_ids() for m in sub.gens)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[TableGroup, tuple[int, ...]]:
    """G/N plus the projection, as the coset number of each id of G.  The
    quotient's ids are coset numbers, in the order a scan of G's ids meets
    the cosets (so N is 0); products are taken through one representative
    per coset.  N is normal, so its left cosets are its cosets and the
    numbering is `G.left_cosets(N.ids)`, shared with `product_ids`."""
    G.materialize()
    if not is_normal(G, N):
        raise ValueError("cannot form the quotient: subgroup is not normal")
    labels, reps = G.left_cosets(N.ids)
    gmul, ginv = G.mul, G.inv
    quot = TableGroup(
        len(reps),
        lambda a, b: labels[gmul(reps[a], reps[b])],
        lambda a: labels[ginv(reps[a])],
        gens=[c for c in dict.fromkeys(labels[g] for g in G.generator_ids) if c],
        name=f"{G.name}/N{N.order}" if G.name else f"quotient{len(reps)}",
    )
    return quot, labels
