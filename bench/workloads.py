"""Inputs, library calls and independent answer checks for the three workloads.

Every poset is generated here from the seed as plain elements and relations
and reaches finhtop only through ``new_poset``; the suite's instances are
generated by the CLI from its own fixed battery seed.  The answer checks use
the benchmark's own bitmask orders (``Order``) and expected answers written
into this file, never finhtop's reduction or homology code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
from dataclasses import dataclass, field
from time import perf_counter

# Wrapped library functions are called through their modules, so that the
# traced run's wrappers see these calls too.
from finhtop import cli, reduction
from finhtop.homology import poset_homology
from finhtop.poset import new_poset
from finhtop.reduction import is_contractible
from spans import Tracer

# An item that runs longer than this, or raises, is a failed item.
ITEM_LIMIT_S = 30.0


class ItemTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ItemTimeout in the main thread once ``seconds`` of wall time pass."""

    def on_alarm(signum, frame):
        raise ItemTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def guarded(fn, limit: float = ITEM_LIMIT_S):
    """Run fn() under the item limit; returns (result, None) or (None, reason)."""
    try:
        with time_limit(limit):
            return fn(), None
    except ItemTimeout:
        return None, f"over the {limit:g} s item limit"
    except Exception as exc:  # a failed item is recorded and counted, never dropped
        return None, f"{type(exc).__name__}: {exc}"


def clear_caches() -> None:
    # Every CLI invocation starts with empty caches, so every pass does too.
    poset_homology.cache_clear()
    is_contractible.cache_clear()


def cache_counts() -> dict[str, int]:
    h, c = poset_homology.cache_info(), is_contractible.cache_info()
    return {
        "homology.cache.hits": h.hits,
        "homology.cache.misses": h.misses,
        "reduction.contractible_cache.hits": c.hits,
        "reduction.contractible_cache.misses": c.misses,
    }


@dataclass
class PassResult:
    wall_s: float
    item_s: list[float]
    failures: list[str]
    caches: dict[str, int] = field(default_factory=dict)


# -- the benchmark's own orders --------------------------------------------------


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A finite order as strict up- and down-set bitmasks over element indices."""

    def __init__(self, elements, relations):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        succ = [0] * n
        for a, b in relations:
            succ[self.index[a]] |= 1 << self.index[b]
        up: list[int | None] = [None] * n

        def close(i: int) -> int:
            if up[i] is None:
                m = 0
                for j in bits(succ[i]):
                    m |= (1 << j) | close(j)
                up[i] = m
            return up[i]

        self.up = [close(i) for i in range(n)]
        self.down = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                self.down[j] |= 1 << i
        self.full = (1 << n) - 1

    def chain_count(self) -> int:
        """Nonempty chains, i.e. simplices of the order complex."""
        starting_at = {}
        for i in sorted(range(len(self.up)), key=lambda i: self.up[i].bit_count()):
            starting_at[i] = 1 + sum(starting_at[j] for j in bits(self.up[i]))
        return sum(starting_at.values())

    def covers_above(self, x: int, s: int) -> list[int]:
        above = self.up[x] & s
        return [y for y in bits(above) if not self.down[y] & above]

    def covers_below(self, x: int, s: int) -> list[int]:
        below = self.down[x] & s
        return [y for y in bits(below) if not self.up[y] & below]

    def is_beat(self, x: int, s: int) -> bool:
        return len(self.covers_above(x, s)) == 1 or len(self.covers_below(x, s)) == 1

    def dismantle(self, s: int) -> int:
        """Remove beat points of the induced suborder on s until none is left."""
        changed = True
        while changed:
            changed = False
            for x in bits(s):
                if s & (s - 1) and self.is_beat(x, s):
                    s &= ~(1 << x)
                    changed = True
        return s

    def contractible(self, s: int) -> bool:
        rest = self.dismantle(s)
        return rest != 0 and rest & (rest - 1) == 0

    def step_holds(self, x: int, kind: str, s: int) -> bool:
        if kind == "up-beat":
            return len(self.covers_above(x, s)) == 1
        if kind == "down-beat":
            return len(self.covers_below(x, s)) == 1
        if kind == "up-weak":
            return self.contractible(self.up[x] & s)
        if kind == "down-weak":
            return self.contractible(self.down[x] & s)
        # Gamma steps need a triviality decision this checker does not make.
        return False

    def replay(self, steps) -> int | None:
        """The element set left after the steps, or None if a step does not hold."""
        s = self.full
        for name, kind in steps:
            x = self.index.get(name)
            if x is None or not s >> x & 1 or not self.step_holds(x, kind, s):
                return None
            s &= ~(1 << x)
        return s

    def names(self, s: int) -> set[str]:
        return {self.elements[i] for i in bits(s)}


def relabel(elements, relations, rng: random.Random, prefix: str):
    """Fresh names in a shuffled element order; the order itself is unchanged."""
    codes = list(range(len(elements)))
    rng.shuffle(codes)
    name = {e: f"{prefix}{c}" for e, c in zip(elements, codes)}
    new_elements = [name[e] for e in elements]
    rng.shuffle(new_elements)
    new_relations = [(name[a], name[b]) for a, b in relations]
    rng.shuffle(new_relations)
    return new_elements, new_relations


# -- homology: a fixed ladder with known answers ---------------------------------


def sphere(k: int):
    """Minimal finite model of S^k: k+1 levels of two points, each below the next."""
    levels = [(f"a{i}", f"b{i}") for i in range(k + 1)]
    elements = [e for level in levels for e in level]
    relations = [(x, y) for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi]
    return elements, relations


def cone(elements, relations):
    tails = {a for a, _ in relations}
    return elements + ["top"], relations + [(e, "top") for e in elements if e not in tails]


def chain_order(n: int):
    elements = [f"c{i}" for i in range(n)]
    return elements, list(zip(elements, elements[1:]))


# The 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = (
    "123", "134", "145", "156", "162", "235", "346", "452", "563", "624",
)


def face_order(facets):
    """Nonempty faces of the complex, ordered by inclusion."""
    faces = set()
    for f in facets:
        for mask in range(1, 1 << len(f)):
            faces.add("".join(sorted(v for i, v in enumerate(f) if mask >> i & 1)))
    relations = [
        (f[:i] + f[i + 1 :], f) for f in sorted(faces) if len(f) > 1 for i in range(len(f))
    ]
    return sorted(faces), relations


def chain_poset(elements, relations):
    """Nonempty chains of an order, ordered by inclusion: the face poset of
    its order complex."""
    order = Order(elements, relations)
    chains: list[tuple[int, ...]] = []

    def grow(c: tuple[int, ...]):
        chains.append(c)
        for j in bits(order.up[c[-1]]):
            grow(c + (j,))

    for i in range(len(elements)):
        grow((i,))
    name = {c: "|".join(elements[i] for i in c) for c in chains}
    rels = [
        (name[c[:i] + c[i + 1 :]], name[c]) for c in chains if len(c) > 1 for i in range(len(c))
    ]
    return [name[c] for c in chains], rels


def _sphere_answer(k: int):
    return (1,) + (0,) * (k - 1) + (1,), ((),) * (k + 1)


_POINT = ((1,), ((),))
_RP2 = ((1, 0), ((), (2,)))

# (name, inputs, expected (betti, torsion), order-complex simplices)
RUNGS = [
    *((f"s{k}", lambda k=k: sphere(k), _sphere_answer(k), 3 ** (k + 1) - 1) for k in range(2, 7)),
    ("rp2", lambda: face_order(RP2_TRIANGLES), _RP2, 181),
    ("rp2-sd", lambda: chain_poset(*face_order(RP2_TRIANGLES)), _RP2, 1081),
    ("chain10", lambda: chain_order(10), _POINT, 1023),
    ("cone-s5", lambda: cone(*sphere(5)), _POINT, 1457),
]


@dataclass
class Rung:
    name: str
    poset: object
    expected: tuple
    simplices: int


class Homology:
    """One poset_homology call per rung; the seed relabels and reorders."""

    def __init__(self, seed: int):
        rng = random.Random(f"homology/{seed}")
        self.items = []
        for name, build, expected, simplices in RUNGS:
            elements, relations = relabel(*build(), rng, "h")
            if Order(elements, relations).chain_count() != simplices:
                raise RuntimeError(f"rung {name} has the wrong number of simplices")
            self.items.append(Rung(name, new_poset(elements, relations), expected, simplices))
        rng.shuffle(self.items)
        self.items_per_pass = len(self.items)
        self.simplices = sum(r.simplices for r in self.items)

    def run_pass(self) -> PassResult:
        clear_caches()
        outputs, times = [], []
        start = perf_counter()
        for rung in self.items:
            t = perf_counter()
            outputs.append(guarded(lambda: poset_homology(rung.poset)))
            times.append(perf_counter() - t)
        wall = perf_counter() - start
        caches = cache_counts()
        failures = []
        for rung, (profile, error), t in zip(self.items, outputs, times):
            if error is None and t > ITEM_LIMIT_S:
                error = f"over the {ITEM_LIMIT_S:g} s item limit"
            if error is None and (profile.betti, profile.torsion) != rung.expected:
                error = f"profile {profile.betti} {profile.torsion}, expected {rung.expected}"
            if error is not None:
                failures.append(f"{rung.name}: {error}")
        return PassResult(wall, times, failures, caches)


# -- reduce: a seeded population through core, oracle, search and replay -----------

# The 11-point poset that is collapsible but not contractible.
W_RELATIONS = [
    ("1", "5"), ("1", "6"), ("2", "5"), ("2", "7"), ("3", "6"), ("3", "8"),
    ("4", "7"), ("4", "8"), ("5", "9"), ("5", "10"), ("6", "9"), ("6", "10"),
    ("7", "10"), ("7", "11"), ("8", "10"), ("8", "11"),
]
W_ELEMENTS = [str(i) for i in range(1, 12)]

RANDOM_PER_SIZE = 100  # random posets with 12 and with 20 elements, density 0.3
CYLINDERS = 100  # mapping cylinders of random maps between 15-element posets
W_COPIES = 5  # relabeled copies of each suspension S^1(W) .. S^4(W)
# Each random input is redrawn until its order complex has a size in the
# band of its family, about half to twice the family's median.  The chain
# count of a random order is heavy-tailed (one 20-element draw in a hundred
# can hold a tenth of all chains), and the reduction's cost does not follow
# it.  Without the bands a seed's total ranged from 411,070 to 594,898 chains
# over seeds 0..9, and simplices_per_s with it; with them it stays within 2 %.
CHAIN_BANDS = {"random12": (60, 200), "random20": (1000, 3500), "cylinder": (700, 2200)}


def random_order(rng: random.Random, n: int, density: float, prefix: str):
    elements = [f"{prefix}{i}" for i in range(n)]
    relations = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return elements, relations


def monotone_map(rng: random.Random, source: Order, target: Order) -> list[int]:
    """A random order-preserving map by index; a constant map if greedy draws strand."""
    for _ in range(20):
        image: list[int] = []
        for i in range(len(source.elements)):  # index order is a linear extension
            allowed = target.full
            for z in bits(source.down[i]):
                allowed &= target.up[image[z]] | (1 << image[z])
            if not allowed:
                break
            image.append(rng.choice(list(bits(allowed))))
        else:
            return image
    return [rng.randrange(len(target.elements))] * len(source.elements)


def mapping_cylinder(rng: random.Random, n: int, density: float):
    src_els, src_rels = random_order(rng, n, density, "s")
    tgt_els, tgt_rels = random_order(rng, n, density, "t")
    image = monotone_map(rng, Order(src_els, src_rels), Order(tgt_els, tgt_rels))
    links = [(src_els[i], tgt_els[j]) for i, j in enumerate(image)]
    return src_els + tgt_els, src_rels + tgt_rels + links


def suspension(elements, relations, k: int):
    """k-fold non-Hausdorff suspension: two new maximal points above everything."""
    for level in range(k):
        tails = {a for a, _ in relations}
        tops = [e for e in elements if e not in tails]
        pair = [f"n{level}a", f"n{level}b"]
        relations = relations + [(t, p) for t in tops for p in pair]
        elements = elements + pair
    return elements, relations


@dataclass
class ReduceItem:
    kind: str  # "oracle" or "search"
    poset: object
    order: Order
    checked: object = None  # the last output that passed the answer check


class Reduce:
    """Core, oracle and replay on random posets and cylinders; collapse search
    and replay on suspensions of W."""

    def __init__(self, seed: int):
        rng = random.Random(f"reduce/{seed}")

        def banded(family: str, draw):
            low, high = CHAIN_BANDS[family]
            while True:
                elements, relations = draw()
                if low <= Order(elements, relations).chain_count() <= high:
                    return "oracle", (elements, relations)

        specs = []
        for n in (12, 20):
            specs += [
                banded(f"random{n}", lambda: random_order(rng, n, 0.3, "x"))
                for _ in range(RANDOM_PER_SIZE)
            ]
        specs += [
            banded("cylinder", lambda: mapping_cylinder(rng, 15, 0.3)) for _ in range(CYLINDERS)
        ]
        for k in range(1, 5):
            for _ in range(W_COPIES):
                specs.append(("search", relabel(*suspension(W_ELEMENTS, W_RELATIONS, k), rng, "w")))
        rng.shuffle(specs)
        self.items = [
            ReduceItem(kind, new_poset(els, rels), Order(els, rels)) for kind, (els, rels) in specs
        ]
        self.items_per_pass = len(self.items)
        self.simplices = sum(item.order.chain_count() for item in self.items)

    @staticmethod
    def _run(item: ReduceItem):
        p = item.poset
        if item.kind == "search":
            seq = reduction.collapse_search(p)
            return seq, seq is not None and reduction.verify_removal_sequence(p, seq)
        reduced, seq = reduction.core(p)
        verdict = reduction.triviality_oracle(p)
        replayed = reduction.verify_removal_sequence(p, seq)
        if verdict.is_trivial():
            trivial = verdict.evidence["sequence"]
            replayed = replayed and reduction.verify_removal_sequence(p, trivial)
        return reduced, seq, verdict, replayed

    def run_pass(self) -> PassResult:
        clear_caches()
        outputs, times = [], []
        start = perf_counter()
        for item in self.items:
            t = perf_counter()
            outputs.append(guarded(lambda: self._run(item)))
            times.append(perf_counter() - t)
        wall = perf_counter() - start
        caches = cache_counts()
        failures = []
        for k, (item, (out, error), t) in enumerate(zip(self.items, outputs, times)):
            if error is None and t > ITEM_LIMIT_S:
                error = f"over the {ITEM_LIMIT_S:g} s item limit"
            if error is None:
                error = self._check(item, out)
            if error is not None:
                failures.append(f"item {k} ({item.kind}): {error}")
        return PassResult(wall, times, failures, caches)

    @staticmethod
    def _check(item: ReduceItem, out) -> str | None:
        if item.kind == "search":
            seq, replayed = out
            signature = None if seq is None else (seq.steps, replayed)
        else:
            reduced, seq, verdict, replayed = out
            trivial_steps = verdict.evidence["sequence"].steps if verdict.is_trivial() else None
            signature = (reduced.elements, seq.steps, verdict.verdict, trivial_steps, replayed)
        if signature is not None and signature == item.checked:
            return None  # the same answer passed this check in an earlier pass
        order = item.order
        if item.kind == "search":
            if seq is None:
                return "collapse_search found no sequence for a collapsible poset"
            if not replayed:
                return "verify_removal_sequence rejected the search result"
            left = order.replay(seq.steps)
            if left is None or left.bit_count() != 1:
                return "search sequence does not collapse to a point"
        else:
            if not replayed:
                return "verify_removal_sequence rejected a returned sequence"
            if any(kind not in ("up-beat", "down-beat") for _, kind in seq.steps):
                return "core returned a non-beat step"
            left = order.replay(seq.steps)
            if left is None or order.names(left) != set(reduced.elements):
                return "core sequence does not replay to the returned core"
            if left & (left - 1) and any(order.is_beat(x, left) for x in bits(left)):
                return "returned core still has a beat point"
            if verdict.verdict == "Trivial":
                rest = order.replay(trivial_steps)
                if rest is None or rest.bit_count() != 1:
                    return "Trivial verdict's sequence does not replay to a point"
            elif verdict.verdict == "NonTrivial":
                if order.contractible(order.full):
                    return "NonTrivial verdict for a dismantlable poset"
            else:
                return f"oracle answered {verdict.verdict} on a decided input"
        item.checked = signature
        return None


# -- suite: the check-all battery through the CLI ------------------------------------

# The battery behind `finhtop check all`, in its output order, with its counts.
BATTERY = (
    ("ubp", 10), ("maximum", 10), ("homotopy", 8), ("dbp", 8), ("dbpgen", 8),
    ("up-wp", 4), ("cofinality", 8), ("thomason", 10), ("barycentric", 5),
    ("index-contractible", 5), ("gamma-index", 4),
)
BATTERY_SEED = 0
# sha256 of `finhtop --format json check all --seed 0` at the seed library.
BATTERY_SHA256 = "611ca7ca517d2a84b9897ba3fbeee636f1e355eb354176d6bdab7a66ffa16b87"

CHECKERS = {
    "check_ubp": "ubp", "check_maximum": "maximum", "check_homotopy_lemma": "homotopy",
    "check_dbp": "dbp", "check_dbpgen": "dbpgen", "check_up_wp": "up-wp",
    "check_cofinality": "cofinality", "check_thomason_roundtrip": "thomason",
    "check_barycentric": "barycentric", "check_index_contractible": "index-contractible",
    "check_gamma_index": "gamma-index",
}


class Suite:
    """Each theorem family of the battery as its own CLI call, in seeded order.

    The battery seed stays fixed: its cost varies tenfold between battery
    seeds (1.1 s to 11.6 s over seeds 0..15), which no run length averages
    out.  The workload seed orders the families, and every call starts cold.
    A check's latency is the span of its checker function.
    """

    def __init__(self, seed: int, tracer: Tracer):
        self.tracer = tracer
        tracer.install(
            [("finhtop.verify.checks", fn, f"verify.{t}", None) for fn, t in CHECKERS.items()]
        )
        self.order = list(BATTERY)
        random.Random(f"suite/{seed}").shuffle(self.order)
        self.items_per_pass = sum(n for _, n in BATTERY)
        self.simplices = None  # counted by the runner in the warm-up pass

    def run_pass(self) -> PassResult:
        outputs = {}
        caches: dict[str, int] = {}
        first_span = len(self.tracer.names)
        start = perf_counter()
        for theorem, count in self.order:
            clear_caches()
            argv = ["--format", "json", "check", theorem, "--random", str(count),
                    "--seed", str(BATTERY_SEED), "--budget", "100000"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code, error = guarded(lambda: cli.main(argv))
            outputs[theorem] = (code, error, out.getvalue())
            for k, v in cache_counts().items():
                caches[k] = caches.get(k, 0) + v
        wall = perf_counter() - start
        checker_spans = self.tracer.item_spans(
            first_span, {f"verify.{t}" for t in CHECKERS.values()}
        )
        times = [d for _, d in checker_spans]
        failures = []
        reports = []
        for theorem, count in BATTERY:
            code, error, text = outputs[theorem]
            mine = [d for name, d in checker_spans if name == f"verify.{theorem}"]
            done = len(mine)
            slow = sum(1 for d in mine if d > ITEM_LIMIT_S)
            try:
                family = json.loads(text) if error is None else []
            except json.JSONDecodeError as exc:
                error = f"unparsable output: {exc}"
                family = []
            if error is None and code not in (0, 1):
                error = f"exit code {code}"
            if error is None and (len(family) != count or done != count):
                error = f"{len(family)} reports and {done} checker calls, expected {count}"
            if error is not None:
                failures += [f"{theorem}: {error}"] * count
                continue
            refuted = sum(1 for r in family if r.get("conclusion_status") == "Refuted")
            failures += [f"{theorem}: Refuted"] * refuted
            failures += [f"{theorem}: over the {ITEM_LIMIT_S:g} s item limit"] * slow
            reports += family
        text = json.dumps(reports, sort_keys=True, indent=2) + "\n"
        if hashlib.sha256(text.encode()).hexdigest() != BATTERY_SHA256:
            failures = ["battery output differs from the reference bytes"] * self.items_per_pass
        return PassResult(wall, times, failures, caches)


WORKLOADS = {"suite": Suite, "homology": Homology, "reduce": Reduce}
