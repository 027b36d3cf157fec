"""Partitions, multipartitions, compositions, and permutation words.

All values are immutable tuples.  A multipartition carries its (p, d)
context explicitly: the same r-tuple of partitions means different things
for different factorizations r = p*d, so the context is never inferred.

A multipartition derives its composition and its orbit order under the
block shift once, on first use, and keeps them.  Values derived from a
validated multipartition (its shifts, its orbit slice) are built without
checking their parts again; the public constructor checks everything.

Permutations are tuples ``img`` with ``img[i-1]`` the image of i, and
words act left to right: ``(i)(uv) = ((i)u)v``.
"""

from functools import lru_cache
from itertools import product as _cartesian


# ---------------------------------------------------------------------------
# partitions

def _int_parts(parts, what: str) -> tuple:
    """The parts as a tuple; each must be an int (a bool is not)."""
    parts = tuple(parts)
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} parts must be integers, got {x!r}")
    return parts


def check_partition(parts) -> tuple:
    parts = _int_parts(parts, "partition")
    for i, x in enumerate(parts):
        if x <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i + 1 < len(parts) and parts[i + 1] > x:
            raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def conjugate_partition(la) -> tuple:
    if not la:
        return ()
    return tuple(sum(1 for x in la if x > j) for j in range(la[0]))


def beta(la) -> int:
    """Sum of (i-1)*la_i over the rows, i starting at 1."""
    return sum(i * x for i, x in enumerate(la))


def partitions(m: int):
    """All partitions of m, largest first part first."""
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    for first in range(m, 0, -1):
        for rest in partitions(m - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


# ---------------------------------------------------------------------------
# permutations

def reduced_word(w: tuple) -> list:
    """A reduced word for w, to be applied left to right."""
    img = list(w)
    word = []
    i = 0
    while i < len(img) - 1:
        if img[i] > img[i + 1]:
            # stripping s_i from the left shortens w
            word.append(i + 1)
            img[i], img[i + 1] = img[i + 1], img[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return word


def wab_perm(a: int, b: int) -> tuple:
    """The block swap moving {1..a} past {a+1..a+b} in S_{a+b}.

    Equals (s_{a+b-1} ... s_1)^b and has length a*b.
    """
    if a < 0 or b < 0:
        raise ValueError(f"block sizes out of range: {a}, {b}")
    return tuple(range(b + 1, a + b + 1)) + tuple(range(1, b + 1))


def wb_perm(b) -> tuple:
    """The composition shuffle: block t moves past all later blocks."""
    b = check_composition(b)
    n = sum(b)
    img = [0] * n
    before = 0
    for t, bt in enumerate(b):
        after = sum(b[t + 1:])
        for c in range(1, bt + 1):
            img[before + c - 1] = after + c
        before += bt
    return tuple(img)


# ---------------------------------------------------------------------------
# compositions

def check_composition(b) -> tuple:
    b = _int_parts(b, "composition")
    if any(x < 0 for x in b):
        raise ValueError(f"composition parts must be nonnegative: {b}")
    return b


def partial_sum(b, i: int, j: int) -> int:
    """b_i + ... + b_j with 1-based inclusive bounds; 0 when i > j."""
    if i > j:
        return 0
    return sum(b[i - 1:j])


def _rotation_order(blocks: tuple) -> tuple:
    """(o, p/o) with o the least positive rotation fixing the p blocks."""
    p = len(blocks)
    for o in range(1, p + 1):
        if p % o == 0 and blocks[o:] + blocks[:o] == blocks:
            return o, p // o
    raise RuntimeError(f"internal: no rotation fixes {p} blocks")


def alpha(b) -> int:
    return sum((i + 1) * x for i, x in enumerate(b))


def comp_stats(b) -> tuple:
    """(alpha(b), length of wb_perm(b))."""
    b = check_composition(b)
    p = len(b)
    l_wb = sum(b[i] * b[j] for i in range(p) for j in range(i + 1, p))
    return alpha(b), l_wb


def compositions(n: int, p: int):
    """All weak compositions of n into p >= 1 parts, lexicographically."""
    if p < 1:
        raise ValueError(f"a composition needs p >= 1 parts, got p={p}")
    if p == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, p - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# multipartitions

class Multipartition:
    """An r-tuple of partitions with explicit (p, d) context, r = p*d."""

    __slots__ = ("p", "d", "comps", "_composition", "_orbit_order")

    def __init__(self, p: int, d: int, comps):
        _int_parts((p, d), "(p, d) context")
        if p < 1 or d < 1:
            raise ValueError("need p >= 1 and d >= 1")
        comps = tuple(check_partition(c) for c in comps)
        if len(comps) != p * d:
            raise ValueError(
                f"expected {p * d} components for (p, d) = ({p}, {d}), "
                f"got {len(comps)}"
            )
        self.p = p
        self.d = d
        self.comps = comps
        self._composition = None
        self._orbit_order = None

    @classmethod
    def _derived(cls, p: int, d: int, comps: tuple) -> "Multipartition":
        """A value made from the parts of a validated one, not rechecked."""
        out = object.__new__(cls)
        out.p = p
        out.d = d
        out.comps = comps
        out._composition = None
        out._orbit_order = None
        return out

    @property
    def r(self) -> int:
        return self.p * self.d

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.comps)

    def component(self, s: int) -> tuple:
        if not 1 <= s <= self.r:
            raise ValueError(f"component index out of range: {s}")
        return self.comps[s - 1]

    def block(self, t: int) -> tuple:
        """The t-th d-tuple of components, t taken mod p into 1..p."""
        t = (t - 1) % self.p + 1
        return self.comps[self.d * (t - 1): self.d * t]

    def blocks(self) -> tuple:
        return tuple(self.block(t) for t in range(1, self.p + 1))

    def composition(self) -> tuple:
        """Block sizes (|block 1|, ..., |block p|)."""
        if self._composition is None:
            self._composition = tuple(
                sum(sum(c) for c in blk) for blk in self.blocks())
        return self._composition

    def shift(self, k: int) -> "Multipartition":
        """Cyclic block shift: block t of the result is block t+k of self."""
        k %= self.p
        cut = self.d * k
        out = Multipartition._derived(
            self.p, self.d, self.comps[cut:] + self.comps[:cut])
        # a shift rotates the composition and keeps the orbit order
        if self._composition is not None:
            out._composition = self._composition[k:] + self._composition[:k]
        out._orbit_order = self._orbit_order
        return out

    def orbit_order(self) -> tuple:
        """(o, p/o) with o the least positive block shift fixing self."""
        if self._orbit_order is None:
            self._orbit_order = _rotation_order(self.blocks())
        return self._orbit_order

    def orbit_slice(self) -> "Multipartition":
        """The first o blocks, which repeat to give the whole tuple."""
        o, _ = self.orbit_order()
        return Multipartition._derived(o, self.d, self.comps[: o * self.d])

    def dominates(self, other: "Multipartition") -> bool:
        if (self.p, self.d) != (other.p, other.d):
            raise ValueError("multipartition context mismatch")
        if self.size != other.size:
            raise ValueError("multipartition size mismatch")
        head_self = 0
        head_other = 0
        for s in range(self.r):
            la, mu = self.comps[s], other.comps[s]
            depth = max(len(la), len(mu))
            run_self, run_other = 0, 0
            for i in range(depth):
                run_self += la[i] if i < len(la) else 0
                run_other += mu[i] if i < len(mu) else 0
                if head_self + run_self < head_other + run_other:
                    return False
            head_self += run_self
            head_other += run_other
        return True

    def sort_key(self) -> tuple:
        key = []
        for c in self.comps:
            key.append(sum(c))
            key.extend(c)
        return tuple(key)

    def to_json(self) -> list:
        return [list(c) for c in self.comps]

    def __eq__(self, other):
        return (
            isinstance(other, Multipartition)
            and (self.p, self.d, self.comps) == (other.p, other.d, other.comps)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.comps))

    def __repr__(self):
        body = ",".join(repr(list(c)) for c in self.comps)
        return f"Multipartition(p={self.p},d={self.d},[{body}])"


def component_index(s: int, p: int, d: int) -> tuple:
    """Split s in 1..p*d as s = d*(p_s - 1) + d_s with 1 <= d_s <= d."""
    if not 1 <= s <= p * d:
        raise ValueError(f"component index out of range: {s}")
    return (s - 1) // d + 1, (s - 1) % d + 1


def multipartition_tuples(d: int, m: int):
    """All d-tuples of partitions with total size m, d >= 1."""
    if d < 1:
        raise ValueError(f"a tuple of partitions needs d >= 1, got d={d}")
    if d == 1:
        for la in partitions(m):
            yield (la,)
        return
    for first_size in range(m + 1):
        for la in partitions(first_size):
            for rest in multipartition_tuples(d - 1, m - first_size):
                yield (la,) + rest


def enumerate_pdb(d: int, b) -> list:
    """All multipartitions whose t-th block has size b_t, sorted."""
    b = check_composition(b)
    p = len(b)
    out = []
    for choice in _cartesian(*(multipartition_tuples(d, bt) for bt in b)):
        comps = [c for blk in choice for c in blk]
        out.append(Multipartition(p, d, comps))
    out.sort(key=Multipartition.sort_key)
    return out


# one entry per (p, d, n): the desk criteria enumerate 38 cells and a
# benchmark pass 20, and the largest of them, (3, 2, 6), holds 2,492
# labels in about 1 MB
ENUMERATION_CACHE_SIZE = 64


def enumerate_all(p: int, d: int, n: int) -> list:
    """All (p*d)-multipartitions of n, grouped by nothing, sorted.

    The labels of each (p, d, n) are enumerated once per process and
    kept in a bounded memo (LRU, ENUMERATION_CACHE_SIZE cells) keyed by
    the exact types of the arguments, so ``d=True`` or ``d=1.0`` is
    refused as before and never reads the entry of ``d=1``.  Each call
    returns a fresh list, which the caller may change; its labels are
    the shared values, whose composition and orbit order stay filled
    once a caller has asked for them.
    """
    return list(_enumerate_sorted(p, d, n))


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE, typed=True)
def _enumerate_sorted(p: int, d: int, n: int) -> tuple:
    out = []
    for b in compositions(n, p):
        out.extend(enumerate_pdb(d, b))
    out.sort(key=Multipartition.sort_key)
    return tuple(out)


def class_reps(items, b) -> list:
    """One representative per shift class, minimal in sort order.

    The items all have composition b, so only shifts by multiples of the
    orbit order of b keep them inside the set.
    """
    step, _ = _rotation_order(check_composition(b))
    seen = set()
    reps = []
    for la in sorted(items, key=Multipartition.sort_key):
        if la in seen:
            continue
        reps.append(la)
        for k in range(0, la.p, step):
            seen.add(la.shift(k))
    return reps
