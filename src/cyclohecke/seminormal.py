"""Faithful seminormal matrix models of the cyclotomic Hecke algebra.

Modules are right modules with the standard tableaux as basis, so a word
in the generators evaluates to the matrix product taken in the same
order.  T_0 is the diagonal of first contents; its cyclotomic relation
with parameters (eps Q_1, ..., eps^p Q_d) is what pins down the content
convention.

Each generator is stored in one form.  L_k and T_0 = L_1 are
diagonals; T_i for i >= 1 is sparse rows with at most two nonzero
entries each.  The value of a word (`eval_word`) is a matrix in the
same sparse rows, built by multiplying on the right by those rows or
diagonals, and every relation is checked on such values.
"""

from functools import lru_cache
from random import Random

from .combin import Multipartition, enumerate_all
from .exactnum import GenericField, PoleError, sample_point
from .matrices import rows_diag, rows_mul, rows_scale_cols, rows_trace
from .tableau import (_content_value, beta_coeff, content_exponents,
                      count_std, enumerate_std)


class SeminormalRep:
    """Exact seminormal action of T_0..T_{n-1} and L_1..L_n on the direct
    sum of the Specht modules of a tuple of shapes, all of one size n.

    The modules lie end to end: `blocks` lists each shape with the
    indices lo <= a < hi of its basis tableaux, and every generator is
    block diagonal, so the value of a word is its values on the modules
    laid along the diagonal.  One shape is the module itself
    (`build_rep`).

    What depends only on a shape is computed once per process and
    shared by the reps over every field (`_shape_skeleton`, LRU,
    SHAPE_CACHE_SIZE shapes): the basis of standard tableaux; the
    exponents of every content; and, for each T_i, which basis tableau
    the swap of i and i+1 lands on.  A rep lays those out end to end
    and computes the values over its field: the contents, one object
    per exponents (e, h, c) over all its blocks; the seminormal ratio
    beta (`tableau.beta_coeff`) once per pair of content objects of i
    and i+1, keyed by their identities, and 1 + beta once per such pair
    that a swap reads, so equal pairs share one object in every T_i and
    block; and the check that T_k L_k T_k = q L_{k+1}.  beta_coeff
    raises PoleError when two contents collide, at the first block
    that holds the pair.  Both checks cover every block, and a failure
    names the shape of its block.

    L_k is stored as its diagonal, the k-th contents of the basis
    tableaux (`l_diagonal`), and T_0 = L_1.  T_i for i >= 1 is stored as
    sparse rows built from the seminormal ratios (`t_rows`), in the
    form of `matrices` (columns increasing, zeros dropped); T_i + c is
    read off those rows by adding c on the diagonal.  The ladder factors
    L_k - eps^s Q_i are diagonals kept after their first use
    (`ladder_diagonal`), at most n*p*d of them, with one entry object
    per content object.  Everything stored is a tuple, so a word value
    that shares it cannot change it.

    The stored generators must not change after the rep is built: at a
    point, `eval_word` keeps word values in a memo (at most
    `WORD_CACHE_SIZE` of them) keyed by the rep itself, not by what it
    stores.  Building a rep adds nothing to that memo.
    """

    def __init__(self, shapes: tuple, field):
        self.shapes = tuple(shapes)
        if not self.shapes:
            raise ValueError("a rep needs at least one shape")
        self.n = self.shapes[0].size
        for shape in self.shapes:
            if (shape.p, shape.d) != (field.p, field.d):
                raise ValueError(
                    "shape and field have different (p, d) context")
            if shape.size != self.n:
                raise ValueError("the shapes of a rep differ in size")
        self.field = field
        basis, offsets = [], [0]
        # one content object per exponents (e, h, c), which ladder_diagonal
        # relies on to share its entries
        interned = {}
        ldiag = [[] for _ in range(self.n)]
        # row a of T_i: beta at (a, a), 1 + beta at the basis tableau
        # with i and i+1 swapped when that one is standard; zeros dropped
        trows = [[] for _ in range(1, self.n)]
        # beta and 1 + beta by the identities of the two content objects
        beta, shifted = {}, {}
        for shape in self.shapes:
            block, exponents, swaps = _shape_skeleton(shape)
            lo = offsets[-1]
            for e in {e for row in exponents for e in row} - interned.keys():
                interned[e] = _content_value(field, *e)
            contents = [[interned[e] for e in row] for row in exponents]
            try:
                for i, rows in enumerate(trows, start=1):
                    c, cp = contents[i - 1], contents[i]
                    for a, b in enumerate(swaps[i - 1]):
                        key = id(c[a]), id(cp[a])
                        if key not in beta:
                            beta[key] = beta_coeff(c[a], cp[a], field)
                        row = [(lo + a, beta[key])]
                        if b is not None:
                            if key not in shifted:
                                shifted[key] = field.one + beta[key]
                            row.append((lo + b, shifted[key]))
                        rows.append(
                            tuple(sorted((j, x) for j, x in row if x)))
            except PoleError as exc:
                raise PoleError(f"{exc} on {shape!r}") from None
            for diag, row in zip(ldiag, contents):
                diag.extend(row)
            basis.extend(block)
            offsets.append(lo + len(block))
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.blocks = tuple(zip(self.shapes, offsets, offsets[1:]))
        self.ldiag = [tuple(diag) for diag in ldiag]
        self.trows = {i: tuple(rows) for i, rows in enumerate(trows, start=1)}
        # ladder diagonals L_k - eps^s Q_i by (k, s mod p, i), filled by
        # ladder_diagonal
        self._ladders = {}

        # the recursion T_k L_k T_k = q L_{k+1} must reproduce the contents;
        # evaluated past the word memo, which would keep words used once
        for k in range(1, self.n):
            lhs = _eval_word(self, [("T", k), ("L", k), ("T", k)])
            rhs = _eval_word(self, [("scal", field.q), ("L", k + 1)])
            if lhs != rhs:
                a = next((a for a, (x, y) in enumerate(zip(lhs, rhs))
                          if x != y), 0)
                raise RuntimeError(
                    f"internal: L_{k + 1} recursion disagrees with contents "
                    f"on {self.shape_at(a)!r}")

    def shape_at(self, a: int):
        """The shape of the block that holds basis index a."""
        return next(shape for shape, lo, hi in self.blocks if lo <= a < hi)

    def l_diagonal(self, k: int) -> tuple:
        """The diagonal of L_k: the k-th contents of the basis tableaux."""
        if not 1 <= k <= self.n:
            raise ValueError(f"L_{k} out of range for n={self.n}")
        return self.ldiag[k - 1]

    def ladder_diagonal(self, k: int, s: int, i: int) -> tuple:
        """The diagonal of the ladder factor L_k - eps^s Q_i, s read mod p
        and 1 <= i <= d: the stored k-th contents (`l_diagonal`) less the
        parameter.

        Each diagonal is kept after its first use under (k, s mod p, i),
        so a rep holds at most n*p*d of them.  The parameter is subtracted
        once per distinct content: the rep holds one object per content
        exponents, and equal contents get one entry object, keyed by the
        content object since generic RatFunc values do not hash.
        The memo reads the contents once, so they must not change after
        the first ladder.
        """
        field = self.field
        key = (k, s % field.p, i)
        diag = self._ladders.get(key)
        if diag is None:
            root = field.eps_pow(s) * field.Q(i)
            column = self.l_diagonal(k)
            # shared: with one entry per tableau, points' peak RSS is
            # 26.1 MB, not 25.2 MB
            less = {}
            for c in column:
                if id(c) not in less:
                    less[id(c)] = c - root
            diag = tuple(less[id(c)] for c in column)
            self._ladders[key] = diag
        return diag

    def t_rows(self, i: int, shift=None) -> tuple:
        """T_i for 1 <= i < n as sparse rows: row a is a tuple of (column,
        entry) pairs, columns increasing, zeros dropped, at most two
        pairs.  With a shift c (a value of the field), the rows of
        T_i + c: c added on the diagonal.
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"T_{i} out of range for n={self.n}")
        rows = self.trows[i]
        if shift is None:
            return rows
        out = []
        for a, row in enumerate(rows):
            entries = dict(row)
            entries[a] = entries.get(a, self.field.zero) + shift
            out.append(tuple(sorted((j, x) for j, x in entries.items() if x)))
        return tuple(out)


# one skeleton per shape, shared by its reps over every field: the desk
# criteria build reps of 235 shapes and a benchmark pass of 86
SHAPE_CACHE_SIZE = 512

# at a point a word is evaluated on direct sums of consecutive shapes of
# at most UNIT_DIM basis tableaux each (a larger shape alone), since its
# value is built a whole sum at a time: one sum of all 2,700 tableaux of
# (3, 2, 4) raised the peak RSS of `verify pleftmult --b [2,1,1] --d 2
# --mode random` from 40.5 to 43.6 MB, while sums of 256 took 37.6 MB.
# Every cell of the points workload is one sum; (3, 2, 3) is two.
UNIT_DIM = 256

# an entry holds every module of one cell over one field; with all its
# ladders, 5.1 MB at a point of (3, 2, 4) and 30.5 MB for its 315
# generic modules.  A verdict reads the 3 points of mode_fields and the
# next verdict at the cell reads them again.  Counted by cache_info():
# the desk fixtures look up 31 entries, one generic, 479 times and miss
# 31 times, as without a bound (49 misses at a bound of 4); `verify
# changing --b [2,1,1] --d 2 --mode symbolic` reads its one generic
# entry 3 times.
UNITS_CACHE_SIZE = 16

# a key is one unit and one word, so a verdict at 3 points makes 2 * 3
# keys per unit, and the next pivot repeats the first of them.  Measured
# sweep: a pass of the points workload at seed 11 makes 189 keys and
# keeps all 303 of its repeats with a bound of 128 or more (284 at 64);
# criterion 3 keeps all 495 at 32.  A value is at most one unit.
WORD_CACHE_SIZE = 256


@lru_cache(maxsize=SHAPE_CACHE_SIZE, typed=True)
def _shape_skeleton(shape: Multipartition) -> tuple:
    """(basis, exponents, swaps) of the shape, free of any field: the
    standard tableaux as a tuple; exponents[k - 1][a], the exponents
    (e, h, c) of the content of k in basis tableau a
    (`content_exponents`); swaps[i - 1][a], the index of the basis
    tableau with i and i+1 swapped, or None when that is not standard.

    A swap is read off the positions of i and i+1: it is standard
    exactly when they share neither a row nor a column of one
    component, and the swapped tableau is found by its reading word,
    the old one with i and i+1 exchanged."""
    basis = tuple(enumerate_std(shape))
    words = [s.reading_word() for s in basis]
    index = {word: a for a, word in enumerate(words)}
    exponents = tuple(tuple(content_exponents(s, k) for s in basis)
                      for k in range(1, shape.size + 1))
    swaps = [[] for _ in range(1, shape.size)]
    for s, word in zip(basis, words):
        for i, row in enumerate(swaps, start=1):
            (u, a, b), (v, c, e) = s.position(i), s.position(i + 1)
            if u == v and (a == c or b == e):
                row.append(None)
                continue
            t = list(word)
            t[word.index(i)], t[word.index(i + 1)] = i + 1, i
            row.append(index[tuple(t)])
    return basis, exponents, tuple(tuple(row) for row in swaps)


@lru_cache(maxsize=UNITS_CACHE_SIZE, typed=True)
def _cached_units(p, d, n, field, limit) -> tuple:
    # keyed by ints, which hash at every lookup where 98 shapes would;
    # typed, so d=True reaches enumerate_all and is refused
    groups, size = [], limit
    for shape in enumerate_all(p, d, n):
        dim = count_std(shape)
        if size + dim > limit:
            groups.append([])
            size = 0
        groups[-1].append(shape)
        size += dim
    return tuple(SeminormalRep(group, field) for group in groups)


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _memo_word(rep: SeminormalRep, key: tuple) -> tuple:
    return _eval_word(rep, key)


def build_rep(shape: Multipartition, field) -> SeminormalRep:
    """The seminormal model of the shape over the field, built afresh.

    Nothing keeps it: a verdict that reads a module again reads it from
    the one rep memo, `evaluation_units`.
    """
    return SeminormalRep((shape,), field)


def evaluation_units(p, d, n, field) -> tuple:
    """The reps whose blocks are the modules of all (p*d)-multipartitions
    of n over the field, in `enumerate_all` order: a word evaluated once
    on each of them is known on every module.

    They are direct sums of consecutive shapes, built once per cell and
    field and kept in the one rep memo (LRU, UNITS_CACHE_SIZE entries).
    At a point a unit holds at most UNIT_DIM basis tableaux (a larger
    shape alone): every cell of the points workload is one sum, so a
    word is evaluated once per point.  Over the generic field each
    shape is its own unit.
    """
    # a generic direct sum held whole symbolic values of every module at
    # once: `verify changing --b [2,1,1] --d 2 --mode symbolic` went
    # 18.6 -> 27.0 s and its peak RSS 64.8 -> 113.6 MB
    return _cached_units(p, d, n, field, 0 if field.is_generic else UNIT_DIM)


def _relations(field, n: int) -> list:
    """(name, lhs word, rhs word) for every defining relation of H_n."""
    q, zero = field.q, [("scal", 0)]
    table = [("cyclotomic relation for T_0",
              [("ladder", 1, s, i) for s in range(1, field.p + 1)
               for i in range(1, field.d + 1)], zero)]
    # (T_i - q)(T_i + 1) = 0
    table += [(f"quadratic relation for T_{i}",
               [("Tshift", i, -q), ("Tshift", i, 1)], zero)
              for i in range(1, n)]
    if n >= 2:
        table.append(("braid relation T_0T_1T_0T_1 = T_1T_0T_1T_0",
                      [("T", 0), ("T", 1)] * 2, [("T", 1), ("T", 0)] * 2))
    table += [(f"braid relation at T_{i}, T_{i + 1}",
               [("T", i), ("T", i + 1), ("T", i)],
               [("T", i + 1), ("T", i), ("T", i + 1)])
              for i in range(1, n - 1)]
    table += [(f"commutation T_{i} T_{j}", [("T", i), ("T", j)],
               [("T", j), ("T", i)])
              for i in range(n) for j in range(i + 2, n)]
    return table


def check_relations(rep: SeminormalRep) -> list:
    """All defining relations as matrix identities; returns the failures."""
    if rep.n == 0:
        return []
    return [name for name, lhs, rhs in _relations(rep.field, rep.n)
            if eval_word(rep, lhs) != eval_word(rep, rhs)]


def _scalar_token(field, value):
    # True == 1 would find the memoized value of 1
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    return field.scalar(value)


def eval_word(rep: SeminormalRep, word) -> tuple:
    """Evaluate a token word as the product of its factors, left to right.

    The tokens, and their cost on a rep of dimension n (one module or a
    direct sum of them), given m stored nonzeros in the product so far:

    * ``("T", i)`` for i >= 1: the generator T_i, as sparse rows with at
      most two nonzeros each, applied by a sparse x sparse product, at
      most 2 m multiplies.  ``("Tshift", i, c)`` for i >= 1: T_i + c,
      the same rows with the scalar c added on the diagonal (n more
      additions).  As the first factor of a word either is taken as it
      is.
    * ``("L", k)``: the Jucys-Murphy element L_k; ``("ladder", k, s, i)``:
      the ladder factor L_k - eps^s Q_i, s read mod p and 1 <= i <= d;
      ``("scal", c)``: c times the identity; ``("T", 0)``.  All of these
      are diagonal, and a run of consecutive ones is applied as one
      diagonal: its entries are multiplied at the columns the product
      so far still holds (every column for a run that starts the word),
      one multiply per such column per token after the first, a zero
      entry ending that column's product.  The product then scales the
      stored nonzeros once, at most m multiplies, and drops those it
      sends to zero; a run that starts the word becomes sparse rows, n
      tests.  A run of one token costs what the token alone does.
    * A ladder costs one subtraction per distinct content the first time
      it meets a rep, in either backend; its diagonal is then kept on
      the rep, and later uses cost one dict lookup
      (`SeminormalRep.ladder_diagonal`, at most n_L * p * d diagonals
      for L_1..L_{n_L}).

    A zero row costs nothing for the rest of the word, but every token
    is still read and checked.  An empty word is the identity.  The
    result is the matrix as sparse rows (`matrices`): tuples, columns
    increasing, no zero stored, so equal values compare equal.

    At a point the value is kept in one memo (LRU) of at most
    `WORD_CACHE_SIZE` words, keyed by the rep and the word with every
    ``scal`` and ``Tshift`` scalar already read and checked, so a bad
    scalar raises before any lookup and a value repeated across calls
    (v_b for every pivot, the shift cycle and the eigen oracle) is
    computed once.  Every index must be an int, not a bool, in both
    backends, since 1.0 and True would find the value of 1.  Over the
    generic field, whose values do not hash, every word is evaluated
    afresh.  Sharing a value is safe
    because it is made of tuples, and the key is sound because a rep's
    generators never change after it is built.
    """
    field = rep.field
    key = []
    for item in word:
        tag = item[0]
        if tag == "scal":
            item = ("scal", _scalar_token(field, item[1]))
        elif type(item[1]) is not int or tag == "ladder" and not (
                type(item[2]) is type(item[3]) is int):
            raise TypeError(f"token indices must be ints: {item!r}")
        elif tag == "Tshift":
            item = ("Tshift", item[1], _scalar_token(field, item[2]))
        key.append(item)
    # a memo of generic words slowed trace-vbtb; pleftmult RSS 56.6->79.6 MB
    if field.is_generic:
        return _eval_word(rep, key)
    return _memo_word(rep, tuple(key))


def _eval_word(rep: SeminormalRep, word) -> tuple:
    """`eval_word` without the memo or the checks: every ``scal`` and
    ``Tshift`` scalar is already a value of the rep's field."""
    field = rep.field
    acc, run = None, []
    for item in word:
        tag = item[0]
        if tag == "L":
            run.append(rep.l_diagonal(item[1]))
        elif tag == "ladder":
            run.append(rep.ladder_diagonal(item[1], item[2], item[3]))
        elif tag == "scal":
            run.append([item[1]] * rep.dim)
        elif tag == "T" and item[1] == 0:
            run.append(rep.l_diagonal(1))
        else:
            if tag == "T":
                rows = rep.t_rows(item[1])
            elif tag == "Tshift":
                rows = rep.t_rows(item[1], item[2])
            else:
                raise ValueError(f"unknown word token {tag!r}")
            if run:
                acc, run = _apply_run(acc, run, field.zero), []
            acc = rows if acc is None else rows_mul(acc, rows)
    if run:
        acc = _apply_run(acc, run, field.zero)
    return rows_diag([field.one] * rep.dim) if acc is None else acc


def _apply_run(acc, run, zero) -> tuple:
    """acc (None for the identity) times the product of the diagonals of
    one run of tokens, taken entrywise at the columns acc still holds."""
    if len(run) == 1:
        diag = run[0]
    else:
        cols = (range(len(run[0])) if acc is None
                else {j for row in acc for j, _ in row})
        diag = [zero] * len(run[0])
        for j in cols:
            x = run[0][j]
            for factor in run[1:]:
                if not x:
                    break
                # a zero entry makes the product zero without a multiply
                x = x * factor[j] if factor[j] else zero
            diag[j] = x
    return rows_diag(diag) if acc is None else rows_scale_cols(acc, diag)


def character(shape: Multipartition, word, field):
    """Trace of the word on the module labelled by the shape."""
    rep = build_rep(shape, field)
    return rows_trace(eval_word(rep, word), field.zero)


def mode_fields(p, d, n, mode: str = "auto", points=None,
                trials: int = 3, rng=None) -> list:
    """Fields to check an identity over: the explicit points, one generic
    field Q(eps)(q, Q_1..Q_d) (p >= 1), or `trials` separated semisimple
    points drawn from one rng.  The verifiers take the list as `points`.

    The list is never empty: trials below 1, or an empty list of points,
    raise ValueError, since a check over no field proves nothing.  The
    auto rule goes symbolic while the squared dimensions of all modules
    sum to at most 40, since the numerators of symbolic sums grow with
    every binomial of their denominators while a value at a point stays
    one number, and always at p = 1, where no point can be sampled.
    """
    if points is not None:
        fields = list(points)
        if not fields:
            raise ValueError("no field to check over: no points given")
        return fields
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if mode == "auto":
        total = sum(count_std(s) ** 2 for s in enumerate_all(p, d, n))
        mode = "symbolic" if total <= 40 or p == 1 else "random"
    if mode == "symbolic":
        return [GenericField(p, d)]
    if mode == "random":
        rng = rng or Random(0)
        return [sample_point(p, d, n, rng) for _ in range(trials)]
    raise ValueError(f"unknown mode {mode!r}")


def element_equal(p, d, n, w1, w2, points=None) -> bool:
    """Equality in the algebra via the direct sum of all modules, over
    each field of `points` (a `mode_fields` list; None: its auto rule).

    At a separated semisimple point the algebra is the direct sum of the
    endomorphism rings of the Specht modules, so that sum is faithful.
    Each word is evaluated once per evaluation unit (`evaluation_units`:
    a direct sum of modules at a point, one module over the generic
    field), and the two values are compared whole, off-block positions
    included.
    Over the generic field it is a proof, at sampled points a check there.
    """
    for field in mode_fields(p, d, n, points=points):
        for rep in evaluation_units(p, d, n, field):
            if eval_word(rep, w1) != eval_word(rep, w2):
                return False
    return True
