"""Standard tableaux on multipartitions, contents, and seminormal ratios.

The content of k sitting in row a, column b of component u is
eps^{p_u} * q^{b-a} * Q_{d_u} where u = d*(p_u - 1) + d_u.  The exponent
p_u (rather than p_u - 1) is forced by the cyclotomic relation: the
eigenvalues of L_1 must run through the parameter list
(eps Q_1, ..., eps^p Q_d).
"""

from math import factorial, prod

from .combin import Multipartition, component_index, conjugate_partition
from .exactnum import PoleError


class StandardTableau:
    """A bijective filling of a multipartition diagram by 1..n."""

    __slots__ = ("shape", "rows", "_pos")

    def __init__(self, shape: Multipartition, rows):
        rows = tuple(tuple(tuple(int(x) for x in row) for row in comp)
                     for comp in rows)
        if len(rows) != shape.r:
            raise ValueError("component count does not match shape")
        pos = {}
        for s, comp in enumerate(rows, start=1):
            if tuple(len(row) for row in comp) != shape.component(s):
                raise ValueError(f"row lengths do not match component {s}")
            for a, row in enumerate(comp, start=1):
                for b, entry in enumerate(row, start=1):
                    if entry in pos:
                        raise ValueError(f"repeated entry {entry}")
                    pos[entry] = (s, a, b)
        n = shape.size
        if sorted(pos) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        self.shape = shape
        self.rows = rows
        self._pos = pos

    @property
    def n(self) -> int:
        return self.shape.size

    def position(self, k: int) -> tuple:
        """(component, row, column) of the entry k, all 1-based."""
        return self._pos[k]

    def reading_word(self) -> tuple:
        return tuple(x for comp in self.rows for row in comp for x in row)

    def __eq__(self, other):
        return (isinstance(other, StandardTableau)
                and self.shape == other.shape and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"StandardTableau({self.rows})"


def enumerate_std(shape: Multipartition) -> list:
    """All standard tableaux of the given shape, in reading-word order.

    Grown forward: entry k goes into any cell whose row and column
    predecessors are already filled.
    """
    n = shape.size
    done = [[[0] * length for length in c] for c in shape.comps]

    out = []

    def grow(k):
        if k > n:
            out.append(StandardTableau(
                shape, [tuple(tuple(row) for row in comp) for comp in done]))
            return
        for comp in done:
            for a, row in enumerate(comp):
                # only the first empty cell of a row is addable
                b = next((j for j, val in enumerate(row) if not val), None)
                if b is None:
                    continue
                if a > 0 and not comp[a - 1][b]:
                    continue
                row[b] = k
                grow(k + 1)
                row[b] = 0

    grow(1)
    out.sort(key=StandardTableau.reading_word)
    return out


def count_std(shape: Multipartition) -> int:
    """The number of standard tableaux: n! over the product of the hook
    lengths of all the boxes, taken over every component."""
    hooks = 1
    for comp in shape.comps:
        conj = conjugate_partition(comp)
        hooks *= prod(row - b + conj[b] - a - 1
                      for a, row in enumerate(comp) for b in range(row))
    return factorial(shape.size) // hooks


def content_exponents(s: StandardTableau, k: int) -> tuple:
    """(eps exponent mod p, q exponent, Q index) of cont_s(k)."""
    u, a, b = s.position(k)
    p_u, d_u = component_index(u, s.shape.p, s.shape.d)
    return p_u % s.shape.p, b - a, d_u


def _content_value(params, e: int, h: int, c: int):
    return params.eps_pow(e) * params.q_power(h) * params.Q(c)


def content(s: StandardTableau, k: int, params):
    """cont_s(k) = eps^e q^h Q_c over the field `params`.

    The value depends only on the field and the exponents (e, h, c) of
    `content_exponents`, and each call computes it afresh; a
    `seminormal.SeminormalRep` holds one object per exponents instead.
    """
    return _content_value(params, *content_exponents(s, k))


def beta_coeff(c, cp, params):
    """The seminormal ratio (q-1) cont_t(i) / (cont_t(i) - cont_s(i)) of
    a tableau s and the filling t that swaps i and i+1, read off the
    contents c = cont_s(i) and cp = cont_s(i+1) = cont_t(i) over the
    field `params`."""
    den = cp - c
    if not den:
        raise PoleError(
            f"the contents of i and i + 1 collide at this specialization: "
            f"both are {c!r}")
    return (params.q - 1) * cp / den
