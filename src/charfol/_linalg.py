"""Sparse exact linear algebra over a field, and the arithmetic of term dicts.

Vectors are dicts mapping hashable, mutually comparable labels to nonzero
scalars: int codes (gf.FieldElement.n), combined by the kernels of the
gf.Field handed first to each function, one call per dict, or elements with
their own operators, combined here, when that field is None. On term dicts,
vectors labelled by exponent tuples, _addmul and _submul are the one
multiply-add, _mul the one product and _nf the one normal form: MultiPoly and
ChartAlgebra run them on elements, the t-free factorization's closure on
codes. SpanTracker keeps a spanning set in echelon form and, for every
stored row, the combination of inserted originals that produced it, so
dependencies come out as ready-made certificates; a gf.Field domain gives it
codes.

Invariant: each row's least label is its pivot, with coefficient 1, and
pivots are distinct; rows are never rewritten, and a row may hold the pivots
of other rows, earlier or later. Subtracting a row therefore only touches
labels above its pivot, so `reduce` clears the pivots a vector meets in
increasing order, through a heap fed by the labels each subtraction brings
in; `pos` maps a pivot to its row's index. The residual (free of every
pivot) and the combination of stored originals are unique, so they depend
neither on the order in which rows were reduced nor on whether a row was
reduced before it was stored.
"""

from heapq import heapify, heappop, heappush
from operator import add

from . import gf


def _addmul(field, dst, src, c=None):
    """dst += c * src in place, c nonzero, or dst += src for c None;
    returns dst, so that _addmul(field, {}, src, c) is c * src."""
    if field is not None:
        return field.addmul(dst, src, 1 if c is None else c)
    for k, val in src.items():
        if c is not None:
            val = val * c
        s = dst.get(k)
        s = val if s is None else s + val
        if s:
            dst[k] = s
        elif k in dst:
            del dst[k]
    return dst


def _submul(field, dst, src, c):
    """dst -= c * src in place, c nonzero; returns dst."""
    return _addmul(None, dst, src, -c) if field is None else field.submul(dst, src, c)


def _mul(field, a, b):
    """The product of the term dicts a and b, summed in the order of the
    double loop over a, then b."""
    if field is not None:
        return field.termmul(a, b)
    out = {}
    right = b.items()
    for e1, c1 in a.items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _nf(field, f, rules):
    """The normal form of the term dict f, f itself when it is reduced.

    rules are (i, d, rewrite), one per triangular monic relation: x_i^d is
    congruent to the term dict rewrite, of lower degree in x_i. Raises
    RuntimeError when 200 passes over the rules do not stabilize f.
    """
    for _ in range(200):
        before = f
        for i, d, rewrite in rules:
            while any(e[i] >= d for e in f):
                # f = low + x_i^d * high
                low, high = {}, {}
                for e, c in f.items():
                    if e[i] < d:
                        low[e] = c
                    else:
                        high[e[:i] + (e[i] - d,) + e[i + 1 :]] = c
                f = _addmul(field, _mul(field, high, rewrite), low)
        if f is before or f == before:
            return f
    raise RuntimeError("normal form did not stabilize; relations are not triangular")


class SpanTracker:
    __slots__ = ("rows", "pos", "field")

    def __init__(self, domain=None):
        self.rows = []  # (pivot, vector, combo); vector[pivot] = 1
        self.pos = {}  # pivot -> index into rows
        # the gf.Field whose codes the vectors hold, or None for elements
        self.field = domain if isinstance(domain, gf.Field) else None

    def reduce(self, vec):
        """Residual of vec modulo the rows.

        Invariant: vec = residual + sum(combo[k] * original_k).
        """
        field = self.field
        v = dict(vec)
        c = {}
        pos = self.pos
        rows = self.rows
        heap = [k for k in v if k in pos]
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            coeff = v.get(pivot)
            if not coeff:
                continue  # cancelled, or pushed twice
            _, row, rcombo = rows[pos[pivot]]
            # pivots among the labels the row brings in join the walk
            for k in row:
                if k in pos and k not in v:
                    heappush(heap, k)
            _submul(field, v, row, coeff)
            _addmul(field, c, rcombo, coeff)
        return v, c

    def insert(self, vec, tag):
        """Add an original vector under the given label.

        Returns None if it enlarges the span, else the dependency
        certificate: a dict c with vec = sum(c[k] * original_k).

        The least label of a nonzero combination of rows is the least pivot
        in it, so a vector whose least label is no pivot is independent: it
        is stored as its row, scaled to lead 1, and reduce is not called.
        """
        field = self.field
        if vec and (pivot := min(vec)) not in self.pos:
            v, c = vec, None
        else:
            v, c = self.reduce(vec)
            if not v:
                return c
            pivot = min(v)
        inv = v[pivot].inverse() if field is None else field.inv(v[pivot])
        v = _addmul(field, {}, v, inv)
        # the row is inv * (vec - sum(c[k] * original_k))
        rcombo = {tag: inv} if c is None else _addmul(
            field, _submul(field, {}, c, inv), {tag: 1}, inv)
        self.pos[pivot] = len(self.rows)
        self.rows.append((pivot, v, rcombo))
        return None


def kernel_basis(vectors, domain=None):
    """Combinations summing to zero; one per dependency, indexed like vectors."""
    tracker = SpanTracker(domain)
    kernel = []
    for i, vec in enumerate(vectors):
        cert = tracker.insert(vec, i)
        if cert is not None:
            # the certificate only names earlier vectors
            rel = _submul(tracker.field, {}, cert, 1)
            rel[i] = 1
            kernel.append(rel)
    return kernel


def solve_span(vectors, targets, domain=None):
    """One entry per target: a dict c with target = sum(c[i] * vectors[i]),
    or None when the target is outside the span. The span is built once."""
    tracker = SpanTracker(domain)
    for i, vec in enumerate(vectors):
        tracker.insert(vec, i)
    out = []
    for target in targets:
        residual, combo = tracker.reduce(target)
        out.append(None if residual else combo)
    return out
