"""Sparse exact linear algebra over a field.

Vectors are dicts mapping hashable, mutually comparable labels to nonzero
field elements. The tracker keeps an inter-reduced spanning set and, for
every stored row, the combination of inserted originals that produced it,
so dependencies come out as ready-made certificates.

Invariant: the rows are fully inter-reduced, so no row holds the pivot of
another. Subtracting a row from a vector therefore changes no other pivot's
coefficient, and the tracker only touches the rows it must, through two
indexes: `pos` (pivot -> row index) tells `reduce` which rows a vector
meets, and `cols` (label -> indices of the rows holding it) tells `insert`
which rows to clear of a new pivot. Both visit rows in insertion order, so
the field operations run in the same order as a scan of every row would.
"""


def _addmul(dst, src, c):
    if not c:
        return
    for k, val in src.items():
        s = dst.get(k)
        s = val * c if s is None else s + val * c
        if s:
            dst[k] = s
        elif k in dst:
            del dst[k]


class SpanTracker:
    __slots__ = ("rows", "pos", "cols")

    def __init__(self):
        self.rows = []  # (pivot, vector, combo); vector[pivot] = 1
        self.pos = {}  # pivot -> index into rows
        self.cols = {}  # label -> set of indices of the rows holding it

    def reduce(self, vec):
        """Residual of vec modulo the rows.

        Invariant: vec = residual + sum(combo[k] * original_k).
        """
        v = dict(vec)
        c = {}
        pos = self.pos
        rows = self.rows
        for i in sorted(pos[k] for k in vec if k in pos):
            pivot, row, rcombo = rows[i]
            coeff = v.get(pivot)
            if coeff:
                _addmul(v, row, -coeff)
                _addmul(c, rcombo, coeff)
        return v, c

    def insert(self, vec, tag):
        """Add an original vector under the given label.

        Returns None if it enlarges the span, else the dependency
        certificate: a dict c with vec = sum(c[k] * original_k).
        """
        v, c = self.reduce(vec)
        if not v:
            return c
        pivot = min(v)
        inv = v[pivot].inverse()
        v = {k: val * inv for k, val in v.items()}
        rcombo = {k: -(val * inv) for k, val in c.items() if val}
        prev = rcombo.get(tag)
        rcombo[tag] = inv if prev is None else prev + inv
        if not rcombo[tag]:
            del rcombo[tag]
        rows, cols = self.rows, self.cols
        col_sets = [(k, cols.setdefault(k, set())) for k in v]
        # keep stored rows clear of the new pivot
        for i in sorted(cols[pivot]):
            _, row, combo = rows[i]
            coeff = row[pivot]
            _addmul(row, v, -coeff)
            _addmul(combo, rcombo, -coeff)
            for k, held in col_sets:
                if k in row:
                    held.add(i)
                else:
                    held.discard(i)
        n = len(rows)
        for _, held in col_sets:
            held.add(n)
        self.pos[pivot] = n
        rows.append((pivot, v, rcombo))
        return None


def kernel_basis(vectors):
    """Combinations summing to zero; one per dependency, indexed like vectors."""
    tracker = SpanTracker()
    kernel = []
    for i, vec in enumerate(vectors):
        cert = tracker.insert(vec, i)
        if cert is not None:
            # the certificate only names earlier vectors
            rel = {k: -val for k, val in cert.items()}
            rel[i] = 1
            kernel.append(rel)
    return kernel


def solve_span(vectors, targets):
    """One entry per target: a dict c with target = sum(c[i] * vectors[i]),
    or None when the target is outside the span. The span is built once."""
    tracker = SpanTracker()
    for i, vec in enumerate(vectors):
        tracker.insert(vec, i)
    out = []
    for target in targets:
        residual, combo = tracker.reduce(target)
        out.append(None if residual else combo)
    return out
