import random

import pytest

from charfol import gf
from charfol._linalg import SpanTracker, kernel_basis, solve_span

F5 = gf.Field(5)


def _vec(rng, labels):
    v = {}
    for k in labels:
        c = F5.from_int(rng.randrange(5))
        if c:
            v[k] = c
    return v


def _combine(vectors, combo):
    out = {}
    for i, c in combo.items():
        for k, val in vectors[i].items():
            out[k] = out.get(k, F5.zero()) + val * c
    return {k: val for k, val in out.items() if val}


def test_solve_span_many_targets_match_single_calls():
    rng = random.Random(4)
    labels = list(range(6))
    # four random vectors plus a dependent one: the span misses some of F_5^6
    vectors = [_vec(rng, labels) for _ in range(4)]
    vectors.append(_combine(vectors, {0: F5.from_int(2), 3: F5.one()}))
    inside = [_combine(vectors, {i: F5.from_int(rng.randrange(5)) for i in range(5)})
              for _ in range(3)]
    outside = {5: F5.one()}
    assert solve_span(vectors, [outside]) == [None]
    targets = [inside[0], outside, inside[1], {}, inside[2]]
    combos = solve_span(vectors, targets)
    assert combos == [solve_span(vectors, [t])[0] for t in targets]
    assert combos[1] is None
    for target, combo in zip(targets, combos):
        if combo is not None:
            assert _combine(vectors, combo) == target


def test_solve_span_without_targets():
    assert solve_span([{0: F5.one()}], []) == []


class CountingRows(list):
    """A row list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for row in super().__iter__():
            self.reads += 1
            yield row


def test_tracker_reads_only_the_rows_it_must():
    one = F5.one()
    tracker = SpanTracker()
    # ten rows also hold label 1000; the other 490 are unit vectors
    for i in range(500):
        tracker.insert({i: one, 1000: one} if i < 10 else {i: one}, i)
    rows = tracker.rows = CountingRows(tracker.rows)
    # reduce reads the rows whose pivots it meets, and only those
    residual, combo = tracker.reduce({250: F5.from_int(3)})
    assert (residual, combo) == ({}, {250: F5.from_int(3)})
    assert rows.reads == 1
    # a new pivot leaves the rows holding it as they are: insert reads no
    # stored row beyond its own reduce, which meets no pivot here
    rows.reads = 0
    assert tracker.insert({1000: one}, 500) is None
    assert rows.reads == 0
    assert tracker.pos[1000] == 500
    for i in range(10):
        assert rows[i] == (i, {i: one, 1000: one}, {i: one})
    # an earlier row holding the later pivot 1000 brings it into the walk,
    # which clears it after pivot 0
    rows.reads = 0
    assert tracker.reduce({0: one}) == ({}, {0: one, 500: -one})
    assert rows.reads == 2


def test_a_vector_with_a_fresh_least_label_is_stored_unreduced():
    one, two = F5.one(), F5.from_int(2)
    tracker = SpanTracker()
    tracker.insert({5: one}, 0)
    rows = tracker.rows = CountingRows(tracker.rows)
    # least label 1 is no pivot, so the vector is independent although it
    # holds the pivot 5: insert reads no stored row and keeps it as given
    assert tracker.insert({1: one, 5: two}, 1) is None
    assert rows.reads == 0
    # and scaled to lead 1 when it does not lead with 1: 1/3 = 2 in F_5
    assert tracker.insert({0: F5.from_int(3), 5: one}, 2) is None
    assert rows.reads == 0
    assert list(rows) == [(5, {5: one}, {0: one}), (1, {1: one, 5: two}, {1: one}),
                          (0, {0: one, 5: two}, {2: two})]
    # reduce clears pivot 1, then the pivot 5 its row brings in: the residual
    # holds no pivot and target - residual = 1*original_1 - 1*original_0
    rows.reads = 0
    assert tracker.reduce({1: one, 5: one, 7: one}) == ({7: one}, {1: one, 0: -one})
    assert rows.reads == 2


@pytest.mark.parametrize("field", [F5, gf.Field(5, 2)], ids=["F_5", "F_25"])
def test_codes_and_elements_track_the_same_span(field):
    rng = random.Random(field.q)

    def elements(vec):
        return {k: gf.FieldElement(field, n) for k, n in vec.items()}

    # 40 sparse vectors on 10 labels: many dependencies, some repeated
    vectors = []
    for _ in range(40):
        vec = {k: rng.randrange(1, field.q) for k in rng.sample(range(10), rng.randrange(5))}
        vectors.append(vec if rng.random() < 0.8 or not vectors else rng.choice(vectors))
    codes, elems = SpanTracker(field), SpanTracker()
    for i, vec in enumerate(vectors):
        cert = codes.insert(vec, i)
        want = elems.insert(elements(vec), i)
        assert (cert is None) == (want is None)
        if cert is not None:
            assert elements(cert) == want
        target = {k: rng.randrange(1, field.q) for k in rng.sample(range(10), 3)}
        residual, combo = codes.reduce(target)
        assert (elements(residual), elements(combo)) == elems.reduce(elements(target))
    assert [(pivot, elements(row), elements(combo)) for pivot, row, combo in codes.rows] \
        == elems.rows
    assert [elements(rel) for rel in kernel_basis(vectors, field)] \
        == kernel_basis([elements(v) for v in vectors])
    targets = vectors[:3] + [{k: 1} for k in range(10)]
    assert [c if c is None else elements(c) for c in solve_span(vectors, targets, field)] \
        == solve_span([elements(v) for v in vectors], [elements(t) for t in targets])


@pytest.mark.parametrize("field", [F5, gf.Field(5, 2), None], ids=["F_5", "F_25", "elements"])
def test_rows_alias_lead_one_vectors_and_nothing_changes_them(field):
    rng = random.Random(9)
    q = F5.q if field is None else field.q

    def scalar(n):
        return F5.from_int(n) if field is None else n

    one = scalar(1)
    # 40 sparse vectors on 10 labels, about half of them leading with 1
    vectors = []
    for _ in range(40):
        vec = {k: scalar(rng.randrange(1, q)) for k in rng.sample(range(10), rng.randrange(5))}
        if vec and rng.random() < 0.5:
            vec[min(vec)] = one
        vectors.append(vec)
    given = [dict(vec) for vec in vectors]
    tracker = SpanTracker(field)
    stored = []  # (row, its copy when stored)
    aliased = 0
    for i, vec in enumerate(vectors):
        fresh = bool(vec) and min(vec) not in tracker.pos
        count = len(tracker.rows)
        tracker.insert(vec, i)
        if len(tracker.rows) > count:
            row = tracker.rows[-1][1]
            # a vector with a fresh least label and lead 1 is the row itself;
            # a reduced or rescaled one is a new dict
            assert (row is vec) == (fresh and vec[min(vec)] == one)
            aliased += row is vec
            stored.append((row, dict(row)))
        target = {k: scalar(rng.randrange(1, q)) for k in rng.sample(range(10), 3)}
        before = dict(target)
        tracker.reduce(target)
        assert target == before
        assert vectors == given
        assert all(row == copy for row, copy in stored)
    assert aliased > 0
