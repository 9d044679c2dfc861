import random

from charfol import gf
from charfol._linalg import solve_span

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
