from penscript.seeding import derive_seed, stream

# First draws of the streams behind make_splits (seed only), augment
# (seed, method id, channel) and train (seed, stream id), recorded before
# the three modules shared one helper. Negative and oversized seeds are
# reduced modulo 2**64.
FROZEN = {
    (11,): [574671950, 552204816, 3423435367, 2144382090],
    (-3, 2, 5): [1002332437, 1218366343, 3177754990, 3900080705],
    (2**70, 1): [2242647589, 3821399010, 4264680396, 2392889704],
}


def test_streams_are_frozen():
    for path, first in FROZEN.items():
        assert stream(*path).integers(0, 2**32, 4).tolist() == first, path


def test_derived_seeds_are_frozen_and_distinct():
    assert derive_seed(7, 1) == 6635463128224577688
    assert derive_seed(8, 0) == 5353851093722033705
    seeds = {derive_seed(s, i) for s in range(20) for i in range(20)}
    assert len(seeds) == 400
    assert all(0 <= s < 2**64 for s in seeds)
