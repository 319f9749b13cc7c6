"""Seeded input generation, as plain data.

Every generator draws from the ``random.Random`` it is given and returns
index lists and cover pairs only; the workloads turn them into library
values.  ``digest`` hashes the plain data, so two runs with one seed can
show that they used the same inputs.
"""

import hashlib


def names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def sparse_dag(rng, n, window, degree):
    """Cover pairs (i, j): each i covers ``degree`` points of (i, i + window].

    The short window keeps the covers sparse while the closure still
    relates most far-apart points, as in a long program trace; a fixed
    out-degree keeps that density the same from seed to seed.
    """
    return [(i, j) for i in range(n - 1)
            for j in sorted(rng.sample(range(i + 1, min(n, i + 1 + window)),
                                       min(degree, n - 1 - i)))]


def relabel(rng, covers, n):
    """The covers of a fixed shape under a random permutation of its points."""
    perm = rng.sample(range(n), n)
    return [(perm[a], perm[b]) for a, b in covers]


def extra_pairs(rng, n, count, reach):
    """Pairs (i, j) with |i - j| <= reach, to be added to an order and closed.

    Backward pairs glue stretches of the order into one block; forward
    pairs relate points the order leaves incomparable.
    """
    out = []
    for _ in range(count):
        i = rng.randrange(n)
        j = min(n - 1, max(0, i + rng.randint(-reach, reach)))
        out.append((i, j))
    return out


def block_labels(rng, n, blocks):
    """A block number per point: a random equivalence with <= ``blocks`` blocks."""
    return [rng.randrange(blocks) for _ in range(n)]


def label_pairs(labels):
    """Pairs joining every point to the first point of its block."""
    first = {}
    out = []
    for i, b in enumerate(labels):
        first.setdefault(b, i)
        out.append((first[b], i))
    return out


def digest(data):
    """Short hash of the repr of plain generated data."""
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]
