"""Module-level stage functions shared by every leg of every workload.

They live in their own importable module so the process backend can
pickle them by reference, and so the hand-written loops call exactly the
same functions as the stream pipelines: the floor then differs from a
stream only by engine overhead.
"""


def scramble(x):
    """A multiplicative hash folded into [0, 1000003)."""
    return (x * 2654435761 + 7) % 1000003


def keep(x):
    """Keeps about two thirds of the elements."""
    return x % 3 != 0


def bucket(x):
    """Group-by key: seven buckets."""
    return x % 7


def fold(a, b):
    """Associative reduction operator."""
    return a + b


def pair(a, b):
    """zip_with combiner."""
    return a ^ b


def coarse(x):
    """Folds values into 4093 classes, so ``distinct`` drops many."""
    return x % 4093


def job_pipeline(stream):
    """The serve workload's job pipeline: map, filter, reduce."""
    return stream.map(scramble).filter(keep).reduce(0, fold)
