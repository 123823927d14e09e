"""Seeded generator of dense, generic rational frames.

A frame is a 3x3 matrix of rationals +-a/b with 50 <= a, b <= 99 and
gcd(a, b) = 1, so every entry is already in lowest terms and its numerator
and denominator both lie in one octave.  That keeps the height of the entries
alike from seed to seed: the seed changes the frame but not the size class of
its taus' coefficients.
A draw is kept only when every entry, every 2x2 minor and the determinant are
nonzero, so no wedge term of the construction vanishes for an accidental
reason and the frame is never singular.  The same seed gives the same frames.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

MIN_NUM_DEN, MAX_NUM_DEN = 50, 99


def minors_2x2(rows):
    """All nine 2x2 minors of a 3x3 matrix."""
    return [
        rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1]
        for r1, r2 in itertools.combinations(range(3), 2)
        for c1, c2 in itertools.combinations(range(3), 2)
    ]


def det3(r) -> Fraction:
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def is_generic(rows) -> bool:
    entries = [x for row in rows for x in row]
    return all(entries) and all(minors_2x2(rows)) and det3(rows) != 0


def draw_entry(rng: random.Random) -> Fraction:
    """+-a/b with a, b in [MIN_NUM_DEN, MAX_NUM_DEN]; pairs with a common factor
    are redrawn, since reducing them would leave the octave."""
    while True:
        sign = rng.choice((-1, 1))
        a, b = rng.randint(MIN_NUM_DEN, MAX_NUM_DEN), rng.randint(MIN_NUM_DEN, MAX_NUM_DEN)
        if math.gcd(a, b) == 1:
            return Fraction(sign * a, b)


def draw_frames(seed: int, count: int) -> list[list[list[Fraction]]]:
    """`count` generic frames drawn from `seed`; singular draws are rejected."""
    rng = random.Random(seed)
    frames = []
    while len(frames) < count:
        rows = [[draw_entry(rng) for _ in range(3)] for _ in range(3)]
        if is_generic(rows):
            frames.append(rows)
    return frames


def frame_to_json(rows) -> list[list[str]]:
    """Frame file format of the program: rows of "num/den" strings."""
    return [[f"{x.numerator}/{x.denominator}" for x in row] for row in rows]
