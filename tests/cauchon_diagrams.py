"""The Cauchon diagrams of a Young shape, counted by brute force.

A Cauchon diagram of a shape is a colouring of its boxes, black or white,
in which each black box has only black boxes to its left in its row, or
only black boxes above it in its column (Cauchon 2003).  The torus-stable
Poisson primes of the m x n matrix tower at level k, its first k
generators in row-major order, are counted by the Cauchon diagrams of the
first k boxes of an m x n grid in that order: full rows of n boxes, then
one shorter row.

This module tries all 2^|shape| colourings and imports nothing from pcgl,
so its counts share no code with the enumeration they check.
"""

import itertools


def prefix_shape(n: int, k: int) -> tuple[int, ...]:
    """The row lengths of the first k boxes, in row-major order, of a grid
    with n columns."""
    return (n,) * (k // n) + ((k % n,) if k % n else ())


def is_cauchon(black: set) -> bool:
    """Whether the black boxes (row, column) of a colouring of a Young shape
    make a Cauchon diagram."""
    return all(
        all((i, c) in black for c in range(j)) or all((r, j) in black for r in range(i))
        for i, j in black
    )


def count_diagrams(shape) -> int:
    """The number of Cauchon diagrams of the shape, given by its row lengths."""
    boxes = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    return sum(
        is_cauchon({box for box, on in zip(boxes, colours) if on})
        for colours in itertools.product((False, True), repeat=len(boxes))
    )


def level_counts(m: int, n: int) -> list[int]:
    """The count of each row-major prefix shape of the m x n grid, from the
    empty shape (level 0) to the full grid (level mn)."""
    return [count_diagrams(prefix_shape(n, k)) for k in range(m * n + 1)]
