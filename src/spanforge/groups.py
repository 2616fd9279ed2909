"""Finite groups as multiplication tables.

Elements are dense integer ids with the identity always at index 0.  These
tables feed the skeletal category constructors: a group supplies objects,
an abelian group supplies endomorphism scalars, and cochains on the group
supply associators and braidings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .fincat import SpanforgeError


class GroupError(SpanforgeError):
    """The given table is not a group table with identity at index 0."""


@dataclass(frozen=True)
class GroupTable:
    mult: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.mult)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        for b in range(self.order):
            if self.mult[a][b] == 0:
                return b
        raise GroupError(f"element {a} has no inverse")

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mult[a][b] == self.mult[b][a]
                   for a in range(n) for b in range(n))

    def center(self) -> tuple[int, ...]:
        n = self.order
        return tuple(a for a in range(n)
                     if all(self.mult[a][b] == self.mult[b][a] for b in range(n)))


def validate_group(table: GroupTable) -> None:
    """Check closure, identity at 0, inverses, and associativity exhaustively."""
    n = table.order
    for a in range(n):
        if len(table.mult[a]) != n:
            raise GroupError(f"row {a} has length {len(table.mult[a])}, expected {n}")
        for b in range(n):
            if not 0 <= table.mult[a][b] < n:
                raise GroupError(f"product of {a} and {b} is out of range")
    for a in range(n):
        if table.mult[0][a] != a or table.mult[a][0] != a:
            raise GroupError(f"index 0 is not an identity against {a}")
    for a in range(n):
        if all(table.mult[a][b] != 0 for b in range(n)):
            raise GroupError(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table.mult[table.mult[a][b]][c] != table.mult[a][table.mult[b][c]]:
                    raise GroupError(f"associativity fails at ({a}, {b}, {c})")


def cyclic(n: int) -> GroupTable:
    return GroupTable(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Pairs ordered as a * |h| + b, so the identity (0, 0) stays at index 0."""
    nh = h.order
    size = g.order * nh
    rows = []
    for i in range(size):
        a, b = divmod(i, nh)
        rows.append(tuple(g.mult[a][c] * nh + h.mult[b][d]
                          for c, d in (divmod(j, nh) for j in range(size))))
    return GroupTable(tuple(rows))


def klein_four() -> GroupTable:
    return direct_product(cyclic(2), cyclic(2))


def symmetric_3() -> GroupTable:
    """S3 as permutations of {0,1,2} in lexicographic order (identity first)."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    rows = []
    for p in perms:
        # mult(p, q) is "q then p"
        rows.append(tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms))
    return GroupTable(tuple(rows))


def dihedral_4() -> GroupTable:
    """D4 of order 8, elements r^a s^b indexed a + 4*b."""
    def mul(i: int, j: int) -> int:
        a, b = i % 4, i // 4
        c, d = j % 4, j // 4
        # s r^c = r^{-c} s
        rot = (a + (c if b == 0 else -c)) % 4
        return rot + 4 * ((b + d) % 2)
    return GroupTable(tuple(tuple(mul(i, j) for j in range(8)) for i in range(8)))


def quaternion_8() -> GroupTable:
    """Q8 with elements (1, i, j, k, -1, -i, -j, -k) indexed 0..7."""
    # unit axes: 0 = 1, 1 = i, 2 = j, 3 = k
    axis_mul = {}
    for u in range(4):
        axis_mul[(0, u)] = (0, u)
        axis_mul[(u, 0)] = (0, u)
    for u in range(1, 4):
        axis_mul[(u, u)] = (1, 0)  # i^2 = j^2 = k^2 = -1
    cyc = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    for a, b, c in cyc:
        axis_mul[(a, b)] = (0, c)
        axis_mul[(b, a)] = (1, c)

    def mul(i: int, j: int) -> int:
        sa, ua = divmod(i, 4)[0], i % 4
        sb, ub = divmod(j, 4)[0], j % 4
        s, u = axis_mul[(ua, ub)]
        return ((sa + sb + s) % 2) * 4 + u

    return GroupTable(tuple(tuple(mul(i, j) for j in range(8)) for i in range(8)))
