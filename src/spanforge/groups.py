"""Finite groups as multiplication tables.

Elements are dense integer ids with the identity always at index 0.  These
tables feed the skeletal category constructors: a group supplies objects,
an abelian group supplies endomorphism scalars, and cochains on the group
supply associators and braidings.  Whether a table is associative is
decided in one place, _first_nonassociative, for group tables and for the
monoidal layer's tensors of objects alike.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

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
    """Check closure, identity at 0, inverses, and associativity, by
    _first_nonassociative."""
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
    bad = _first_nonassociative(table.mult)
    if bad is not None:
        raise GroupError(f"associativity fails at {bad}")


def _first_nonassociative(rows: Sequence[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with (i⊗j)⊗k ≠ i⊗(j⊗k)
    for the tensor with x⊗y at rows[x][y], ids in range(len(rows)), or None.

    Light's associativity test (Clifford-Preston §1.2) decides first, in
    n²·|S| row comparisons, whether there is one; the lexicographic scan
    runs only when it finds one, so the witness is the scan's.  S is found
    greedily in id order: an id outside the sub-magma generated so far
    joins S, and the sub-magma is closed again, each pair of its ids
    multiplied once, n² products in all.

    Theorem: ⊗ is associative iff (x⊗s)⊗y = x⊗(s⊗y) for all x, y and every
    s in a set S that generates every id under ⊗.  Proof: the s with this
    property form a sub-magma, so it holds for every id: for two of them,
    s and t, (x⊗(s⊗t))⊗y = ((x⊗s)⊗t)⊗y = (x⊗s)⊗(t⊗y) = x⊗(s⊗(t⊗y)) =
    x⊗((s⊗t)⊗y).
    """
    n = len(rows)
    if n < 2:
        return None  # 0⊗0 = 0
    seen, closed, generators = [False] * n, [], []
    for g in range(n):
        if seen[g]:
            continue
        generators.append(g)
        seen[g] = True
        todo = [g]
        while todo:
            e = todo.pop()
            closed.append(e)
            e_row = rows[e]
            for c in closed:
                p = e_row[c]
                if not seen[p]:
                    seen[p] = True
                    todo.append(p)
                p = rows[c][e]
                if not seen[p]:
                    seen[p] = True
                    todo.append(p)
    for s in generators:
        # the row of x⊗s against y ↦ x⊗(s⊗y)
        times_s_row = itemgetter(*rows[s])
        for x_row in rows:
            if rows[x_row[s]] != times_s_row(x_row):
                return _scan_nonassociative(rows)
    return None


def _scan_nonassociative(rows: Sequence[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """_first_nonassociative by the n³ lexicographic scan."""
    return next(((i, j, k) for i, i_row in enumerate(rows) for j, ij in enumerate(i_row)
                 for k, ijk in enumerate(rows[ij]) if ijk != i_row[rows[j][k]]), None)


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
