from itertools import product

import pytest

from spanforge.fincat import SpanforgeError
from spanforge.groups import (
    GroupError,
    GroupTable,
    cyclic,
    dihedral_4,
    direct_product,
    klein_four,
    quaternion_8,
    symmetric_3,
    validate_group,
)
from spanforge.monoidal import make_skeletal_group_category, trivial_cochain


def brute_force_center(g: GroupTable) -> set[int]:
    return {a for a in range(g.order)
            if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order))}


@pytest.mark.parametrize("table, order", [
    (cyclic(1), 1),
    (cyclic(2), 2),
    (cyclic(3), 3),
    (cyclic(4), 4),
    (klein_four(), 4),
    (symmetric_3(), 6),
    (dihedral_4(), 8),
    (quaternion_8(), 8),
])
def test_tables_are_groups(table, order):
    assert table.order == order
    validate_group(table)


def test_centers_match_brute_force():
    assert brute_force_center(symmetric_3()) == {0}
    assert len(brute_force_center(dihedral_4())) == 2
    assert len(brute_force_center(quaternion_8())) == 2
    assert len(brute_force_center(klein_four())) == 4
    for g in (symmetric_3(), dihedral_4(), quaternion_8(), cyclic(4)):
        assert set(g.center()) == brute_force_center(g)


def test_abelian_flags():
    assert cyclic(5).is_abelian()
    assert klein_four().is_abelian()
    assert not symmetric_3().is_abelian()
    assert not dihedral_4().is_abelian()
    assert not quaternion_8().is_abelian()


def test_quaternion_is_not_dihedral():
    # Q8 has a unique element of order 2; D4 has five.
    def order_two(g):
        return [a for a in range(g.order) if a != 0 and g.mul(a, a) == 0]
    assert len(order_two(quaternion_8())) == 1
    assert len(order_two(dihedral_4())) == 5


def test_direct_product_structure():
    g = direct_product(cyclic(2), cyclic(3))
    validate_group(g)
    assert g.order == 6
    assert g.is_abelian()
    # (1, 0) * (0, 1) = (1, 1), i.e. 3 * 1 = 4 in paired ids
    assert g.mul(3, 1) == 4


def test_inverses():
    for g in (symmetric_3(), quaternion_8()):
        for a in range(g.order):
            assert g.mul(a, g.inv(a)) == 0
            assert g.mul(g.inv(a), a) == 0


def test_validate_rejects_broken_tables():
    broken = GroupTable(((0, 1), (1, 1)))  # 1*1 = 1 kills inverses
    with pytest.raises(GroupError):
        validate_group(broken)
    shifted = GroupTable(((1, 0), (0, 1)))  # identity not at index 0
    with pytest.raises(GroupError):
        validate_group(shifted)


def test_group_errors_are_spanforge_errors():
    broken = GroupTable(((0, 1), (1, 1)))
    with pytest.raises(SpanforgeError) as exc:
        make_skeletal_group_category(broken, cyclic(1), trivial_cochain(broken))
    assert isinstance(exc.value, GroupError)


def test_associativity_scan_is_exhaustive():
    g = quaternion_8()
    for a, b, c in product(range(8), repeat=3):
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
