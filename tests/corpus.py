"""Deterministic corpus of small module-functor setups.

Carriers stay at <= 3 objects and acting categories at <= 6 objects so that
every span apex, and its n² and m² tensor tables, stays desk-sized.
"""
from __future__ import annotations

from spanforge.fincat import (
    FinCategory,
    Functor,
    NatTrans,
    constant_functor,
    discrete_category,
    group_as_category,
    identity_functor,
    terminal_category,
    walking_arrow,
)
from spanforge.groups import cyclic, klein_four
from spanforge.monoidal import make_discrete_group_category
from spanforge.spans import (
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    identity_module_functor,
    make_module,
    module_functor,
    trivial_module,
)


def bz2() -> FinCategory:
    return group_as_category(cyclic(2).mult)


def idempotent_monoid() -> FinCategory:
    """One object with endomorphisms {1, e}, e∘e = e."""
    return FinCategory(1, (0, 0), (0, 0), (0,), ((0, 1), (1, 1)))


def swap_functor(c: FinCategory) -> Functor:
    return Functor(c, c, (1, 0), (1, 0))


def three_cycle(c: FinCategory) -> Functor:
    return Functor(c, c, (1, 2, 0), (1, 2, 0))


def bz2_collapse() -> Functor:
    c = bz2()
    return Functor(c, c, (0,), (0, 0))


def arrow_inclusion() -> Functor:
    return Functor(discrete_category(2), walking_arrow(), (0, 1),
                   (walking_arrow().identity[0], walking_arrow().identity[1]))


def arrow_to_bz2() -> Functor:
    """Send the generating arrow to the nontrivial group element."""
    arrow = walking_arrow()
    u = next(m for m in range(arrow.num_morphisms)
             if arrow.source[m] == 0 and arrow.target[m] == 1)
    mor_map = [0] * arrow.num_morphisms
    mor_map[u] = 1
    return Functor(arrow, bz2(), (0, 0), tuple(mor_map))


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

_cache: dict = {}


def cached(name, thunk):
    if name not in _cache:
        _cache[name] = thunk()
    return _cache[name]


def m_terminal() -> ModuleData:
    return cached("m_terminal", lambda: trivial_module(terminal_category()))


def m_arrow() -> ModuleData:
    return cached("m_arrow", lambda: trivial_module(walking_arrow()))


def m_disc2() -> ModuleData:
    return cached("m_disc2", lambda: trivial_module(discrete_category(2)))


def m_disc3() -> ModuleData:
    return cached("m_disc3", lambda: trivial_module(discrete_category(3)))


def m_bz2() -> ModuleData:
    return cached("m_bz2", lambda: trivial_module(bz2()))


def m_idem() -> ModuleData:
    return cached("m_idem", lambda: trivial_module(idempotent_monoid()))


def m_swap_action() -> ModuleData:
    """Z/2 acting on the two-point discrete category by the swap."""
    def build():
        acting = make_discrete_group_category(cyclic(2))
        carrier = discrete_category(2)
        return make_module(acting, carrier,
                           [identity_functor(carrier), swap_functor(carrier)])
    return cached("m_swap_action", build)


def m_trivial_z2_on_disc2() -> ModuleData:
    def build():
        acting = make_discrete_group_category(cyclic(2))
        carrier = discrete_category(2)
        return make_module(acting, carrier,
                           [identity_functor(carrier), identity_functor(carrier)])
    return cached("m_trivial_z2_on_disc2", build)


def m_trivial_z2_on_bz2() -> ModuleData:
    def build():
        acting = make_discrete_group_category(cyclic(2))
        carrier = bz2()
        return make_module(acting, carrier,
                           [identity_functor(carrier), identity_functor(carrier)])
    return cached("m_trivial_z2_on_bz2", build)


def m_transposition_on_disc3() -> ModuleData:
    """Z/2 acting on three points by swapping the first two."""
    def build():
        acting = make_discrete_group_category(cyclic(2))
        carrier = discrete_category(3)
        tr = Functor(carrier, carrier, (1, 0, 2), (1, 0, 2))
        return make_module(acting, carrier, [identity_functor(carrier), tr])
    return cached("m_transposition_on_disc3", build)


def m_klein_on_disc2() -> ModuleData:
    """Klein four-group acting through its first coordinate."""
    def build():
        acting = make_discrete_group_category(klein_four())
        carrier = discrete_category(2)
        sw = swap_functor(carrier)
        ident = identity_functor(carrier)
        # element a*2+b acts by swap^a
        return make_module(acting, carrier, [ident, ident, sw, sw])
    return cached("m_klein_on_disc2", build)


# ---------------------------------------------------------------------------
# module functors
# ---------------------------------------------------------------------------

def xi_scalar_on_bz2(md: ModuleData, scalars) -> list[NatTrans]:
    """Transports on the one-object carrier given by group scalars per acting object."""
    ident = identity_functor(md.carrier)
    return [NatTrans(ident, ident, (s,)) for s in scalars]


def span_corpus() -> list[tuple[str, ModuleFunctorData]]:
    """Named module functors; every entry feeds build_span."""
    arrow = walking_arrow()
    disc2 = discrete_category(2)
    entries: list[tuple[str, ModuleFunctorData]] = [
        ("terminal-id", identity_module_functor(m_terminal())),
        ("arrow-id", identity_module_functor(m_arrow())),
        ("arrow-const0", module_functor(m_arrow(), m_arrow(),
                                        constant_functor(arrow, arrow, 0))),
        ("arrow-const1", module_functor(m_arrow(), m_arrow(),
                                        constant_functor(arrow, arrow, 1))),
        ("disc2-id", identity_module_functor(m_disc2())),
        ("disc2-swap", module_functor(m_disc2(), m_disc2(), swap_functor(disc2))),
        ("disc2-into-arrow", module_functor(m_disc2(), m_arrow(), arrow_inclusion())),
        ("arrow-to-terminal", module_functor(
            m_arrow(), m_terminal(), constant_functor(arrow, terminal_category(), 0))),
        ("point-into-arrow", module_functor(
            m_terminal(), m_arrow(),
            constant_functor(terminal_category(), arrow, 0))),
        ("point-into-bz2", module_functor(
            m_terminal(), m_bz2(),
            constant_functor(terminal_category(), bz2(), 0))),
        ("bz2-id", identity_module_functor(m_bz2())),
        ("bz2-collapse", module_functor(m_bz2(), m_bz2(), bz2_collapse())),
        ("arrow-into-bz2", module_functor(m_arrow(), m_bz2(), arrow_to_bz2())),
        ("swap-equivariant-id", identity_module_functor(m_swap_action())),
        ("swap-equivariant-swap", module_functor(
            m_swap_action(), m_swap_action(), swap_functor(disc2))),
        ("z2-trivial-bz2-id", identity_module_functor(m_trivial_z2_on_bz2())),
        ("z2-trivial-bz2-twisted", module_functor(
            m_trivial_z2_on_bz2(), m_trivial_z2_on_bz2(),
            identity_functor(bz2()),
            xi_scalar_on_bz2(m_trivial_z2_on_bz2(), (0, 1)))),
        ("disc3-id", identity_module_functor(m_disc3())),
        ("disc3-three-cycle", module_functor(
            m_disc3(), m_disc3(), three_cycle(discrete_category(3)))),
        ("transposition-equivariant", module_functor(
            m_transposition_on_disc3(), m_transposition_on_disc3(),
            Functor(discrete_category(3), discrete_category(3),
                    (1, 0, 2), (1, 0, 2)))),
        ("klein-id", identity_module_functor(m_klein_on_disc2())),
        ("idem-id", identity_module_functor(m_idem())),
        ("idem-collapse", module_functor(
            m_idem(), m_idem(),
            Functor(idempotent_monoid(), idempotent_monoid(), (0,), (0, 0)))),
    ]
    return entries


def nattrans_corpus() -> list[tuple[str, ModuleNatTransData]]:
    """Module transformations feeding build_two_span."""
    arrow = walking_arrow()
    u = next(m for m in range(arrow.num_morphisms)
             if arrow.source[m] == 0 and arrow.target[m] == 1)
    const0 = module_functor(m_arrow(), m_arrow(),
                            constant_functor(arrow, arrow, 0))
    arrow_id = identity_module_functor(m_arrow())
    idem = idempotent_monoid()
    idem_id = identity_module_functor(m_idem())
    entries = [
        ("terminal-identity", ModuleNatTransData(
            identity_module_functor(m_terminal()),
            identity_module_functor(m_terminal()),
            NatTrans(identity_functor(terminal_category()),
                     identity_functor(terminal_category()),
                     (0,)))),
        ("arrow-identity", ModuleNatTransData(
            arrow_id, arrow_id,
            NatTrans(identity_functor(arrow), identity_functor(arrow),
                     tuple(arrow.identity[x] for x in range(2))))),
        ("arrow-const0-to-id", ModuleNatTransData(
            const0, arrow_id,
            NatTrans(const0.f, arrow_id.f, (arrow.identity[0], u)))),
        ("idem-absorbing", ModuleNatTransData(
            idem_id, idem_id,
            NatTrans(identity_functor(idem), identity_functor(idem), (1,)))),
        ("swap-identity", ModuleNatTransData(
            identity_module_functor(m_swap_action()),
            identity_module_functor(m_swap_action()),
            NatTrans(identity_functor(discrete_category(2)),
                     identity_functor(discrete_category(2)), (0, 1)))),
        ("bz2-central", ModuleNatTransData(
            identity_module_functor(m_bz2()),
            identity_module_functor(m_bz2()),
            NatTrans(identity_functor(bz2()), identity_functor(bz2()), (1,)))),
    ]
    return entries


def terminal_id() -> ModuleFunctorData:
    return identity_module_functor(m_terminal())


def composable_pairs() -> list[tuple[str, ModuleFunctorData, ModuleFunctorData]]:
    """Composable module functors whose pairings stay small enough for the
    full monoidal treatment (tensor tables and coherence checks on the
    pairing apex)."""
    named = dict(span_corpus())
    return [
        ("arrow-id-id", named["arrow-id"], named["arrow-id"]),
        ("disc2-arrow-bz2", named["disc2-into-arrow"], named["arrow-into-bz2"]),
        ("swap-swap", named["swap-equivariant-swap"], named["swap-equivariant-swap"]),
        ("point-arrow-terminal", named["point-into-arrow"], named["arrow-to-terminal"]),
        ("idem-id-collapse", named["idem-id"], named["idem-collapse"]),
        ("disc2-arrow-terminal", named["disc2-into-arrow"], named["arrow-to-terminal"]),
        ("disc2-id-swap", named["disc2-id"], named["disc2-swap"]),
        ("klein-id-id", named["klein-id"], named["klein-id"]),
    ]


def composable_triples():
    named = dict(span_corpus())
    return [
        ("arrow-triple-id", named["arrow-id"], named["arrow-id"], named["arrow-id"]),
        ("swap-triple", named["swap-equivariant-swap"],
         named["swap-equivariant-swap"], named["swap-equivariant-swap"]),
        ("idem-triple", named["idem-id"], named["idem-collapse"], named["idem-id"]),
        ("disc2-arrow-terminal-triple", named["disc2-into-arrow"],
         named["arrow-to-terminal"], terminal_id()),
        ("disc2-swap-triple", named["disc2-id"], named["disc2-swap"],
         named["disc2-swap"]),
        ("klein-triple", named["klein-id"], named["klein-id"], named["klein-id"]),
        ("point-arrow-terminal-point", named["point-into-arrow"],
         named["arrow-to-terminal"], terminal_id()),
        ("point-const-arrow", named["point-into-arrow"], named["arrow-const1"],
         named["arrow-to-terminal"]),
    ]


def composable_quadruples():
    named = dict(span_corpus())
    return [
        ("arrow-quad-id", named["arrow-id"], named["arrow-id"],
         named["arrow-id"], named["arrow-id"]),
        ("swap-quad", named["swap-equivariant-swap"], named["swap-equivariant-swap"],
         named["swap-equivariant-swap"], named["swap-equivariant-swap"]),
        ("disc2-arrow-terminal-quad", named["disc2-into-arrow"],
         named["arrow-to-terminal"], terminal_id(), terminal_id()),
        ("idem-quad", named["idem-id"], named["idem-collapse"],
         named["idem-id"], named["idem-collapse"]),
        ("point-consts-quad", named["point-into-arrow"], named["arrow-const0"],
         named["arrow-const1"], named["arrow-to-terminal"]),
    ]
