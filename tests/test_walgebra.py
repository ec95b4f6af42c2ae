import argparse
import collections
import random
from fractions import Fraction

import pytest

from wds import linalg, walgebra
from wds.cli import make_frame
from wds.diffpoly import LambdaPoly
from wds.lie import MINIMAL, SHORT, GradeMismatch
from wds.pva import ReductionFrame, master_bracket, random_element
from wds.walgebra import (WGenerators, _expected_minimal, _expected_short,
                          _lam, _named, verify_table)

HALF = Fraction(1, 2)


def test_virasoro_membership_and_weight(sl3_min, sl4_min, sl4_short):
    for cfg in (sl3_min, sl4_min, sl4_short):
        assert cfg.frame.is_in_w(cfg.gens.L)
        assert cfg.gens.L.conformal_weight() == 2


def test_all_generators_in_w(sl3_min, sl4_min, sl4_short):
    for cfg in (sl3_min, sl4_min, sl4_short):
        for name, p in cfg.gens.all_generators():
            assert cfg.frame.is_in_w(p), name


def test_generator_weights(sl3_min, sl4_short):
    gens = sl3_min.gens
    assert all(p.conformal_weight() == 1 for p in gens.phis)
    assert all(p.conformal_weight() == Fraction(3, 2) for p in gens.psis)
    sgens = sl4_short.gens
    assert all(p.conformal_weight() == 1 for p in sgens.phis)
    assert all(p.conformal_weight() == 2 for p in sgens.psis)


def test_phi_psi_linearity_and_grade_errors(sl3_min):
    cfg = sl3_min
    g, s, gens = cfg.algebra, cfg.setup, cfg.gens
    u1, u2 = g.parse({"E21": 1}), g.parse({"E32": 1})
    both = linalg.combine([1, 1], [u1, u2])
    assert gens.psi(both) == gens.psi(u1) + gens.psi(u2)
    assert gens.phi({}) == cfg.frame.coord_ctx.zero()
    with pytest.raises(GradeMismatch):
        gens.phi(s.x)
    with pytest.raises(GradeMismatch):
        gens.psi(s.f)


def test_short_psi_of_f(sl4_short):
    """psi(f) = f + x' - 1/4 sum [f,u^k][e,u_k] for a short nilpotent."""
    cfg = sl4_short
    g, s, fr = cfg.algebra, cfg.setup, cfg.frame
    us, uds = s.u_pairs
    want = fr.coord_lin(s.f) + fr.coord_lin(s.x, order=1)
    for uk, ukd in zip(us, uds):
        want -= fr.coord_lin(g.bracket(s.f, ukd)) * fr.coord_lin(
            g.bracket(s.e, uk)) * Fraction(1, 4)
    assert cfg.gens.psi(s.f) == want


def test_short_virasoro_decomposition(sl4_short):
    """L = psi(f) + 1/2 sum a_i a^i."""
    cfg = sl4_short
    fr, gens = cfg.frame, cfg.gens
    a_basis, a_dual = cfg.setup.a_pairs
    want = gens.psi(cfg.setup.f)
    for b, bd in zip(a_basis, a_dual):
        want += fr.coord_lin(b) * fr.coord_lin(bd) * Fraction(1, 2)
    assert gens.L == want


def test_pi_of_generators(sl3_min):
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    for a, p in zip(gens.phi_args, gens.phis):
        assert fr.pi(p) == fr.w_lin(a)
    for u, p in zip(gens.psi_args, gens.psis):
        assert fr.pi(p) == fr.w_lin(u)
    assert fr.pi(gens.Ltilde) == fr.w_lin(cfg.setup.f)


def test_pi_inverse_roundtrip(sl3_min, sl4_short):
    rng = random.Random(31)
    for cfg in (sl3_min, sl4_short):
        fr, gens = cfg.frame, cfg.gens
        assert gens.pi_inverse(fr.w_ctx.one()) == fr.coord_ctx.one()
        for _ in range(6):
            p = random_element(fr.w_ctx, rng, max_degree=2, max_order=1)
            lifted = gens.pi_inverse(p)
            assert fr.pi(lifted) == p
            assert fr.is_in_w(lifted)


def test_ltilde_formula(sl3_min):
    cfg = sl3_min
    gens = cfg.gens
    a_basis, a_dual = cfg.setup.a_pairs
    want = gens.L
    for b, bd in zip(a_basis, a_dual):
        want -= gens.phi(b) * gens.phi(bd) * Fraction(1, 2)
    assert gens.Ltilde == want
    assert cfg.frame.is_in_w(gens.Ltilde)


def test_generator_leading_terms_are_free(sl3_min, sl4_short):
    """Each generator has the g^f coordinate as its linear leading part."""
    for cfg in (sl3_min, sl4_short):
        fr = cfg.frame
        seen = set()
        for name, p in cfg.gens.all_generators():
            linear = [
                m for m in p.coeffs()
                if len(m) == 1 and m[0][1] == 0
                and fr.coord_idx[m[0][0]] in fr._w_pos
            ]
            lead = {m[0][0] for m in linear}
            assert lead, name
            assert not (lead & seen) or name == "L", name
            if name != "L":
                seen |= lead


def test_weight_one_and_three_half_uniqueness(sl3_min):
    """Two membership-passing lifts of the same v agree at weights 1, 3/2."""
    cfg = sl3_min
    fr, gens = cfg.frame, cfg.gens
    s = cfg.setup
    phi = gens.phi(s.basis[s.g0f_indices[0]])
    vs = s.eig_indices(HALF)
    # perturb by every weight-1 monomial supported off g^f
    candidates = []
    for i in vs:
        for j in vs:
            candidates.append(fr.coord_lin(s.basis[i]) * fr.coord_lin(s.basis[j]))
    candidates.append(fr.coord_lin(s.x))
    for c in candidates:
        if fr.is_in_w(phi + c):
            assert not c, "nonzero perturbation kept membership"
    psi = gens.psis[0]
    for i in vs:
        pert = fr.coord_lin(s.basis[i], order=1)
        assert not fr.is_in_w(psi + pert)


def _failures(cfg):
    """Every mismatching entry of the full closed-form table check."""
    tables = verify_table(cfg.frame, cfg.gens)
    n = len(cfg.gens.all_generators())
    # every ordered pair of generators, except {phi, L} and {psi, L} in the
    # short table
    for rows in tables.values():
        assert len(rows) == n * n - (n - 1) * (cfg.setup.kind == SHORT)
    return [m for rows in tables.values() for bad in rows.values() for m in bad]


def test_minimal_tables_sl3_sl4(sl3_min, sl4_min):
    for cfg in (sl3_min, sl4_min):
        assert _failures(cfg) == []


def test_short_tables_sl4(sl4_short):
    assert _failures(sl4_short) == []


def test_isotropic_tables_sl3(sl3_iso):
    tables = verify_table(sl3_iso.frame, sl3_iso.gens)
    assert list(tables) == ["isotropic_h_brackets", "isotropic_k_brackets"]
    assert _failures(sl3_iso) == []


def _cli_frame(algebra: str, s: str):
    """The frame and generators `wds --algebra ALGEBRA --s S` builds for
    the default minimal nilpotent."""
    args = argparse.Namespace(algebra=algebra, nilpotent="minimal", f=None,
                              s=s, form_scale=None)
    frame = make_frame(args)[2]
    return frame, WGenerators(frame)


def _expected_isotropic_k(frame: ReductionFrame, gens: WGenerators):
    """K-brackets for a maximal isotropic l and embeddable s in l."""
    g = frame.algebra
    wz = frame.w_ctx.zero()
    s = frame.s
    phis, psis = _named(gens, "phi"), _named(gens, "psi")
    rows = {}
    rows[("L", "L")] = _lam(frame, wz)
    for na, a in phis:
        rows[("L", na)] = _lam(frame, wz)
        rows[(na, "L")] = _lam(frame, wz)
        for nb, b in phis:
            rows[(na, nb)] = _lam(frame, wz)
        for nu1, u1 in psis:
            rows[(na, nu1)] = _lam(
                frame, frame.w_ctx.const(g.pair(s, g.bracket(u1, a))))
            rows[(nu1, na)] = _lam(
                frame, frame.w_ctx.const(g.pair(s, g.bracket(a, u1))))
    for nu, u in psis:
        rows[("L", nu)] = _lam(
            frame, wz,
            frame.w_ctx.const(g.pair(s, u) * Fraction(-3, 2)))
        rows[(nu, "L")] = _lam(
            frame, wz,
            frame.w_ctx.const(g.pair(s, u) * Fraction(-3, 2)))
        for nu1, u1 in psis:
            rows[(nu, nu1)] = _lam(frame, wz)
    return rows


@pytest.mark.parametrize("algebra", ["sl3", "sl4", "sl5"])
def test_isotropic_k_table_is_the_minimal_k_column(algebra):
    """The paper's isotropic K-table, written out on its own, is the K
    column of the minimal closed forms on the isotropic frame: the same
    keys in the same order, and the same values."""
    frame, gens = _cli_frame(algebra, "isotropic")
    want = _expected_isotropic_k(frame, gens)
    got = {key: k for key, (_, k) in _expected_minimal(frame, gens).items()}
    assert list(got.items()) == list(want.items())
    psis = _named(gens, "psi")
    assert any(want[("L", nu)] for nu, _ in psis)


@pytest.mark.parametrize("algebra", ["sl3", "sl4", "sp6"])
def test_l_psi_k_part_vanishes_at_s_e(algebra):
    """At s = e the K-part -(3/2)(s|u) lambda of {L, psi(u)} and
    {psi(u), L} is 0, since (e|u) = 0 for u in g_-1/2."""
    frame, gens = _cli_frame(algebra, "e")
    rows = _expected_minimal(frame, gens)
    psis = _named(gens, "psi")
    assert psis
    for nu, _ in psis:
        assert not rows[("L", nu)][1] and not rows[(nu, "L")][1], nu


def test_verify_table_brackets_each_pair_once(sl3_iso, monkeypatch):
    """verify_table builds one LeftBracket per left generator, takes the
    partials of each right operand once and brackets each pair (a, b)
    once, though the isotropic H and K tables share their pairs."""
    built = collections.Counter()
    applied = collections.Counter()
    taken = collections.Counter()

    class Counted(walgebra.LeftBracket):
        def __init__(self, table, g):
            built[g] += 1
            super().__init__(table, g)

        def on_partials(self, partials):
            applied[(self.g, id(partials))] += 1
            return super().on_partials(partials)

    partials = walgebra._table_partials

    def counted_partials(table, h):
        taken[h] += 1
        return partials(table, h)

    cfg = sl3_iso
    cfg.gens.table  # built before counting: it brackets in the coordinate ring
    monkeypatch.setattr(walgebra, "LeftBracket", Counted)
    monkeypatch.setattr(walgebra, "_table_partials", counted_partials)
    tables = verify_table(cfg.frame, cfg.gens)
    assert set(tables) == {"isotropic_h_brackets", "isotropic_k_brackets"}
    assert all(not bad for rows in tables.values() for bad in rows.values())
    assert built and max(built.values()) == 1
    assert applied and max(applied.values()) == 1
    assert taken and max(taken.values()) == 1


def test_generator_table_takes_partials_once(sl3_min, monkeypatch):
    """WGenerators.table takes the partials of each right operand once, for
    all its left generators, and gives the table master_bracket gives."""
    taken = collections.Counter()
    partials = walgebra._table_partials

    def counted_partials(table, h):
        taken[h] += 1
        return partials(table, h)

    monkeypatch.setattr(walgebra, "_table_partials", counted_partials)
    fr = sl3_min.frame
    gens = WGenerators(fr)
    table = gens.table
    images = gens._pi_inv_images
    assert sorted(taken.values()) == [1] * len(images)
    for i, wi in enumerate(images):
        for j, wj in enumerate(images):
            want = walgebra._pi_pair(fr, master_bracket(fr.coord_table, wi, wj))
            assert table.get(i, j) == want, (i, j)


def test_table_entry_mutation_is_reported(sl3_min, capsys, monkeypatch):
    """Scaling one entry of the generator table of W makes verify_table
    report that entry, and `wds tables` exit 1."""
    from functools import cached_property
    import wds.cli
    fr = sl3_min.frame
    # table rows follow w_idx; pick the (psi, phi) entry of the first of each
    i = next(k for k, b in enumerate(fr.w_idx) if fr.eig_of[b] == -HALF)
    j = next(k for k, b in enumerate(fr.w_idx) if fr.eig_of[b] == 0)

    class Mutated(WGenerators):
        @cached_property
        def table(self):
            table = WGenerators.table.func(self)
            h, k = table.get(i, j)
            table.set(i, j, h + h, k)
            return table

    gens = Mutated(fr)
    names = [name for name, _ in gens.all_generators()]
    entry = f"{{{names[1 + len(gens.phis)]}, {names[1]}}}"
    rows = verify_table(fr, gens)["minimal_generators"]
    assert rows[entry] and rows[entry][0].startswith(f"H-bracket {entry}: got")
    monkeypatch.setattr(wds.cli, "WGenerators", Mutated)
    code = wds.cli.main(["tables", "--algebra", "sl3"])
    assert code == 1
    assert f"  {entry}: FAIL\n" in capsys.readouterr().out


def test_short_psi_psi_skew_symmetry(sl4_short):
    """The psi-psi bracket is skew under exchanging arguments and
    lambda -> -lambda-d; equivalent to the quadratic tensor identity."""
    from wds.diffpoly import subst_minus_lambda_d
    cfg = sl4_short
    fr, gens = cfg.frame, cfg.gens
    for u in gens.psi_args[:2]:
        for u1 in gens.psi_args[:2]:
            h, k = fr.w_bracket(gens.psi(u), gens.psi(u1))
            h2, k2 = fr.w_bracket(gens.psi(u1), gens.psi(u))
            assert h == -(subst_minus_lambda_d(h2))
            assert k == -(subst_minus_lambda_d(k2))


def test_short_jordan_tensor_identity(sl4_short):
    """sum_k [[e,u],[e,u_k]] (x) [u1,u^k]# = sum_k [u,u^k]# (x) [[e,u1],[e,u_k]]."""
    cfg = sl4_short
    g, s = cfg.algebra, cfg.setup
    us, uds = s.u_pairs
    for iu in s.eig_indices(-1):
        for iu1 in s.eig_indices(-1):
            u, u1 = s.basis[iu], s.basis[iu1]
            lhs = {}
            rhs = {}
            for uk, ukd in zip(us, uds):
                a = g.bracket(g.bracket(s.e, u), g.bracket(s.e, uk))
                b = s.sharp(g.bracket(u1, ukd))
                c = s.sharp(g.bracket(u, ukd))
                d = g.bracket(g.bracket(s.e, u1), g.bracket(s.e, uk))
                for i, ca in a.items():
                    for j, cb in b.items():
                        lhs[(i, j)] = lhs.get((i, j), g.ring.zero()) + ca * cb
                for i, cc in c.items():
                    for j, cd in d.items():
                        rhs[(i, j)] = rhs.get((i, j), g.ring.zero()) + cc * cd
            keys = set(lhs) | set(rhs)
            for key in keys:
                zl = lhs.get(key, g.ring.zero())
                zr = rhs.get(key, g.ring.zero())
                assert zl == zr


def test_primary_fields_isotropic(sl3_iso):
    cfg = sl3_iso
    fr, gens = cfg.frame, cfg.gens
    for w, delta in [(gens.phis[0], Fraction(1)),
                     (gens.psis[0], Fraction(3, 2))]:
        h, _ = fr.w_bracket(gens.L, w)
        assert h == LambdaPoly(fr.coord_ctx,
                               [w.total_derivative(), w.scale(delta)])


def _table_keys(cfg):
    """Closed-form keys of the table rows: the generator names phi(a) /
    psi(u), and None for the Ltilde row of a minimal nilpotent (the closed
    forms are keyed on L)."""
    fr, g = cfg.frame, cfg.algebra
    keys = []
    for b in fr.w_idx:
        ev = fr.eig_of[b]
        if ev == 0:
            keys.append(f"phi({g.vec_str(fr.basis[b])})")
        elif cfg.setup.kind == MINIMAL and ev == -1:
            keys.append(None)
        else:
            keys.append(f"psi({g.vec_str(fr.basis[b])})")
    return keys


@pytest.mark.parametrize("name", ["sl3_min", "sl4_short"])
def test_w_table_is_pva_and_matches_closed_forms(name, request):
    """The generator table of W on V(g^f) is a Poisson vertex algebra in its
    own right, and its phi/psi entries are the paper's closed forms."""
    from wds.pva import check_pva_axioms
    cfg = request.getfixturevalue(name)
    fr, gens = cfg.frame, cfg.gens
    assert check_pva_axioms(gens.table, seed=11, samples=8) == []
    expected = (_expected_minimal if cfg.setup.kind == MINIMAL
                else _expected_short)(fr, gens)
    keys = _table_keys(cfg)
    checked = 0
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if ki is None or kj is None:
                continue
            assert gens.table.get(i, j) == expected[(ki, kj)], (ki, kj)
            checked += 1
    assert checked == sum(k is not None for k in keys) ** 2
