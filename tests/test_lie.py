import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense_la
from dense_oracle import dense_of, sparse_of
from wds import linalg
from wds.scalars import ParamRing, Q
from wds.lie import (EmbeddableData, GradedSetup, GradeMismatch,
                     InvalidDimension, InvariantFailed, LieAlgebra, MINIMAL,
                     NotNilpotent, SHORT, SingularPairing, WrongKind,
                     build_sl, build_sp, coords_in, darboux_split,
                     index_label)
from wds.cli import default_nilpotent, find_isotropic_s
from wds.pva import ReductionFrame


def test_build_sl2_relations():
    g = build_sl(2)
    e, f, h = g.parse({"E12": 1}), g.parse({"E21": 1}), g.parse({"H1": 1})
    assert g.bracket(e, f) == h
    assert g.pair(e, f) == g.ring.one()


def test_build_sl3_form_convention():
    g = build_sl(3)
    assert g.pair(g.parse({"E13": 1}), g.parse({"E31": 1})) == g.ring.one()


def test_build_sl4_dimension_and_axioms():
    g = build_sl(4)
    assert g.dim == 15
    assert g.check_axioms() == []


def test_invalid_dimensions():
    with pytest.raises(InvalidDimension):
        build_sl(1)
    with pytest.raises(InvalidDimension):
        build_sp(3)


def test_sp2_is_sl2():
    sp = build_sp(2)
    sl = build_sl(2)
    # identification A11 -> H1/... : structure constants match under
    # (A11, B11, C11) -> (H1, E12, E21)
    m = {"A11": "H1", "B11": "E12", "C11": "E21"}
    for la, lb in itertools.product(sp.labels, sp.labels):
        br = sp.bracket(sp.parse({la: 1}), sp.parse({lb: 1}))
        want = sl.bracket(sl.parse({m[la]: 1}), sl.parse({m[lb]: 1}))
        got = linalg.combine(list(br.values()),
                             [sl.parse({m[sp.labels[i]]: 1}) for i in br])
        assert got == want


def test_sp4_dimension_and_invariance():
    sp = build_sp(4)
    assert sp.dim == 10
    assert sp.check_axioms() == []


@pytest.fixture(scope="module")
def sl3():
    g = build_sl(3)
    return g, GradedSetup(g, g.parse({"E31": 1}), MINIMAL)


def test_sl3_minimal_grading(sl3):
    g, s = sl3
    # x = (E11 - E33)/2, dim g_{+-1/2} = 2
    x2 = linalg.scale(s.x, g.ring.const(2))
    assert x2 == g.parse({"H1": 1, "H2": 1})
    assert len(s.eig_indices(Fraction(1, 2))) == 2
    assert len(s.eig_indices(Fraction(-1, 2))) == 2
    assert s.depth == 1


def test_dual_coxeter_number_counts():
    for n in (3, 4, 5):
        g = build_sl(n)
        s = GradedSetup(g, g.parse({f"E{n}1": 1}), MINIMAL)
        hv = s.dual_coxeter()
        assert hv == g.ring.const(n)
        assert len(s.eig_indices(Fraction(1, 2))) == 2 * n - 4
    sp = build_sp(4)
    s = GradedSetup(sp, sp.parse({"C11": 1}), MINIMAL)
    assert s.dual_coxeter() == sp.ring.const(3)
    assert len(s.eig_indices(Fraction(1, 2))) == 2 * 3 - 4


def test_grading_is_compatible_with_brackets(sl3):
    g, s = sl3
    for i, vi in enumerate(s.basis):
        for j, vj in enumerate(s.basis):
            br = g.bracket(vi, vj)
            if not br:
                continue
            target = s.eig_of[i] + s.eig_of[j]
            for k in s.to_adapted(br):
                assert s.eig_of[k] == target


def test_xx_equals_half_ef(sl3):
    g, s = sl3
    assert s.xx() == g.pair(s.e, s.f) / 2


def test_omega_dual_bases(sl3):
    g, s = sl3
    vs, vds = s.v_pairs
    # v^1 = v2/(2(x|x)), v^2 = -v1/(2(x|x)) in the worked example
    assert vds[0] == g.parse({"E23": 1})
    assert vds[1] == g.parse({"E12": -1})
    for h in range(2):
        for k in range(2):
            want = g.ring.const(1 if h == k else 0)
            assert s.omega_plus(vs[h], vds[k]) == want
    # induced bases [f, v_k], [f, v^k] are dual w.r.t. -omega_minus
    for h in range(2):
        for k in range(2):
            lhs = s.omega_minus(g.bracket(s.f, vs[h]), g.bracket(s.f, vds[k]))
            assert lhs == g.ring.const(-1 if h == k else 0)


def test_completeness_relations(sl3):
    g, s = sl3
    vs, vds = s.v_pairs
    for i in s.eig_indices(Fraction(1, 2)):
        v = s.basis[i]
        acc = linalg.combine([s.omega_plus(v, vdk) for vdk in vds], vs)
        assert acc == v
        acc2 = linalg.combine([-s.omega_plus(v, vk) for vk in vs], vds)
        assert acc2 == v
    for i in s.eig_indices(Fraction(-1, 2)):
        u = s.basis[i]
        acc = linalg.combine([g.pair(u, vdk) for vdk in vds], vs)
        assert acc == g.bracket(s.e, u)


def test_omega_invariance_identities(sl3):
    """omega(u, [a, u1]) = omega([u, a], u1) + pairing correction, both signs."""
    g, s = sl3
    neg = s.eig_indices(Fraction(-1, 2))
    pos = s.eig_indices(Fraction(1, 2))
    zero = s.eig_indices(0)
    for iu, iu1, ia in itertools.product(neg, neg, zero):
        u, u1, a = s.basis[iu], s.basis[iu1], s.basis[ia]
        lhs = s.omega_minus(u, g.bracket(a, u1))
        rhs = s.omega_minus(g.bracket(u, a), u1) + g.pair(
            g.bracket(s.e, a), g.bracket(u, u1))
        assert lhs == rhs
    for iv, iv1, ia in itertools.product(pos, pos, zero):
        v, v1, a = s.basis[iv], s.basis[iv1], s.basis[ia]
        lhs = s.omega_plus(v, g.bracket(a, v1))
        rhs = s.omega_plus(g.bracket(v, a), v1) + g.pair(
            g.bracket(s.f, a), g.bracket(v, v1))
        assert lhs == rhs


def test_dual_basis_op_and_errors(sl3):
    g, s = sl3
    vs, dual = s.v_pairs  # g_1/2 with its omega_+ dual
    assert s.omega_plus(vs[0], dual[0]) == g.ring.one()
    # the Darboux halves give the dual that inverting the omega_+ Gram
    # matrix gives
    assert dual == s.dual_of_gram(
        [{h: c for h, p in enumerate(vs) if (c := s.omega_plus(p, q))}
         for q in vs], vs)
    with pytest.raises(SingularPairing):  # (g_1/2 | g_1/2) = 0
        s.dual_of_gram([sparse_of([g.pair(p, q) for p in vs]) for q in vs], vs)
    a_basis, ad = s.a_pairs  # g_0^f with its (.|.) dual
    assert g.pair(a_basis[0], ad[0]) == g.ring.one()


def test_projections(sl3):
    """sharp on g_0, and the frame's quotient p -> g^f and coordinates."""
    g, s = sl3
    assert s.sharp(s.x) == {}
    h1 = g.parse({"H1": 1})
    want = linalg.combine([1, -g.pair(h1, s.x) / s.xx()], [h1, s.x])
    assert s.sharp(h1) == want
    g0 = [s.basis[i] for i in s.eig_indices(0)]
    assert all(s.sharp(s.sharp(v)) == s.sharp(v) for v in g0)
    fr = ReductionFrame(s, s.e)

    def pi(v):
        return linalg.combine(fr.to_adapted(v), fr.quotient_images)

    assert pi(s.f) == s.f
    assert pi(s.basis[s.eig_indices(Fraction(1, 2))[0]]) == {}
    assert all(pi(pi(v)) == pi(v) for v in [s.x, s.f, h1])
    # the coordinate ring V(g_<=1/2) drops g_1
    assert fr.p_lin(s.e) == fr.coord_ctx.zero()
    assert fr.p_lin(s.f) == fr.coord_lin(s.f)


def test_sl2_completion_failure_on_non_nilpotent():
    g = build_sl(3)
    with pytest.raises(NotNilpotent):
        GradedSetup(g, g.parse({"H1": 1}), MINIMAL)


def test_wrong_kind_rejection():
    g = build_sl(3)
    with pytest.raises(WrongKind):
        GradedSetup(g, g.parse({"E31": 1}), SHORT)  # has half-integer grades
    g4 = build_sl(4)
    with pytest.raises(WrongKind):
        # the short element has dim g_{+-1} = 4, so it is not minimal
        GradedSetup(g4, g4.parse({"E31": 1, "E42": 1}), MINIMAL)
    with pytest.raises(WrongKind):
        # the principal nilpotent of sl3 has an ad(x)-eigenvalue 2
        GradedSetup(g, g.parse({"E21": 1, "E32": 1}), MINIMAL)


@pytest.fixture(scope="module")
def sl4s():
    g = build_sl(4)
    return g, GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT)


def test_sl4_short_grading(sl4s):
    g, s = sl4s
    assert sorted(s.grading) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert len(s.eig_indices(1)) == 4
    assert len(s.eig_indices(-1)) == 4
    assert len(s.g0f_indices) == 3


def test_sl4_short_sharp_example(sl4s):
    g, s = sl4s
    v = g.parse({"H1": 1, "H2": 1})  # E11 - E33 lies in [f, g_1]
    assert s.sharp(v) == {}


def test_short_complement_z2_grading(sl4s):
    """[[f,g_1],[f,g_1]] lands back in g_0^f."""
    g, s = sl4s
    comp = [s.basis[i] for i in s.g0c_indices]
    gf = set()
    for a in comp:
        for b in comp:
            br = g.bracket(a, b)
            assert s.sharp(br) == br
    for a in [s.basis[i] for i in s.g0f_indices]:
        for b in comp:
            br = g.bracket(a, b)
            if br:
                assert s.sharp(br) == {}


def test_jordan_products(sl4s):
    g, s = sl4s
    rng = random.Random(17)
    us = [s.basis[i] for i in s.eig_indices(-1)]

    def rand(space):
        return linalg.combine(
            [g.ring.const(rng.randint(-2, 2)) for _ in space], space)

    for _ in range(6):
        a, b = rand(us), rand(us)
        assert s.jordan(a, b) == s.jordan(b, a)
        a2 = s.jordan(a, a)
        assert s.jordan(s.jordan(a2, b), a) == s.jordan(a2, s.jordan(b, a))
    u = rand(us)
    assert s.jordan(s.f, u) == linalg.scale(u, g.ring.const(-2))
    vs = [s.basis[i] for i in s.eig_indices(1)]
    v, w = rand(vs), rand(vs)
    assert s.jordan(v, w, eigen=1) == s.jordan(w, v, eigen=1)
    with pytest.raises(GradeMismatch):
        s.jordan(s.f, s.e)


def test_find_embeddable_sl3():
    g = build_sl(3)
    s = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    sv = g.parse({"E12": 1, "E23": 1})
    st = s.find_embeddable(sv)
    assert st == g.parse({"E21": 1, "E32": 1})
    assert g.bracket(sv, st) == linalg.scale(s.x, g.ring.const(2))
    assert s.find_embeddable({}) is None
    data = EmbeddableData(s, sv, st)
    assert data.check() == []
    assert data.g0s == []  # trivial s-centralizer in g_0^f for sl3
    assert len(data.gs_half) == 1


def test_degenerate_chi_reported_by_check():
    """The zero s makes chi vanish on g^s_1/2 = g_1/2: the data still builds,
    and check() names the degenerate form."""
    g = build_sl(3)
    s = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    data = EmbeddableData(s, {}, {})
    assert len(data.gs_half) == 2
    assert "chi degenerate" in data.check()


def test_failed_embeddable_structure_raises(monkeypatch):
    g = build_sl(3)
    s = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    monkeypatch.setattr(EmbeddableData, "check", lambda self: ["chi degenerate"])
    with pytest.raises(InvariantFailed, match="chi degenerate"):
        s.find_embeddable(g.parse({"E12": 1, "E23": 1}))


def test_sp4_admits_no_embeddable():
    sp = build_sp(4)
    s = GradedSetup(sp, sp.parse({"C11": 1}), MINIMAL)
    rng = random.Random(106)
    half = s.eig_indices(Fraction(1, 2))
    for i in half:
        assert s.find_embeddable(s.basis[i]) is None
    for _ in range(100):
        v = linalg.combine([sp.ring.const(rng.randint(-3, 3)) for _ in half],
                           [s.basis[i] for i in half])
        assert s.find_embeddable(v) is None


def test_semisimple_rank_criterion():
    g = build_sl(3)
    s = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    lam = linalg.combine([1, 1], [s.f, g.parse({"E12": 1, "E23": 1})])
    assert s.is_semisimple(lam)
    assert not s.is_semisimple(s.f)
    assert s.is_semisimple(linalg.combine([1, 1], [s.f, s.e]))


def test_darboux_split_sl3():
    g = build_sl(3)
    s = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
    seed = g.parse({"E12": 1, "E23": 1})
    l, lp = darboux_split(s, seed=seed)
    assert l == [seed]
    assert s.omega_plus(l[0], lp[0]) == g.ring.one()
    assert s.omega_plus(l[0], l[0]) == g.ring.zero()
    # l and l' assemble the omega_+-dual structure of the full half space
    g4 = build_sl(4)
    l4, lp4 = darboux_split(GradedSetup(g4, g4.parse({"E41": 1}), MINIMAL))
    assert len(l4) == len(lp4) == 2


def test_setup_serialization(sl3):
    g, s = sl3
    doc = s.to_json()
    assert doc["kind"] == MINIMAL
    assert doc["grading"]["1/2"] == ["E12", "E23"]
    assert "structure" in g.to_json()


def test_loop_kernel_image_split(sl3):
    """ker + im of ad(f+s) is direct exactly for semisimple f+s."""
    g, s = sl3
    dense = DenseLie.of(g)

    def ad_ranks(v):
        ad = dense.ad(dense_of(v, g.dim))
        ad2 = [[sum(a * b for a, b in zip(row, col)) for col in zip(*ad)]
               for row in ad]
        return dense_la.rank(ad), dense_la.rank(ad2)

    r1, r2 = ad_ranks(linalg.combine([1, 1], [s.f, s.e]))
    assert r1 == r2
    r1, r2 = ad_ranks(s.f)
    assert r1 != r2


@st.composite
def vectors_and_map(draw):
    """Vectors over Q, some of them combinations of earlier ones, and a
    linear map given by one to three matrices; and a square matrix over Q
    or Q(c), its entries a + b c, some of its columns combinations of
    earlier ones."""
    dim = draw(st.integers(1, 4))
    entry = st.integers(-2, 2).map(Q.const)
    vecs = []
    for _ in range(draw(st.integers(0, 6))):
        if vecs and draw(st.booleans()):
            coeffs = [Q.const(draw(st.integers(-2, 2))) for _ in vecs]
            vecs.append(linalg.combine(coeffs, vecs))
        else:
            vecs.append(sparse_of(
                draw(st.lists(entry, min_size=dim, max_size=dim))))
    mats = [draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                          min_size=1, max_size=3))
            for _ in range(draw(st.integers(1, 3)))]
    ring = draw(st.sampled_from([Q, ParamRing(["c"])]))

    def coeff():
        c = ring.const(draw(st.integers(-2, 2)))
        if ring.names:
            c = c + ring.const(draw(st.integers(-2, 2))) * ring.param("c")
        return c

    cols = []
    for _ in range(dim):
        if cols and draw(st.integers(0, 3)) == 0:
            cols.append(dense_of(linalg.combine(
                [coeff() for _ in cols], [sparse_of(c) for c in cols]),
                dim, ring.zero()))
        else:
            cols.append([coeff() for _ in range(dim)])
    return vecs, mats, ring, dense_la.transpose(cols)


@settings(max_examples=150, deadline=None)
@given(vectors_and_map())
def test_independent_and_kernel_span_match_oracles(data):
    """independent keeps exactly the vectors a greedy rank test keeps;
    every kernel_span vector maps to zero, and there are len(vecs) - rank
    of them; over the unit vectors kernel_span is the rref kernel basis.
    inverse gives the columns of the dense inverse of a square matrix over
    Q or Q(c), and both refuse a singular one."""
    vecs, mats, ring, square = data
    n = len(mats[0][0])
    greedy = []
    for v in vecs:
        if (dense_la.rank([dense_of(w, n) for w in greedy + [v]])
                > len(greedy)):
            greedy.append(v)
    got = linalg.independent(vecs, Q)
    assert got == greedy
    assert all(any(w is v for v in vecs) for w in got)

    def images(v):
        return [sparse_of(dense_la.mat_vec(m, dense_of(v, n), Q)) for m in mats]

    span = linalg.kernel_span(vecs, images, Q)
    assert all(not any(images(v)) for v in span)
    flat = [[x for m in mats for x in dense_la.mat_vec(m, dense_of(v, n), Q)]
            for v in vecs]
    assert len(span) == len(vecs) - dense_la.rank(flat)
    units = [{i: Q.one()} for i in range(n)]
    assert (linalg.kernel_span(units, images, Q)
            == [sparse_of(v) for v in dense_la.kernel(
                [row for m in mats for row in m], Q, n)])

    cols = [sparse_of(col) for col in dense_la.transpose(square)]
    try:
        want = dense_la.inverse(square, ring)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            linalg.inverse(cols, ring)
    else:
        assert ([dense_of(c, n, ring.zero()) for c in linalg.inverse(cols, ring)]
                == dense_la.transpose(want))


# ---------------------------------------------------------------------------
# the sparse structure constants against the dense layer they replaced
# ---------------------------------------------------------------------------


class DenseLie:
    """The dense Lie layer, kept as an oracle for the sparse one:
    brackets[i][j] is [e_i, e_j] as a full vector and form[i][j] is
    (e_i|e_j)."""

    def __init__(self, ring, labels, brackets, form):
        self.ring, self.labels, self.dim = ring, tuple(labels), len(labels)
        self.brackets, self.form = brackets, form

    @classmethod
    def of(cls, g):
        z = g.ring.zero()
        brackets = [[[z] * g.dim for _ in range(g.dim)] for _ in range(g.dim)]
        for i, row in enumerate(g.struct):
            for j, terms in enumerate(row):
                for k, c in terms.items():
                    brackets[i][j][k] = c
        form = [[z] * g.dim for _ in range(g.dim)]
        for i, terms in enumerate(g.form):
            for j, c in terms.items():
                form[i][j] = c
        return cls(g.ring, g.labels, brackets, form)

    def sparse(self):
        """The LieAlgebra with the same constants."""
        return LieAlgebra(self.ring, self.labels,
                          [[sparse_of(v) for v in row] for row in self.brackets],
                          [sparse_of(row) for row in self.form])

    def zero_vec(self):
        return [self.ring.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.ring.one()
        return v

    def bracket(self, u, v):
        out = self.zero_vec()
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                w = self.brackets[i][j]
                c = ci * cj
                out = [a + c * b if b else a for a, b in zip(out, w)]
        return out

    def pair(self, u, v):
        acc = self.ring.zero()
        for i, ci in enumerate(u):
            if not ci:
                continue
            row = self.form[i]
            for j, cj in enumerate(v):
                if cj and row[j]:
                    acc = acc + ci * cj * row[j]
        return acc

    def ad(self, u):
        cols = [self.bracket(u, self.basis_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def killing(self, u, v):
        au, av = self.ad(u), self.ad(v)
        acc = self.ring.zero()
        for i in range(self.dim):
            for k in range(self.dim):
                if au[i][k] and av[k][i]:
                    acc = acc + au[i][k] * av[k][i]
        return acc

    def check_axioms(self):
        bad = []
        n = self.dim
        br = self.brackets
        for i in range(n):
            for j in range(n):
                if any(x + y for x, y in zip(br[i][j], br[j][i])):
                    bad.append(f"antisymmetry [{self.labels[i]},{self.labels[j]}]")
        for i in range(n):
            for j in range(i + 1, n):
                bij = br[i][j]
                for k in range(j, n):
                    jac = [x + y + z for x, y, z in zip(
                        self.bracket(bij, self.basis_vec(k)),
                        self.bracket(br[j][k], self.basis_vec(i)),
                        self.bracket(br[k][i], self.basis_vec(j)))]
                    if any(jac):
                        bad.append(
                            f"jacobi ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                        )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.pair(br[i][j], self.basis_vec(k))
                    rhs = self.pair(self.basis_vec(j), br[i][k])
                    if lhs + rhs:
                        bad.append(
                            f"invariance ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                        )
        if dense_la.rank(self.form) != n:
            bad.append("degenerate form")
        return bad


ORACLE_ALGEBRAS = {
    "sl3": lambda: build_sl(3),
    "sp4": lambda: build_sp(4),
    "sl3_form_scale": lambda: build_sl(3, form_scale="c"),
}


@functools.cache
def oracle_pair(name):
    g = ORACLE_ALGEBRAS[name]()
    return g, DenseLie.of(g)


@st.composite
def algebra_and_vectors(draw):
    """An oracle algebra and three sparse vectors; over Q(c) the
    coefficients are a + b c."""
    g, dense = oracle_pair(draw(st.sampled_from(sorted(ORACLE_ALGEBRAS))))
    ring = g.ring

    def coeff():
        c = ring.const(draw(st.integers(-3, 3)))
        if ring.names:
            c = c + ring.const(draw(st.integers(-2, 2))) * ring.param("c")
        return c

    vecs = []
    for _ in range(3):
        v = {i: coeff() for i in draw(
            st.lists(st.integers(0, g.dim - 1), max_size=4))}
        vecs.append({i: c for i, c in v.items() if c})
    return g, dense, vecs


@settings(max_examples=60, deadline=None)
@given(algebra_and_vectors())
def test_sparse_layer_matches_dense_oracle(data):
    """bracket, pair, ad and killing read off the sparse constants agree
    with the dense layer on sl3, sp4 and sl3 over Q(c) with form_scale;
    the columns of ad(w) are the brackets with the basis vectors."""
    g, dense, vecs = data
    z = g.ring.zero()
    u, v, w = (dense_of(x, g.dim, z) for x in vecs)
    su, sv, sw = vecs
    assert dense_of(g.bracket(su, sv), g.dim, z) == dense.bracket(u, v)
    assert g.pair(su, sw) == dense.pair(u, w)
    assert dense_la.transpose([dense_of(g.bracket(sw, e), g.dim, z)
                             for e in g.units]) == dense.ad(w)
    assert g.killing(su, sv) == dense.killing(u, v)


def _matrix_of(label, n):
    """The matrix of an sl_n or sp_n basis label (indices below 10)."""
    m = [[0] * n for _ in range(n)]
    stem, i, j = label[0], int(label[1]) - 1, int(label[2:] or 0) - 1
    if stem == "E":
        m[i][j] = 1
    elif stem == "H":
        m[i][i], m[i + 1][i + 1] = 1, -1
    else:
        h = n // 2
        if stem == "A":
            m[i][j], m[h + j][h + i] = 1, -1
        else:
            r0, c0 = (0, h) if stem == "B" else (h, 0)
            m[r0 + i][c0 + j] = 1
            m[r0 + j][c0 + i] = 1
    return m


@pytest.mark.parametrize("build, n", [(build_sl, 2), (build_sl, 3),
                                      (build_sl, 4), (build_sp, 4),
                                      (build_sl, 5), (build_sl, 6),
                                      (build_sp, 2), (build_sp, 6),
                                      (build_sp, 8)])
def test_structure_constants_match_matrices(build, n):
    """[e_a, e_b] = sum c_ab^k e_k and (e_a|e_b) = scale tr(e_a e_b) for the
    matrix realisation, so the sparse table is right, not only
    self-consistent; sl_n is checked with the plain and the c-scaled form."""
    algebras = [build(n)]
    if build is build_sl:
        algebras.append(build(n, form_scale="c"))
    mats = [_matrix_of(lab, n) for lab in algebras[0].labels]

    def mul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)]

    for g in algebras:
        scale = g.ring.param("c") if g.ring.names else g.ring.one()
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                ab, ba = mul(ma, mb), mul(mb, ma)
                want = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
                got = [[0] * n for _ in range(n)]
                for k, c in g.struct[a][b].items():
                    got = [[x + c * y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(got, mats[k])]
                assert got == want, (g.labels[a], g.labels[b])
                tr = sum(ab[r][r] for r in range(n))
                assert (g.pair(g.parse({g.labels[a]: 1}),
                               g.parse({g.labels[b]: 1}))
                        == scale * g.ring.const(tr))


def _setup(g, f_labels, kind):
    return GradedSetup(g, g.parse(dict.fromkeys(f_labels, 1)), kind)


def _isotropic_frame(n):
    setup = _setup(build_sl(n), [index_label("E", n, 1)], MINIMAL)
    return ReductionFrame(setup, find_isotropic_s(setup)[0], isotropic=True)


DUAL_OWNERS = {
    "sl3_minimal": lambda: _setup(build_sl(3), ["E31"], MINIMAL),
    "sl4_minimal": lambda: _setup(build_sl(4), ["E41"], MINIMAL),
    "sl4_short": lambda: _setup(build_sl(4), ["E31", "E42"], SHORT),
    "sl6_short": lambda: _setup(build_sl(6), ["E41", "E52", "E63"], SHORT),
    "sp6_short": lambda: _setup(build_sp(6), ["C11", "C22", "C33"], SHORT),
    "sl4_short_symbolic": lambda: _setup(
        build_sl(4, params=["s1", "s2"], form_scale="c"), ["E31", "E42"], SHORT),
    "sl3_isotropic_frame": lambda: _isotropic_frame(3),
    "sl4_isotropic_frame": lambda: _isotropic_frame(4),
}


@pytest.mark.parametrize("name", sorted(DUAL_OWNERS))
def test_coordinates_and_dual_bases(name):
    """to_adapted(b_j) is the j-th unit vector and (b_i|b^j) = delta_ij for
    a setup's or a frame's adapted basis; the setup's a_pairs, g0_pairs and
    u_pairs are the restrictions of its full dual basis and agree with a
    dual found by inverting each subspace's own Gram matrix."""
    owner = DUAL_OWNERS[name]()
    setup = getattr(owner, "setup", owner)
    g, ring = setup.algebra, setup.ring
    for j, b in enumerate(owner.basis):
        assert owner.to_adapted(b) == {j: ring.one()}
        assert [g.pair(bi, owner.dual_basis[j]) for bi in owner.basis] == [
            ring.const(int(i == j)) for i in range(g.dim)]
    basis, dual = setup.basis, setup.dual_basis
    g1 = [basis[i] for i in setup.eig_indices(1)]
    checks = [(setup.a_pairs, setup.g0f_indices, None),
              (setup.g0_pairs, setup.eig_indices(0), None)]
    if setup.kind == SHORT:
        checks.append((setup.u_pairs, setup.eig_indices(-1), g1))
    for (vecs, duals), idx, partner in checks:
        assert vecs == [basis[i] for i in idx]
        assert duals == [dual[i] for i in idx]
        partner = partner or vecs
        assert duals == setup.dual_of_gram(
            [{h: c for h, p in enumerate(vecs) if (c := g.pair(p, q))}
             for q in partner], partner)


def _symbolic_frame():
    g = build_sl(4, params=["s1", "s2"], form_scale="c")
    setup = _setup(g, ["E31", "E42"], SHORT)
    s1, s2 = g.ring.param("s1"), g.ring.param("s2")
    return ReductionFrame(setup, g.parse({"E13": s1, "E24": s2}))


def _frame_with_e(setup):
    return ReductionFrame(setup, setup.e)


# the frames of the sparse-against-dense vector oracle: sl3, sp4, sl4
# isotropic, and sl4 short over Q(c, s1, s2)
VECTOR_FRAMES = {
    "sl3_minimal": lambda: _frame_with_e(_setup(build_sl(3), ["E31"], MINIMAL)),
    "sp4_minimal": lambda: _frame_with_e(_setup(build_sp(4), ["C11"], MINIMAL)),
    "sl4_isotropic": lambda: _isotropic_frame(4),
    "sl4_short_symbolic": _symbolic_frame,
}


def basis_inverse(basis, g):
    """The dense inverse of the matrix whose columns are basis: the dense
    coordinate map of that basis, found without a dual basis."""
    cols = [dense_of(b, g.dim, g.ring.zero()) for b in basis]
    return dense_la.inverse(dense_la.transpose(cols), g.ring)


@functools.cache
def dense_frame(name):
    """A frame, the dense Lie layer of its algebra, and the dense
    coordinate maps of the frame's and of its setup's adapted basis."""
    frame = VECTOR_FRAMES[name]()
    g = frame.algebra
    return (frame, DenseLie.of(g), basis_inverse(frame.basis, g),
            basis_inverse(frame.setup.basis, g))


def dense_coords_in(to_adapted, v, allowed):
    """coords_in on dense coordinates: the coordinates, or GradeMismatch."""
    co = to_adapted(v)
    if any(c and i not in allowed for i, c in enumerate(co)):
        raise GradeMismatch("off the allowed indices")
    return co


@st.composite
def frame_and_vectors(draw):
    """A VECTOR_FRAMES frame with its dense oracle, three sparse vectors,
    three coefficients and a set of adapted indices; over Q(c, s1, s2) a
    coefficient is a + b p for a parameter p."""
    name = draw(st.sampled_from(sorted(VECTOR_FRAMES)))
    frame, dense, inv, setup_inv = dense_frame(name)
    g, ring = frame.algebra, frame.ring

    def coeff():
        c = ring.const(draw(st.integers(-3, 3)))
        if ring.names:
            p = ring.param(draw(st.sampled_from(ring.names)))
            c = c + ring.const(draw(st.integers(-2, 2))) * p
        return c

    vecs = []
    for _ in range(3):
        # a basis vector of the frame, or a few entries over g's basis
        if draw(st.booleans()):
            v = frame.basis[draw(st.integers(0, g.dim - 1))]
        else:
            v = {i: coeff() for i in draw(
                st.lists(st.integers(0, g.dim - 1), max_size=4))}
        vecs.append({i: c for i, c in v.items() if c})
    coeffs = [coeff() for _ in range(3)]
    allowed = set(draw(st.lists(st.integers(0, g.dim - 1), max_size=g.dim)))
    return (frame, dense, inv, setup_inv, vecs, coeffs, allowed,
            draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(frame_and_vectors())
def test_sparse_vectors_match_dense_oracle(data):
    """bracket, pair, to_adapted, coords_in, linalg.combine and
    Context.linear on sparse vectors equal the dense list versions, on sl3,
    sp4, sl4 isotropic and sl4 over Q(c, s1, s2); no sparse result holds
    a zero coefficient."""
    frame, dense, inv, setup_inv, vecs, coeffs, allowed, order = data
    g, ring = frame.algebra, frame.ring
    n, z = g.dim, ring.zero()
    su, sv, sw = vecs
    u, v, w = (dense_of(x, n, z) for x in vecs)

    def dense_out(x):
        assert all(x.values())
        return dense_of(x, n, z)

    def to_adapted(x):
        return dense_la.mat_vec(inv, x, ring)

    assert dense_out(g.bracket(su, sv)) == dense.bracket(u, v)
    assert g.pair(su, sw) == dense.pair(u, w)
    assert dense_out(frame.to_adapted(sw)) == to_adapted(w)
    assert (dense_out(frame.setup.to_adapted(sw))
            == dense_la.mat_vec(setup_inv, w, ring))
    try:
        want = dense_coords_in(to_adapted, w, allowed)
    except GradeMismatch:
        with pytest.raises(GradeMismatch):
            coords_in(frame, sw, allowed, "off the allowed indices")
    else:
        assert dense_out(coords_in(frame, sw, allowed, "")) == want
    dense_sum = [sum((c * x[i] for c, x in zip(coeffs, (u, v, w))), z)
                 for i in range(n)]
    assert dense_out(linalg.combine(coeffs, vecs)) == dense_sum
    ctx, co = frame.full_ctx, to_adapted(w)
    want = ctx.zero()
    for i, c in enumerate(co):
        if c:
            want = want + ctx.gen(i, order).scale(c)
    assert ctx.linear(frame.to_adapted(sw), order) == want


@pytest.mark.parametrize("name", sorted(VECTOR_FRAMES))
def test_frame_struct_matches_dense_construction(name):
    """frame.struct[i][j] is the Vec, keys increasing, of the nonzero dense
    adapted coordinates of the dense bracket [b_i, b_j], entry for entry
    over all dim^2 pairs."""
    frame, dense, inv, _ = dense_frame(name)
    g, ring = frame.algebra, frame.ring
    basis = [dense_of(b, g.dim, ring.zero()) for b in frame.basis]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            co = dense_la.mat_vec(inv, dense.bracket(bi, bj), ring)
            assert (list(frame.struct[i][j].items())
                    == list(sparse_of(co).items()))


# sl3, sp4 and sl4 short, each over Q(c, s1, s2)
SYMBOLIC_FRAMES = {
    "sl3": lambda: _frame_with_e(_setup(
        build_sl(3, params=["s1", "s2"], form_scale="c"), ["E31"], MINIMAL)),
    "sp4": lambda: _frame_with_e(_setup(
        build_sp(4, params=["c", "s1", "s2"]), ["C11"], MINIMAL)),
    "sl4": _symbolic_frame,
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_FRAMES))
def test_tables_are_vecs_in_key_order(name):
    """The one sparse format: every structure constant entry and form row
    of the algebra, every structure constant entry of the frame and every
    column of ad(f) and ad(s) is a Vec, a dict with no zero value, with its
    keys increasing."""
    frame = SYMBOLIC_FRAMES[name]()
    g = frame.algebra
    vecs = [v for row in g.struct + frame.struct for v in row] + g.form
    vecs += frame.ad_adapted(frame.setup.f) + frame.ad_adapted(frame.s)
    assert all(type(v) is dict and list(v) == sorted(v) and all(v.values())
               for v in vecs)


def _corrupt_constant(dense, i, j, k, delta):
    """Add delta to c_ij^k and subtract it from c_ji^k."""
    dense.brackets[i][j][k] = dense.brackets[i][j][k] + delta
    if i != j:
        dense.brackets[j][i][k] = dense.brackets[j][i][k] - delta


def _break_antisymmetry(dense, i, j, k, delta):
    """Add delta to c_ij^k alone."""
    dense.brackets[i][j][k] = dense.brackets[i][j][k] + delta


def _degenerate_form(dense, i, j, k, delta):
    """Zero the form row and column of e_i: (e_i|-) = 0."""
    z = dense.ring.zero()
    for r in range(dense.dim):
        dense.form[i][r] = dense.form[r][i] = z


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(["sl3", "sp4", "sl3_form_scale"]),
       st.sampled_from([_corrupt_constant, _break_antisymmetry,
                        _degenerate_form]),
       st.data())
def test_check_axioms_reports_corruption_like_dense_oracle(name, corrupt, data):
    """On an algebra with one constant changed (antisymmetry kept or
    broken) or a degenerate form, check_axioms returns the dense oracle's
    non-empty report, entry for entry and in order."""
    g, _ = oracle_pair(name)
    dense = DenseLie.of(g)  # a fresh copy to corrupt
    i, j, k = (data.draw(st.integers(0, g.dim - 1)) for _ in range(3))
    corrupt(dense, i, j, k, g.ring.const(data.draw(st.integers(1, 3))))
    want = dense.check_axioms()
    assert want
    assert dense.sparse().check_axioms() == want


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_check_axioms_clean_like_dense_oracle(name):
    g, dense = oracle_pair(name)
    assert g.check_axioms() == dense.check_axioms() == []


def test_index_labels_unique_and_unchanged_below_ten():
    """The E/A/B/C index labels are unique for every size, and for
    indices below 10 they are the bare digit pairs."""
    labels = [index_label("E", i, j) for i in range(1, 31) for j in range(1, 31)]
    assert len(set(labels)) == len(labels)
    assert index_label("E", 1, 2) == "E12"
    assert index_label("E", 1, 11) == "E1_11"
    assert index_label("E", 11, 1) == "E11_1"
    assert build_sl(4).labels[:3] == ("E12", "E13", "E14")
    assert build_sp(4).labels == ("A11", "A12", "A21", "A22", "B11", "B12",
                                  "B22", "C11", "C12", "C22")


def test_sl11_labels_are_distinct():
    g = build_sl(11)
    assert len(set(g.labels)) == g.dim == 120
    assert g.labels[:10] == ("E12", "E13", "E14", "E15", "E16", "E17", "E18",
                             "E19", "E1_10", "E1_11")
    assert g.parse({"E1_11": 1}) != g.parse({"E11_1": 1})
    # the CLI's lowest-root default names E_11,1, not E_1,11
    f = default_nilpotent(g, "sl11", MINIMAL)
    assert f == g.parse({"E11_1": 1})


def test_duplicate_labels_rejected():
    with pytest.raises(InvariantFailed, match="duplicate basis labels"):
        LieAlgebra(Q, ["a", "a"], [[[], []], [[], []]], [[], []])
