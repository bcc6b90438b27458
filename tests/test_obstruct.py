from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from halfflat import linalg, obstruct, stable
from halfflat.classify3d import classify
from halfflat.errors import HalfFlatError
from halfflat.exterior import KForm, basis_masks, covector, evaluate, wedge, wedge_all, volume_ratio, contract, kappa
from halfflat.liealg import catalog, catalog_classes, change_basis, direct_sum, to_block
from halfflat.stable import lambda_of

from .conftest import basis, random_form
from .oracles import dense_k_matrix, dense_lambda

V_STD = None


def _v_std():
    return (covector(1), covector(4))


def test_factor_candidates():
    # A(g): closed one-forms alpha with d e^k ^ alpha = 0, the factors of coherent splittings
    dims = {"su2": 0, "sl2": 0, "r2R": 1, "r3mu": 1, "h3": 2, "R3": 3}
    for name, dim in dims.items():
        L3 = catalog(name, Fraction(1, 2) if name == "r3mu" else None)
        forms = obstruct.annihilating_forms(L3)
        assert len(forms) == dim, name
        for alpha in forms:
            assert L3.d(alpha).is_zero()
            assert all(wedge(L3.d(covector(k)), alpha).is_zero() for k in (1, 2, 3))


def test_coherent_splittings_iff_solvable():
    solvable = ("e2", "e11", "h3", "R3", "r2R", "r3", "r31")
    for n1 in solvable:
        for n2 in ("su2", "sl2"):
            L = direct_sum(catalog(n1), catalog(n2))
            assert obstruct.coherent_splittings(L) is None
    L = direct_sum(catalog("h3"), catalog("r3"))
    assert obstruct.coherent_splittings(L) is not None


def test_one_coherent_splitting_decides(rng):
    # every nonzero alpha_i in A(g_i) gives a coherent V = span(alpha1, alpha2) with
    # the verdict of the one splitting that coherent_splittings returns
    solvable = [catalog(n) for n in ("e2", "h3", "R3", "r2R", "r3")] + [catalog("r3mu", Fraction(1, 2))]
    for L1, L2 in combinations_with_replacement(solvable, 2):
        if {L1.name, L2.name}.isdisjoint({"h3", "R3"}):
            continue  # A(g1) and A(g2) are lines: nothing else to choose
        L = direct_sum(L1, L2)
        pair = obstruct.coherent_splittings(L)
        want = obstruct.check_obstruction(L, pair).verdict
        for _ in range(3):
            alphas = []
            for block, L3 in enumerate((L1, L2)):
                alpha = KForm(1)
                while alpha.is_zero():
                    for b in obstruct.annihilating_forms(L3):
                        alpha = alpha + b.scale(Fraction(rng.randint(-2, 2)))
                alphas.append(to_block(alpha, block))
            assert obstruct.check_obstruction(L, tuple(alphas)).verdict == want, (L1.name, L2.name)


def test_check_obstruction_ranks_r2R_r2R():
    L = direct_sum(catalog("r2R"), catalog("r2R"))
    rep = obstruct.check_obstruction(L, _v_std())
    assert rep.verdict == obstruct.VERDICT_OBSTRUCTED
    assert rep.rank_d_lambda3_w == 4 and rep.rank_d_lambda4_w == 1


def test_check_obstruction_solvable_with_r3_family():
    g2s = [("r3", None)] + [("r3mu", m) for m in (Fraction(-1, 2), Fraction(1, 2), 1)] + [
        ("r3pmu", 2)
    ]
    for g1 in ("e2", "e11", "h3", "R3", "r2R", "r3"):
        for name, mu in g2s:
            L = direct_sum(catalog(g1), catalog(name, mu))
            rep = obstruct.check_obstruction(L, _v_std())
            assert rep.verdict == obstruct.VERDICT_OBSTRUCTED, (g1, name, mu)
            assert rep.rank_d_lambda3_w == 4 and rep.rank_d_lambda4_w == 1


def test_check_obstruction_inconclusive_on_h3_r2R():
    L = direct_sum(catalog("h3"), catalog("r2R"))
    rep = obstruct.check_obstruction(L, _v_std())
    assert rep.verdict == obstruct.VERDICT_INCONCLUSIVE
    assert not rep.h03


def test_check_obstruction_requires_coherent():
    L = direct_sum(catalog("su2"), catalog("r3"))
    with pytest.raises(HalfFlatError):
        obstruct.check_obstruction(L, _v_std())


def test_refined_h3_r2R():
    # a is the r2R-block form of the splitting, spanning A(r2R), in either summand order
    (a,) = obstruct.annihilating_forms(catalog("r2R"))
    assert obstruct.refined_h3_r2R(direct_sum(catalog("h3"), catalog("r2R")), to_block(a, 1))
    assert obstruct.refined_h3_r2R(direct_sum(catalog("r2R"), catalog("h3")), a)
    # the h3-block form (e1 on h3 + r2R, f1 = e4 on r2R + h3) fails hypothesis (1), a ^ sigma ^ beta = 0
    assert not obstruct.refined_h3_r2R(direct_sum(catalog("h3"), catalog("r2R")), covector(1))
    assert not obstruct.refined_h3_r2R(direct_sum(catalog("r2R"), catalog("h3")), covector(4))
    control = direct_sum(catalog("su2"), catalog("su2"))
    assert not obstruct._k_entries_vanish(control, ((covector(4), basis(3)), (covector(4), basis(5))))
    # e2 + r2R admits SU(3) (row T4.1), so its A(r2R) form cannot be isotropic for every pair
    assert not obstruct.refined_h3_r2R(direct_sum(catalog("e2"), catalog("r2R")), to_block(a, 1))


def test_refined_h3_r2R_polarization_consistency(rng):
    # quadratic form vanishes on Z^3 iff the polarized form vanishes on Z^3 x Z^3
    L = direct_sum(catalog("h3"), catalog("r2R"))
    z3 = L.closed_forms(3)
    f1 = covector(4)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in z3]
        rho = KForm(3)
        for c, b in zip(coeffs, z3):
            rho = rho + b.scale(c)
        for v in (basis(3), basis(5)):
            quad = wedge(wedge(f1, contract(v, rho)), rho)
            assert quad.is_zero()


def test_refined_r2R_R3():
    L = direct_sum(catalog("r2R"), catalog("R3"))
    assert obstruct.refined_r2R_R3(L)
    assert len(L.closed_forms(1)) == 5
    flat = direct_sum(catalog("R3"), catalog("R3"))
    assert not obstruct._k_entries_vanish(flat, [(covector(u + 1), basis(2)) for u in range(6) if u != 1])
    # the hypothesis dim [g, g] = 1 fails on su2 + su2 and R3 + R3; h3 + R3 meets it and
    # admits SU(3) (row T3.2), so K_rho cannot keep its line [g, g]
    for g1, g2 in (("su2", "su2"), ("R3", "R3"), ("h3", "R3")):
        assert not obstruct.refined_r2R_R3(direct_sum(catalog(g1), catalog(g2))), (g1, g2)


def test_refined_decision_classifies_each_summand_once(monkeypatch):
    calls = []

    def counting_classify(L3):
        calls.append(L3)
        return classify(L3)

    monkeypatch.setattr(obstruct, "classify", counting_classify)
    for g1, g2 in (("h3", "r2R"), ("r2R", "h3"), ("r2R", "R3"), ("R3", "r2R")):
        calls.clear()
        L = direct_sum(catalog(g1), catalog(g2))
        verdict, _ = obstruct.decide(L)
        assert verdict == obstruct.VERDICT_OBSTRUCTED
        assert calls == list(L.summands)


def test_decide_in_block_diagonal_basis(rng):
    # the e/f split is read from d, so a change of basis within each block keeps the
    # decision: one sum per ordered class pair, each factor in a random GL(3,Q) basis
    zero = [Fraction(0)] * 3
    insts = [spec.instances()[0] for spec in catalog_classes()]
    for L1, L2 in product(insts, insts):
        L = direct_sum(L1, L2)
        a, b = _gl3(rng), _gl3(rng)
        M = change_basis(L, [row + zero for row in a] + [zero + row for row in b])
        assert obstruct.decide(M) == obstruct.decide(L), (L1.name, L2.name)


def test_refined_r2R_R3_implies_lambda_nonneg(rng):
    L = direct_sum(catalog("r2R"), catalog("R3"))
    z3 = L.closed_forms(3)
    for _ in range(50):
        rho = KForm(3)
        for b in z3:
            rho = rho + b.scale(Fraction(rng.randint(-5, 5)))
        assert lambda_of(rho) >= 0


def test_lambda_scan_nonnegative_classes():
    L = direct_sum(catalog("h3"), catalog("r3mu", Fraction(1, 2)))
    rep = obstruct.lambda_nonneg_scan(L, 300, seed=7)
    assert rep.all_nonnegative
    L2 = direct_sum(catalog("r2R"), catalog("r3pmu", 2))
    rep2 = obstruct.lambda_nonneg_scan(L2, 300, seed=7)
    assert rep2.all_nonnegative
    assert "not a proof" in rep2.to_text()


def test_lambda_scan_control_finds_negative():
    L = direct_sum(catalog("su2"), catalog("su2"))
    rep = obstruct.lambda_nonneg_scan(L, 1000, seed=7)
    assert not rep.all_nonnegative
    assert rep.first_negative is not None and rep.first_negative < 100


def test_lambda_scan_matches_exact_path():
    # the integer quadratic forms and quartic the scan reads must agree with
    # the exact KForm pipeline at random integer coordinates, and both with a
    # K that does not use the library's table
    rng = random.Random(5)
    for L in (direct_sum(catalog("e11"), catalog("r3")), _conjugated_sum(rng, "h3", "r3mu", Fraction(-1, 2))):
        z3 = L.closed_forms(3)
        forms = stable.k_on_basis(z3)
        den = math.lcm(*(c.denominator for z in z3 for c in z.terms.values()))
        quartic = stable.trace_of_square_quartic(forms)
        for _ in range(30):
            n = [rng.randint(-8, 8) for _ in z3]
            rho = KForm(3)
            for b, na in zip(z3, n):
                rho = rho + b.scale(Fraction(na))
            K = stable.k_matrix(rho)
            K_int = [[sum(c * n[a] * n[b] for (a, b), c in forms.get((u, v), {}).items()) for v in range(6)]
                     for u in range(6)]
            assert K_int == [[den**2 * x for x in row] for row in K]
            lam6 = sum(c * n[a] * n[b] * n[e] * n[f] for (a, b, e, f), c in quartic.items())
            exact = lambda_of(rho)
            assert lam6 == 6 * den**4 * exact
            # independent side: K from the dense permutation formulas
            assert dense_lambda(dense_k_matrix(rho)) == exact


def _gl3(rng):
    """A random invertible rational 3x3 matrix."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        if linalg.det(m) != 0:
            return m


def _conjugated_sum(rng, g1, g2, mu=None):
    """g1 (+) g2 with each factor in a random rational basis (dense quadratic forms)."""
    return direct_sum(change_basis(catalog(g1), _gl3(rng)), change_basis(catalog(g2, mu), _gl3(rng)))


def _reference_scan(L, n_samples, seed):
    """The scan on the exact KForm path: Fraction draws, lambda_of per sample."""
    rng = random.Random(seed)
    z3 = L.closed_forms(3)
    for sample in range(n_samples):
        rho = KForm(3)
        for b in z3:
            rho = rho + b.scale(Fraction(rng.randint(-40, 40), 4))
        if lambda_of(rho) < 0:
            return False, sample
    return True, None


@pytest.mark.parametrize(
    "g1, g2, mu",
    [
        ("h3", "r3mu", Fraction(-3, 4)),
        ("r2R", "r3pmu", Fraction(1, 4)),
        ("R3", "r3", None),
        ("su2", "su2", None),
        ("su2", "e11", None),
        ("R3", "R3", None),
    ],
)
def test_lambda_scan_matches_reference_scan(g1, g2, mu):
    # the standard basis and the factors in random rational bases
    rng = random.Random(11)
    for L in (direct_sum(catalog(g1), catalog(g2, mu)), _conjugated_sum(rng, g1, g2, mu)):
        for seed in (1, 7, 20240817):
            rep = obstruct.lambda_nonneg_scan(L, 40, seed=seed)
            assert (rep.all_nonnegative, rep.first_negative) == _reference_scan(L, 40, seed)
        rep = obstruct.lambda_nonneg_scan(L, 0, seed=1)
        assert (rep.n_samples, rep.all_nonnegative, rep.first_negative) == (0, True, None)


def test_lambda_scan_refuses_negative_samples():
    L = direct_sum(catalog("h3"), catalog("r2R"))
    with pytest.raises(ValueError, match="n_samples"):
        obstruct.lambda_nonneg_scan(L, -5, seed=1)


def test_scan_draws_are_randint_stream():
    # the local getrandbits(7) rejection loop reads the stream of randint(-40, 40),
    # value for value, and leaves the generator where randint would
    for seed in range(60):
        rng, ref = random.Random(seed), random.Random(seed)
        count = seed % 13 + 1
        assert obstruct._draws(rng, count) == [ref.randint(-40, 40) for _ in range(count)]
        assert rng.random() == ref.random()


def _reference_is_coherent(L, v_pair):
    """Coherence through KForm wedges: closed alphas, alpha1 ^ alpha2 != 0, d e^k ^ alpha1 ^ alpha2 = 0."""
    a1, a2 = v_pair
    if not (L.d(a1).is_zero() and L.d(a2).is_zero()):
        return False
    vv = wedge(a1, a2)
    return not vv.is_zero() and all(wedge(dk, vv).is_zero() for dk in L.diffs)


def test_is_coherent_matches_wedge_reference(rng):
    # the minors-and-scaled-d test against the wedge route: on the splitting of each
    # ordered catalog sum, on random pairs in A(g1) (+) A(g2), on random one-forms and
    # on sums of factors in random GL(3,Q) bases
    insts = [L for spec in catalog_classes() for L in spec.instances()]
    sums = [direct_sum(L1, L2) for L1, L2 in product(insts, insts)]
    sums += [_conjugated_sum(rng, g1, g2) for g1, g2 in (("h3", "r2R"), ("R3", "r3"), ("r2R", "R3"), ("su2", "h3"))]
    seen = Counter()
    for L in sums:
        a = obstruct.annihilating_forms(L.summands[0]) + [to_block(b, 1) for b in obstruct.annihilating_forms(L.summands[1])]
        splitting = obstruct.coherent_splittings(L)
        pairs = [] if splitting is None else [splitting]
        for _ in range(3):
            pairs.append(tuple(sum((b.scale(Fraction(rng.randint(-2, 2))) for b in a), KForm(1)) for _ in range(2)))
            pairs.append((random_form(rng, 1, density=0.3), random_form(rng, 1, density=0.3)))
        for pair in pairs:
            want = _reference_is_coherent(L, pair)
            assert obstruct.is_coherent(L, pair) == want, (L.name, pair)
            seen[want] += 1
    assert seen[True] > 100 and seen[False] > 100, seen


def _reference_pure_w_vanishes(forms_in, coframe):
    """All C(6, k) coefficients in the adapted wedge basis, then the pure-W ones."""
    c_mat = [[c.coeff(1 << i) for i in range(6)] for c in coframe]
    duals = linalg.transpose(linalg.invert(c_mat))
    for f in forms_in:
        for subset in combinations(range(6), f.degree):
            if 0 not in subset and 1 not in subset:
                if evaluate(f, [duals[i] for i in subset]) != 0:
                    return False
    return True


def _adapted_coframe(pair) -> list[KForm]:
    """V's two forms, then the coframe elements e^i that complete them, i outside V's rref pivots."""
    return list(pair) + [covector(i + 1) for i in obstruct._w_indices(pair)]


def _reference_rank_of_d(L, forms_in) -> int:
    """Rank of d on the span of forms of one degree."""
    masks = basis_masks(forms_in[0].degree + 1)
    return linalg.rank([L.d(f).coefficients(masks) for f in forms_in])


def _reference_undecided(L, coframe) -> bool:
    """d W has a Lambda^2 V component: some d w ^ vol_W is nonzero, w in W."""
    vol_w = wedge_all(coframe[2:])
    return any(not wedge(L.d(w), vol_w).is_zero() for w in coframe[2:])


def _factor_wise(pair) -> bool:
    """V = span(pair) is spanned by one form of each summand: each block projection has rank 1."""
    return all(linalg.rank([[a.coeff(1 << i) for i in block] for a in pair]) == 1 for block in ((0, 1, 2), (3, 4, 5)))


def test_ranks_decide_pure_w_components(rng):
    # h03 and h04, read off the ranks of d on Lambda^3 W and Lambda^4 W, against every
    # pure-W component of a basis of Z^3 and Z^4 in the adapted coframe: on the splitting
    # of each of the 400 ordered catalog sums and on random coherent V in A(g1) (+) A(g2).
    # Such a V that is not factor-wise needs an abelian summand, so sums with R3 get more
    # draws.  The ranks must equal those on the wedge-built Lambda^3 W and Lambda^4 W.  Where
    # d W has a Lambda^2 V component the ranks do not decide and check_obstruction refuses
    insts = [L for spec in catalog_classes() for L in spec.instances()]
    seen = Counter()
    for L1, L2 in product(insts, insts):
        L = direct_sum(L1, L2)
        a = obstruct.annihilating_forms(L1) + [to_block(b, 1) for b in obstruct.annihilating_forms(L2)]
        splitting = obstruct.coherent_splittings(L)
        pairs = [] if splitting is None else [splitting]
        for _ in range(40 if "R3" in (L1.name, L2.name) else 3):
            pair = tuple(sum((b.scale(Fraction(rng.randint(-2, 2))) for b in a), KForm(1)) for _ in range(2))
            if obstruct.is_coherent(L, pair):
                pairs.append(pair)
        for pair in pairs:
            coframe = _adapted_coframe(pair)
            want = tuple(_reference_pure_w_vanishes(L.closed_forms(k), coframe) for k in (3, 4))
            undecided = _reference_undecided(L, coframe)
            try:
                rep = obstruct.check_obstruction(L, pair)
            except HalfFlatError:
                assert undecided, (L.name, pair)
                seen["refused"] += 1
                continue
            assert not undecided and (rep.h03, rep.h04) == want, (L.name, pair)
            # the monomial masks span the same Lambda^3 W and Lambda^4 W as wedges of the W coframe
            w3, w4 = ([wedge_all(list(t)) for t in combinations(coframe[2:], k)] for k in (3, 4))
            ranks = (_reference_rank_of_d(L, w3), _reference_rank_of_d(L, w4))
            assert (rep.rank_d_lambda3_w, rep.rank_d_lambda4_w) == ranks, (L.name, pair)
            seen["factor-wise" if _factor_wise(pair) else "mixed"] += 1
    assert seen["factor-wise"] >= 900 and seen["mixed"] >= 30, seen


def test_check_obstruction_refuses_where_ranks_do_not_decide():
    # on h3 + R3 the coherent V = span(e^1 + e^2, e^2 + e^4) has d e^3 = e^1 ^ e^2 with a
    # Lambda^2 V component; d is injective on Lambda^4 W, yet a closed four-form has a
    # nonzero Lambda^4 W component
    L = direct_sum(catalog("h3"), catalog("R3"))
    pair = (covector(1) + covector(2), covector(2) + covector(4))
    assert obstruct.is_coherent(L, pair)
    coframe = _adapted_coframe(pair)
    assert not _reference_pure_w_vanishes(L.closed_forms(4), coframe)
    assert _reference_undecided(L, coframe)
    assert obstruct._rank_of_d(L, [sum(1 << i for i in obstruct._w_indices(pair))], 4) == 1
    with pytest.raises(HalfFlatError):
        obstruct.check_obstruction(L, pair)


def test_non_unimodular_standard_splitting_survives():
    # the specific standard decomposition survives on r2R + r3
    L = direct_sum(catalog("r2R"), catalog("r3"))
    rep = obstruct.check_obstruction(L, _v_std())
    assert rep.verdict == obstruct.VERDICT_OBSTRUCTED


def test_j_invariance_of_v_on_obstructed_algebras(rng):
    """For closed stable rho on an obstructed algebra, alpha ^ (v -| rho) ^ rho = 0
    for alpha in V and v in Ann(V)."""
    for names in (("r2R", "r3"), ("r2R", "r2R"), ("h3", "r3mu")):
        mu = Fraction(1, 2) if names[1] == "r3mu" else None
        L = direct_sum(catalog(names[0]), catalog(names[1], mu))
        z3 = L.closed_forms(3)
        alpha1, alpha2 = _v_std()
        ann = [basis(i) for i in (2, 3, 5, 6)]
        found_stable = 0
        for _ in range(100):
            rho = KForm(3)
            for b in z3:
                rho = rho + b.scale(Fraction(rng.randint(-5, 5)))
            if lambda_of(rho) == 0:
                continue
            found_stable += 1
            for alpha in (alpha1, alpha2):
                for v in ann:
                    val = volume_ratio(wedge(wedge(alpha, contract(v, rho)), rho))
                    assert val == 0
            if found_stable >= 20:
                break
        assert found_stable > 0


def test_is_coherent_matches_antiderivation_reference():
    rng = random.Random(3)
    candidates = [covector(k) for k in range(1, 7)] + [
        covector(1) + covector(4), covector(2) - covector(5), covector(3) + covector(6)
    ]
    hits = 0
    for g1, g2 in (("r2R", "r3"), ("h3", "r2R"), ("R3", "R3"), ("e2", "r3mu"), ("su2", "r31")):
        L = direct_sum(catalog(g1), catalog(g2, Fraction(1, 2)) if g2 == "r3mu" else catalog(g2))
        for a1, a2 in combinations(candidates, 2):
            got = obstruct.is_coherent(L, (a1, a2))
            assert got == _reference_is_coherent(L, (a1, a2))
            hits += got
        for _ in range(20):
            pair = tuple(
                KForm(1, {1 << i: Fraction(rng.randint(-1, 1)) for i in range(6)}) for _ in range(2)
            )
            assert obstruct.is_coherent(L, pair) == _reference_is_coherent(L, pair)
    assert hits > 0


def test_refined_r2R_R3_reads_column_of_k(rng):
    from halfflat.stable import k_matrix

    # column 2 of K is kappa((e_2 -| rho) ^ rho), the vector the check inspects
    for _ in range(30):
        rho = random_form(rng, 3, span=3, density=0.5)
        assert [row[1] for row in k_matrix(rho)] == list(kappa(wedge(contract(basis(2), rho), rho)))
    verdicts = {
        (g1, g2): obstruct._k_entries_vanish(
            direct_sum(catalog(g1), catalog(g2)), [(covector(u + 1), basis(2)) for u in range(6) if u != 1]
        )
        for g1, g2 in (("r2R", "R3"), ("R3", "r2R"), ("su2", "su2"), ("r2R", "r3"), ("h3", "r2R"))
    }
    assert verdicts == {
        ("r2R", "R3"): True, ("R3", "r2R"): False, ("su2", "su2"): False,
        ("r2R", "r3"): False, ("h3", "r2R"): False,
    }


def _polarized_reference(L, entries):
    """alpha ^ (v -| rho1) ^ rho2 + alpha ^ (v -| rho2) ^ rho1 = 0 on Z^3 x Z^3, by wedges."""
    z3 = L.closed_forms(3)
    for alpha, ev in entries:
        for i in range(len(z3)):
            for j in range(i, len(z3)):
                s = wedge(wedge(alpha, contract(ev, z3[i])), z3[j]) + wedge(
                    wedge(alpha, contract(ev, z3[j])), z3[i]
                )
                if not s.is_zero():
                    return False
    return True


def test_k_entries_vanish_matches_polarization_loop():
    h3_entries = ((covector(4), basis(3)), (covector(4), basis(5)))
    r2R_entries = tuple((covector(u + 1), basis(2)) for u in range(6) if u != 1)
    verdicts = {}
    for g1, g2 in (("h3", "r2R"), ("r2R", "h3"), ("su2", "su2"), ("h3", "R3"), ("r2R", "R3"),
                   ("h3", "h3"), ("r2R", "r2R"), ("R3", "R3")):
        L = direct_sum(catalog(g1), catalog(g2))
        for entries in (h3_entries, r2R_entries):
            got = obstruct._k_entries_vanish(L, entries)
            assert got == _polarized_reference(L, entries), (g1, g2, entries)
            verdicts[(g1, g2, entries is h3_entries)] = got
    assert verdicts[("h3", "r2R", True)] and verdicts[("r2R", "R3", False)]
    assert not verdicts[("su2", "su2", True)] and not verdicts[("r2R", "h3", True)]
    # factors in random rational bases, with the entries the refined checks read
    rng = random.Random(13)
    hits = 0
    for g1, g2 in (("h3", "r2R"), ("r2R", "R3"), ("r2R", "h3"), ("h3", "R3"), ("R3", "R3")):
        L = _conjugated_sum(rng, g1, g2)
        z1 = L.closed_forms(1)
        derived = obstruct._derived_algebra(L)
        for entries in ([(a, x) for a in z1 for x in derived], [(z1[0], x) for x in derived], r2R_entries):
            got = obstruct._k_entries_vanish(L, entries)
            assert got == _polarized_reference(L, entries), (g1, g2, entries)
            hits += got
    assert hits > 0
