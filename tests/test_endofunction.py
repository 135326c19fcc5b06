import numpy as np
import pytest

from geninv import (FiniteOperator, compose, power, image_chain,
                    drazin_inverse, drazin_loop_formula, left_drazin_inverse,
                    exhaustive_drazin_search, Scalar1DOperator, GridOracle)
from geninv.numerics import fp_matmul

from helpers import run_optimized


def random_endo(rng, n):
    return FiniteOperator(n, n, rng.integers(0, n, size=n))


def test_image_chain_bijection():
    T = FiniteOperator(4, 4, (1, 2, 3, 0))
    chain = image_chain(T)
    assert chain.stabilization_step == 0
    assert list(chain.sets[0]) == [0, 1, 2, 3]
    assert chain.bijective[0]


def test_image_chain_constant():
    T = FiniteOperator(4, 4, (2, 2, 2, 2))
    chain = image_chain(T)
    assert chain.stabilization_step == 1
    assert list(chain.sets[1]) == [2]
    assert not chain.injective[0]


def test_image_chain_shift():
    T = FiniteOperator(4, 4, (0, 0, 1, 2))
    chain = image_chain(T)
    assert [len(s) for s in chain.sets] == [4, 3, 2, 1]
    assert chain.injective == [False, False, False, True]


def test_drazin_idempotent_is_self():
    E = FiniteOperator(4, 4, (0, 0, 2, 2))
    res = drazin_inverse(E)
    assert res.exists and res.inverse == E and res.index == 1


def test_drazin_nilpotent_is_zero_map():
    T = FiniteOperator(5, 5, (0, 0, 1, 2, 3))     # everything collapses to 0
    res = drazin_inverse(T)
    assert res.exists
    assert res.inverse == FiniteOperator(5, 5, (0,) * 5)


def test_drazin_bijection_is_inverse():
    T = FiniteOperator(5, 5, (2, 0, 3, 4, 1))
    res = drazin_inverse(T)
    assert res.exists and res.index == 1
    assert compose(res.inverse, T) == FiniteOperator.identity(5)


def test_drazin_loop_formula_idempotent():
    E = FiniteOperator(4, 4, (1, 1, 3, 3))
    assert drazin_loop_formula(E, 2, 1) == E == drazin_inverse(E).inverse


def test_drazin_loop_formula_identity_case():
    I = FiniteOperator.identity(3)
    assert drazin_loop_formula(I, 1, 0) == I


def test_drazin_loop_formula_three_one():
    # T^3 = T^1: a 2-cycle reached after one step
    T = FiniteOperator(4, 4, (1, 0, 0, 1))
    assert power(T, 3) == power(T, 1)
    got = drazin_loop_formula(T, 3, 1)
    assert got == power(T, 3)
    assert got == drazin_inverse(T).inverse


def test_drazin_loop_formula_rejects_false_premise():
    T = FiniteOperator(3, 3, (1, 2, 0))           # 3-cycle: T^2 != T
    with pytest.raises(ValueError):
        drazin_loop_formula(T, 2, 1)


def test_left_drazin_bijection():
    T = FiniteOperator(4, 4, (3, 2, 0, 1))
    res = left_drazin_inverse(T)
    assert res.parameter == 1
    assert compose(res.inverse, T) == FiniteOperator.identity(4)


def test_left_drazin_shift_example():
    # least injective step is k = 2 (restriction to {0}); the identity
    # G T^3 = T^2 pins G only at 0, the rest is fill
    T = FiniteOperator(3, 3, (0, 0, 1))
    res = left_drazin_inverse(T)
    assert res.k == 2 and res.parameter == 2
    assert res.inverse(0) == 0
    assert compose(res.inverse, power(T, 3)) == power(T, 2)
    assert res.inverse == FiniteOperator.identity(3)     # identity off T^3(V) = {0}


def test_left_drazin_identity_holds_randomly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        T = random_endo(rng, int(rng.integers(1, 9)))
        res = left_drazin_inverse(T)
        m = res.parameter
        assert compose(res.inverse, power(T, m + 1)) == power(T, m)


def test_exhaustive_search_identity():
    found = exhaustive_drazin_search(FiniteOperator.identity(3))
    assert len(found) == 1 and found[0] == FiniteOperator.identity(3)


def test_exhaustive_search_matches_construction():
    rng = np.random.default_rng(1)
    for _ in range(40):
        T = random_endo(rng, 4)
        res = drazin_inverse(T)
        found = exhaustive_drazin_search(T)
        assert res.exists
        assert len(found) == 1                    # Drazin inverse is unique
        assert found[0] == res.inverse


def test_exhaustive_search_cap():
    with pytest.raises(ValueError):
        exhaustive_drazin_search(FiniteOperator.identity(6))


def drazin_invertible_samples(rng, count, max_n=8):
    out = []
    while len(out) < count:
        T = random_endo(rng, int(rng.integers(2, max_n + 1)))
        res = drazin_inverse(T)
        if res.exists:
            out.append((T, res))
    return out


def test_power_rule_and_index_relation():
    rng = np.random.default_rng(2)
    for T, res in drazin_invertible_samples(rng, 30):
        for j in (1, 2, 3, 4):
            pj = drazin_inverse(power(T, j))
            assert pj.inverse == power(res.inverse, j)
            # index of T^j is the unique q with 0 <= j*q - index(T) < j
            q = -(-res.index // j)
            assert pj.index == q


def test_double_drazin_properties():
    rng = np.random.default_rng(3)
    for T, res in drazin_invertible_samples(rng, 30):
        G = res.inverse
        dd = drazin_inverse(G)
        assert dd.index == 1
        assert dd.inverse == compose(power(T, 2), G)          # x^2 x Drazin
        if res.index == 1:
            assert dd.inverse == T
        else:
            assert dd.inverse != T
        # double-inverting a power returns it once k reaches the index
        for k in (res.index, res.index + 1):
            Tk = power(T, k)
            assert drazin_inverse(drazin_inverse(Tk).inverse).inverse == Tk


def test_drazin_commutes_with_commuting_elements():
    rng = np.random.default_rng(4)
    for _ in range(10):
        T = random_endo(rng, 4)
        res = drazin_inverse(T)
        G = res.inverse
        # scan all 256 candidates y on 4 ids for the implication
        for code in range(256):
            y = FiniteOperator(4, 4, (code % 4, code // 4 % 4,
                                      code // 16 % 4, code // 64))
            if compose(y, T) == compose(T, y):
                assert compose(y, G) == compose(G, y)


def test_nilpotent_one_inverse_never_polynomial():
    # 3x3 left shift L (L^3 = 0): no polynomial q(L) of degree <= 8 can
    # satisfy the first inverse axiom L q(L) L = L, over F_2 and F_3
    for p in (2, 3):
        L = np.zeros((3, 3), dtype=np.int64)
        L[1, 0] = L[2, 1] = 1
        powers = []
        M = np.eye(3, dtype=np.int64)
        for _ in range(9):
            powers.append(M)
            M = fp_matmul(M, L, p)
        powers = np.array(powers)                 # (9, 3, 3)
        coeffs = np.stack(np.meshgrid(*[np.arange(p)] * 9,
                                      indexing="ij")).reshape(9, -1).T
        q_of_l = np.tensordot(coeffs, powers, axes=(1, 0)) % p
        lhs = np.einsum("ij,njk,kl->nil", L, q_of_l, L) % p
        assert not np.any(np.all(lhs == L, axis=(1, 2)))


def test_halving_operator_drazin_vs_pseudo_inverse():
    # the discretized halving map collapses to the fixed point 0, so its
    # Drazin inverse is the zero map, while the best-approximate
    # pseudo-inverse of v/2 on [0, 1] is min(2v, 1) -- the two notions
    # genuinely diverge
    n = 2 ** 10 + 1
    T = FiniteOperator(n, n, np.arange(n) // 2)
    chain = image_chain(T)
    sizes = [len(s) for s in chain.sets]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))      # strictly shrinking
    assert sizes[-1] == 1
    res = drazin_inverse(T)
    assert res.exists and res.inverse == FiniteOperator(n, n, (0,) * n)

    halving = Scalar1DOperator("linear", c=0.5).as_vector_operator()
    oracle = GridOracle(halving, [(0.0, 1.0)], 1e-3)
    for w in np.linspace(0.05, 0.95, 10):
        got = oracle.query(np.array([w])).v[0]
        assert abs(got - min(2 * w, 1.0)) <= 2e-3


def test_loop_formula_agrees_with_chain_construction():
    # wherever an exact loop T^n = T^k exists, the closed-form power must
    # equal the image-chain construction
    rng = np.random.default_rng(5)
    found = 0
    while found < 40:
        n = int(rng.integers(2, 7))
        T = random_endo(rng, n)
        powers = [power(T, j) for j in range(2 * n + 2)]
        pair = None
        for b in range(1, 2 * n + 2):
            for a in range(b):
                if powers[b] == powers[a]:
                    pair = (b, a)
                    break
            if pair:
                break
        got = drazin_loop_formula(T, pair[0], pair[1])
        assert got == drazin_inverse(T).inverse
        found += 1


def test_construction_checks_survive_optimize_flag():
    # each of the five construction checks raises AssertionError under
    # python -O too; a patched helper makes exactly one of them fail
    code = (
        "import numpy\n"
        "import geninv.endofunction as e\n"
        "import geninv.set_inverse as s\n"
        "from geninv.core_ops import FiniteOperator\n"
        "class Np:\n"
        "    def __getattr__(self, name):\n"
        "        return getattr(numpy, name)\n"
        "def check(f, T):\n"
        "    try:\n"
        "        f(T)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "T = FiniteOperator(3, 3, [1, 2, 2])\n"
        "for bad in range(3):\n"
        "    calls = []\n"
        "    e.np = Np()\n"
        "    e.np.array_equal = lambda x, y, bad=bad: (calls.append(0) or len(calls) != bad + 1\n"
        "                                              and numpy.array_equal(x, y))\n"
        "    check(e.drazin_inverse, T)\n"
        "e.compose = lambda G, T: T\n"
        "check(e.left_drazin_inverse, FiniteOperator(2, 2, [1, 0]))\n"
        "s.check_mp_axioms = lambda T, G: (True, False)\n"
        "check(s.build_one_two_inverse, T)\n")
    out = run_optimized(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "MP1^k failed; construction bug", "MP2 failed; construction bug",
        "D5 failed; construction bug", "left-Drazin identity failed; construction bug",
        "construction violated MP1-2; spec validation is broken"]
