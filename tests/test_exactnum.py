import math
import random
from fractions import Fraction as F

import pytest

from lowdeg.exactnum import Rad, squarefree_decompose

from exact_oracles import solve_exact


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (6, 10)
    for n in range(1, 400):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        # d squarefree: no prime square divides it
        for p in range(2, int(math.isqrt(d)) + 1):
            assert d % (p * p) != 0


def test_sqrt_and_simplify():
    assert Rad.sqrt(F(1, 2)) * Rad.sqrt(2) == Rad.of(1)
    assert Rad.sqrt(8) == 2 * Rad.sqrt(2)
    assert Rad.sqrt(F(9, 4)).as_fraction() == F(3, 2)
    assert (Rad.sqrt(8) - 2 * Rad.sqrt(2)).is_zero()
    with pytest.raises(ValueError):
        Rad.sqrt(F(-1, 2))


def test_field_axioms_randomized():
    rng = random.Random(0)

    def rand_rad():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.choice([1, 2, 3, 5, 6, 7, 10])
            terms[d] = F(rng.randint(-5, 5), rng.randint(1, 7))
        return Rad(terms)

    for _ in range(200):
        a, b, c = rand_rad(), rand_rad(), rand_rad()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert abs(float(a + b) - (float(a) + float(b))) < 1e-9
        assert abs(float(a * b) - float(a) * float(b)) < 1e-6
        if not a.is_zero():
            assert a * a.inverse() == Rad.of(1)
            assert (b / a) * a == b


def test_zero_detection_is_structural():
    # sqrt(2) + sqrt(3) is far from rational even when floats collude
    x = Rad.sqrt(2) + Rad.sqrt(3) - Rad.sqrt(5)
    assert not x.is_zero()
    assert not x.is_rational()
    with pytest.raises(ValueError):
        x.as_fraction()


def test_pow_and_division():
    x = Rad.of(F(1, 3)) + Rad.sqrt(F(1, 2))
    assert x ** 0 == Rad.of(1)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        Rad().inverse()


def test_solve_exact_against_residual():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(1, 4)
        mat = [[Rad.of(F(rng.randint(-4, 4), rng.randint(1, 3))) + Rad.sqrt(2) * F(rng.randint(0, 2))
                for _ in range(m)] for _ in range(m)]
        for i in range(m):
            mat[i][i] = mat[i][i] + Rad.of(10)  # keep it nonsingular
        rhs = [Rad.of(rng.randint(-3, 3)) for _ in range(m)]
        sol = solve_exact(mat, rhs)
        for i in range(m):
            acc = Rad.of(0)
            for j in range(m):
                acc = acc + mat[i][j] * sol[j]
            assert (acc - rhs[i]).is_zero()


def test_solve_exact_on_fractions():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(1, 5)
        mat = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            mat[i][i] += 10  # keep it nonsingular
        rhs = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(m)]
        sol = solve_exact(mat, rhs)
        assert all(type(x) is F for x in sol)
        for i in range(m):
            assert sum(mat[i][j] * sol[j] for j in range(m)) == rhs[i]
    with pytest.raises(ValueError):
        solve_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(0)])


def test_rational_hash_matches_equal_rational():
    for x in (0, 1, -3, F(1, 2)):
        assert Rad.of(x) == x
        assert hash(Rad.of(x)) == hash(x)
    assert len({Rad.of(1), 1, F(1)}) == 1
    assert hash(Rad.sqrt(2)) == hash(Rad.sqrt(8) / 2)


def test_sign_is_exact():
    assert Rad().sign() == 0 and (Rad.sqrt(8) - 2 * Rad.sqrt(2)).sign() == 0
    assert Rad.of(F(-1, 3)).sign() == -1 and Rad.of(F(2, 7)).sign() == 1
    assert (Rad.sqrt(2) + Rad.sqrt(3) - Rad.sqrt(10)).sign() == -1
    # (3 - 2 sqrt 2)^40 is about 2e-31 but its coefficients are about 2e30:
    # the float value is noise, and the bracket must be refined past 64 bits
    tiny = Rad({1: F(3), 2: F(-2)}) ** 40
    assert abs(float(tiny)) > 1e-20
    assert tiny.sign() == 1 and (-tiny).sign() == -1
    assert (tiny - F(1, 10 ** 31)).sign() == 1 and (tiny - F(1, 10 ** 30)).sign() == -1
    rng = random.Random(5)
    for _ in range(200):
        x = Rad({d: F(rng.randint(-50, 50), rng.randint(1, 9)) for d in (1, 2, 3, 5, 91)})
        want = 0 if x.is_zero() else (1 if float(x) > 0 else -1)
        assert x.sign() == want, x
