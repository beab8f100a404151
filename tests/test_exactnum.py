import itertools
import math
import random
from fractions import Fraction as F

import pytest

from lowdeg.exactnum import Rad, squarefree_decompose

from exact_oracles import rad_add, rad_mul, solve_exact


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


def _same_terms(got: Rad, want: Rad):
    """Equal terms in the same order (float() sums them in that order), each
    a nonzero Fraction."""
    assert list(got.terms.items()) == list(want.terms.items()), (got, want)
    assert all(type(c) is F and c for c in got.terms.values()), got


def test_fast_paths_match_the_double_loop_oracle():
    rng = random.Random(28)
    radicands = [1, 2, 3, 5, 6, 10, 15, 91]

    def rand_rad():
        return Rad({d: F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 9))
                    for d in rng.sample(radicands, rng.randint(0, 4))})

    def neg(x):
        return Rad({d: -c for d, c in x.terms.items()})

    for _ in range(500):
        x, y = rand_rad(), rand_rad()
        c = rng.choice([0, 1, -2, F(3, 7), F(-5, 2)])
        _same_terms(Rad.of(c), Rad({1: c}))
        _same_terms(x * y, rad_mul(x, y))
        _same_terms(x + y, rad_add(x, y))
        _same_terms(x - y, rad_add(x, neg(y)))
        _same_terms(-x, neg(x))
        for scaled in (x * c, c * x):
            _same_terms(scaled, rad_mul(x, Rad.of(c)))
        for shifted in (x + c, c + x):
            _same_terms(shifted, rad_add(x, Rad.of(c)))
        _same_terms(x - c, rad_add(x, Rad.of(-c)))
        _same_terms(c - x, rad_add(Rad.of(c), neg(x)))
        _same_terms(x - x, Rad())
        _same_terms(x + neg(x), Rad())
    # one term times one term, with and without a common factor
    for d1, d2 in itertools.product(radicands, repeat=2):
        x, y = Rad({d1: F(-2, 3)}), Rad({d2: F(5, 4)})
        _same_terms(x * y, rad_mul(x, y))
    _same_terms(Rad.sqrt(6) * Rad.sqrt(10), Rad({15: F(2)}))
    # sums and products that cancel
    root = Rad.of(1) + Rad.sqrt(2)
    _same_terms(root * (Rad.of(1) - Rad.sqrt(2)), Rad.of(-1))
    _same_terms((Rad.sqrt(2) + Rad.sqrt(3)) + (-Rad.sqrt(2) - Rad.sqrt(3)), Rad())
    _same_terms(root - 1, Rad.sqrt(2))
    _same_terms(1 - root, -Rad.sqrt(2))
    _same_terms(root * 0, Rad())


def test_operators_refuse_floats():
    x = Rad.sqrt(2) + 1
    for op in (lambda: x + 0.0, lambda: 0.0 + x, lambda: x - 0.0, lambda: 0.0 - x,
               lambda: x * 0.5, lambda: 0.5 * x, lambda: x * 0.0, lambda: Rad.of(0.5)):
        with pytest.raises(TypeError):
            op()


def test_public_constructor_enforces_the_invariant():
    x = Rad({2: 3, 3: 0, 91: F(1, 10)})
    _same_terms(x, Rad.sqrt(18) + Rad.sqrt(F(1, 100) * 91))
    with pytest.raises(TypeError):
        Rad({1: 0.5})
    for radicand in (4, 12, 0, -3, 2.0, "2"):
        with pytest.raises(ValueError):
            Rad({radicand: F(1)})
    # sqrt(4) would be a second spelling of 2, unequal to it and hashed apart
    assert Rad.sqrt(4) == Rad.of(2) and hash(Rad.sqrt(4)) == hash(2)
