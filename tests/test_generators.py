import itertools
import math
import random
import re
import types

import numpy as np
import pytest

from crt_equidist import generators
from crt_equidist.crt_sets import hyperplane_max_local, point_count, residue_set, supported_moduli
from crt_equidist.generators import (
    BivariatePoly,
    IntPolynomial,
    PseudoPoly,
    bezout_system,
    full_system,
    graph_system,
    image_system,
    initial_segment_system,
    poly_roots_mod_prime_power,
    pow_mod_array,
    prime_root_arrays,
    pseudo_poly_roots,
    pseudo_system,
    restrict_primes,
    roots_mod_primes,
    roots_system,
    segment_length,
    veronese_system,
)
from crt_equidist.modarith import mod_inverse, prime_array
from oracles import (
    derangement,
    is_prime_slow,
    one_fixed_point_count,
    pseudo_roots_exact,
    pseudo_value,
)

X2P1 = IntPolynomial((1, 0, 1))


def brute_poly_roots(f, m):
    xs = np.arange(m, dtype=np.int64)
    vals = np.zeros(m, dtype=np.int64)
    for c in reversed(f.coeffs):
        vals = (vals * xs + c) % m
    return set(np.flatnonzero(vals == 0).tolist())


def test_poly_examples():
    assert set(poly_roots_mod_prime_power(X2P1, 5, 1)) == {2, 3}
    assert poly_roots_mod_prime_power(X2P1, 3, 1) == ()
    # singular lifting: X^2 - 1 mod 8 has all odd residues as roots
    assert set(poly_roots_mod_prime_power(IntPolynomial((-1, 0, 1)), 2, 3)) == {1, 3, 5, 7}


def test_poly_errors():
    with pytest.raises(ValueError, match="zero mod"):
        poly_roots_mod_prime_power(IntPolynomial((5, 10)), 5, 1)
    with pytest.raises(ValueError, match="64-bit"):
        poly_roots_mod_prime_power(X2P1, 2, 70)
    with pytest.raises(ValueError):
        poly_roots_mod_prime_power(X2P1, 5, 0)


def test_poly_64_bit_limit_is_exact():
    # p^v < 2^63 is served, p^v >= 2^63 refused; the CLI's default support
    # limit, crt_sets.DEFAULT_SUPPORT = 2^62, refuses these primes first
    assert poly_roots_mod_prime_power(IntPolynomial((-1, 1)), 2**63 - 25, 1) == (1,)
    assert poly_roots_mod_prime_power(IntPolynomial((-1, 1)), 3, 39) == (1,)
    for p, v in ((2, 63), (3, 40)):
        with pytest.raises(ValueError, match="64-bit"):
            poly_roots_mod_prime_power(IntPolynomial((-1, 1)), p, v)


def test_poly_random_vs_brute():
    rng = random.Random(20260823)
    powers = [(2, 1), (2, 2), (2, 4), (2, 6), (3, 1), (3, 3), (5, 2), (7, 1), (7, 3),
              (11, 2), (13, 1), (31, 1), (97, 2), (101, 1), (499, 1), (1009, 1), (9973, 1)]
    for _ in range(100):
        deg = rng.randrange(1, 6)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice([1, 2, 3, -1])]
        f = IntPolynomial(tuple(coeffs))
        for p, v in rng.sample(powers, 6):
            if not f.nonzero_mod(p):
                continue
            got = set(poly_roots_mod_prime_power(f, p, v))
            assert got == brute_poly_roots(f, p**v), (f.coeffs, p, v)


def test_poly_split_path_matches_scan():
    # a prime past 10^4, where roots were once found by a different branch
    p = 10007
    assert is_prime_slow(p)
    rng = random.Random(4)
    for _ in range(10):
        f = IntPolynomial(tuple(rng.randrange(-50, 51) for _ in range(4)) + (1,))
        assert set(poly_roots_mod_prime_power(f, p, 1)) == brute_poly_roots(f, p)


def test_singular_lift_one_evaluation():
    # 0 is a singular root of X^2 - p mod p, and f(0) = -p is not 0 mod p^2,
    # so no lift of it is a root mod p^2; one evaluation shows that, where a
    # scan would try all p lifts
    for p in (1_000_003, 2**31 - 1):
        assert poly_roots_mod_prime_power(IntPolynomial((-p, 0, 1)), p, 2) == ()
    # singular roots whose lifts are all roots, some roots, or none, against
    # a full scan at p^v <= 10^6
    rng = random.Random(9)
    for p, v in ((2, 19), (3, 12), (5, 8), (7, 7), (11, 5), (13, 5), (31, 4), (97, 3), (101, 2), (997, 2)):
        polys = [IntPolynomial((0, 0, 1)), IntPolynomial((-p, 0, 1)), IntPolynomial((p**3, 0, 0, 1)),
                 IntPolynomial((-(p**2), 0, 1)), _with_roots((1, 1, 1 + p, 4))]
        a, b = rng.randrange(p), rng.randrange(p)
        polys.append(_product((-a, 1), (-a - p, 1), (-b, 1), (p * rng.randrange(1, 9), 1)))
        for f in polys:
            assert set(poly_roots_mod_prime_power(f, p, v)) == brute_poly_roots(f, p**v), (f.coeffs, p, v)


def test_lift_consistency():
    rng = random.Random(8)
    for _ in range(30):
        f = IntPolynomial(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(2, 6))) + (1,))
        for p, v in ((2, 5), (3, 4), (5, 3), (7, 2)):
            if not f.nonzero_mod(p):
                continue
            upper = poly_roots_mod_prime_power(f, p, v)
            lower = set(poly_roots_mod_prime_power(f, p, v - 1))
            for a in upper:
                assert a % p ** (v - 1) in lower


def test_roots_system_quadratic_split():
    s = roots_system(X2P1)
    for p in range(3, 1000):
        if not is_prime_slow(p):
            continue
        rho = point_count(s, p)
        if p % 4 == 1:
            assert rho == 2
        else:
            assert rho == 0
    assert point_count(s, 2) == 1


def test_roots_system_trivia():
    s = roots_system(IntPolynomial((0, 1)))  # f = X
    for p in (2, 3, 97):
        assert s.local_set(p, 1).tolist() == [[0]]
    red = roots_system(IntPolynomial((2, -3, 1)))  # (X-1)(X-2)
    for p in range(3, 100):
        if is_prime_slow(p):
            assert point_count(red, p) == 2


def test_veronese_degree2_equals_roots():
    s2 = veronese_system(X2P1, 2)
    r = roots_system(X2P1)
    for p in (5, 13, 17):
        assert s2.local_set(p, 1).tolist() == r.local_set(p, 1).tolist()
    with pytest.raises(ValueError):
        veronese_system(X2P1, 1)


def test_veronese_cubic_31():
    f = IntPolynomial((-2, 0, 0, 1))  # X^3 - 2
    s = veronese_system(f, 3)
    pts = s.local_set(31, 1)
    assert len(pts) == 3
    for a, b in pts:
        assert (a**3 - 2) % 31 == 0 and b == a * a % 31
    assert hyperplane_max_local(s, 31, 1) == 2


def test_veronese_hyperplane_bound():
    f = IntPolynomial((-2, 0, 0, 1))
    s = veronese_system(f, 3)
    for p in range(5, 102):
        if not is_prime_slow(p):
            continue
        if s.local_size(p, 1) == 0:
            continue
        assert hyperplane_max_local(s, p, 1) <= 2


def test_image_and_graph():
    ident = IntPolynomial((0, 1))
    assert image_system(X2P1, ident).local_set(13, 1).tolist() == roots_system(X2P1).local_set(13, 1).tolist()
    # g = X^2 collapses the two roots of X^2 - 2 onto one class
    f = IntPolynomial((-2, 0, 1))
    sq = IntPolynomial((0, 0, 1))
    im = image_system(f, sq)
    for p in (7, 17, 23, 31):  # 2 is a quadratic residue
        assert roots_system(f).local_size(p, 1) == 2
        assert im.local_set(p, 1).tolist() == [[2 % p]]
    g3 = graph_system(IntPolynomial((-2, 0, 0, 1)), sq)
    pts = g3.local_set(31, 1)
    assert len(pts) == 3
    for a, b in pts:
        assert b == a * a % 31
    assert hyperplane_max_local(g3, 31, 1) <= 2


def test_image_graph_vs_double_loop():
    rng = random.Random(15)
    for _ in range(20):
        f = IntPolynomial(tuple(rng.randrange(-9, 10) for _ in range(3)) + (1,))
        g = IntPolynomial(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(2, 4))))
        p, v = rng.choice([(5, 1), (7, 2), (11, 1), (13, 1), (3, 3)])
        if not f.nonzero_mod(p):
            continue
        pv = p**v
        roots = [a for a in range(pv) if f(a, pv) == 0]
        assert image_system(f, g).local_set(p, v).tolist() == [[b] for b in sorted({g(a, pv) for a in roots})]
        assert graph_system(f, g).local_set(p, v).tolist() == [[a, g(a, pv)] for a in roots]



@pytest.mark.parametrize(
    "make",
    [
        lambda f: graph_system(f, IntPolynomial((1, 0, 1))),
        lambda f: image_system(f, IntPolynomial((0, 0, 1))),
        lambda f: veronese_system(f, 4),
    ],
    ids=["graph", "image", "veronese"],
)
def test_root_map_prefill_matches_rule(make):
    # 5X^4 + 3X^2 - 2 is even, so X^2 collapses the roots +-a, and it drops
    # to degree 2 mod 5
    f = IntPolynomial((-2, 0, 3, 0, 5))
    bulk = make(f)
    primes = prime_array(2000)
    bulk.prefill(primes)
    assert set(bulk._cache) == {(p, 1) for p in primes.tolist()}
    # a fresh system, never prefilled, finds every set one prime at a time
    single = make(f)
    for p in primes.tolist():
        assert bulk.local_set(p).tolist() == single.local_set(p).tolist(), p
    assert bulk.local_set(3, 2).tolist() == single.local_set(3, 2).tolist()


def _eval_grid_coeff_vectors(poly, m):
    """The evaluator that `BivariatePoly.eval_grid` used before it called
    `IntPolynomial`: Horner in x on each y-degree's coefficients, then in y."""
    xs = np.arange(m, dtype=np.int64)
    by_dy = {}
    for dx, dy, c in poly.terms:
        by_dy.setdefault(dy, {})[dx] = c % m
    cols = []
    for dy in range(max(by_dy, default=0) + 1):
        cx = by_dy.get(dy, {})
        acc = np.zeros(m, dtype=np.int64)
        for d in range(max(cx, default=0), -1, -1):
            acc = (acc * xs + cx.get(d, 0)) % m
        cols.append(acc)
    grid = np.zeros((m, m), dtype=np.int64)
    for vec in reversed(cols):
        grid = (grid * xs[None, :] + vec[:, None]) % m
    return grid


def test_eval_grid_equals_coefficient_vector_horner():
    rng = random.Random(99)
    for _ in range(400):
        terms = tuple((rng.randrange(6), rng.randrange(6), rng.randint(-10**20, 10**20))
                      for _ in range(rng.randrange(0, 8)))
        poly = BivariatePoly(terms)
        m = rng.randrange(1, 60)
        got, want = poly.eval_grid(m), _eval_grid_coeff_vectors(poly, m)
        assert got.dtype == want.dtype and np.array_equal(got, want), (terms, m)
        x, y = rng.randrange(m), rng.randrange(m)
        assert got[x, y] == poly(x, y, m) % m


def test_bezout_worked_pair():
    f1 = BivariatePoly(((3, 0, 1), (0, 3, 1), (0, 0, -1)))  # X^3 + Y^3 - 1
    f2 = BivariatePoly(((0, 2, 1), (3, 0, -1), (0, 0, 2)))  # Y^2 - X^3 + 2
    s = bezout_system(f1, f2)
    got = s.local_set(7, 1).tolist()
    want = [[x, y] for x in range(7) for y in range(7)
            if (x**3 + y**3 - 1) % 7 == 0 and (y * y - x**3 + 2) % 7 == 0]
    assert got == want


def test_bezout_trivia_and_budget():
    s = bezout_system(BivariatePoly(((1, 0, 1),)), BivariatePoly(((0, 1, 1),)))
    for p, v in ((2, 1), (5, 1), (3, 2)):
        assert s.local_set(p, v).tolist() == [[0, 0]]
    tight = bezout_system(BivariatePoly(((1, 0, 1),)), budget=100)
    with pytest.raises(ValueError, match="budget"):
        tight.local_set(11, 1)


def test_bezout_single_form():
    # one-polynomial variant: the full zero locus of X - Y
    s = bezout_system(BivariatePoly(((1, 0, 1), (0, 1, -1))))
    assert s.local_set(5, 1).tolist() == [[t, t] for t in range(5)]


def test_pseudo_values_and_seeds():
    assert pseudo_value("f1", 1) == 2 and PseudoPoly("f1").value(1) == 2
    assert pseudo_value("f2", 0) == 1 and PseudoPoly("f2").value(0) == 1
    for n in range(0, 40):
        for which in ("f1", "f2", "f3"):
            assert PseudoPoly(which).value(n) == pseudo_value(which, n)
    with pytest.raises(ValueError):
        PseudoPoly("f4")


def test_pseudo_roots_examples():
    assert pseudo_poly_roots("f1", 5) == (2, 4)
    assert pseudo_poly_roots("f2", 2) == (1,)
    with pytest.raises(ValueError):
        pseudo_poly_roots("f1", 1)


def test_pseudo_roots_vs_exact_values():
    for m in range(2, 120):
        for which in ("f1", "f2", "f3"):
            assert set(pseudo_poly_roots(which, m)) == pseudo_roots_exact(which, m), (which, m)


def test_pseudo_divisibility_property():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randrange(0, 60), rng.randrange(0, 60)
        if m == n:
            continue
        for which in ("f1", "f2", "f3"):
            assert (pseudo_value(which, m) - pseudo_value(which, n)) % (m - n) == 0
    # roots mod m2 reduce to roots mod any divisor m1
    for m2 in (12, 36, 90, 120):
        for which in ("f1", "f2", "f3"):
            big = pseudo_poly_roots(which, m2)
            for m1 in range(2, m2):
                if m2 % m1:
                    continue
                small = set(pseudo_poly_roots(which, m1))
                for r in big:
                    assert r % m1 in small


def test_f3_real_root_structure():
    # the guaranteed roots of f3 at primes are 0 and 2: f2(1) = 0 so f3(2) = 0
    assert pseudo_value("f3", 0) == 0 and pseudo_value("f3", 2) == 0
    for p in (3, 5, 7, 11, 13, 101):
        roots = set(pseudo_poly_roots("f3", p))
        assert {0, 2} <= roots
    # and p - 1 is generally NOT a root (mod 5: f3(4) = 8 = 3 mod 5)
    assert 4 not in pseudo_poly_roots("f3", 5)
    assert pseudo_value("f3", 4) % 5 == 3


def test_f3_counts_single_fixed_point_permutations():
    for n in range(1, 9):
        assert abs(pseudo_value("f3", n)) == one_fixed_point_count(n)
    for n in range(9, 13):
        assert abs(pseudo_value("f3", n)) == n * derangement(n - 1)


def test_pseudo_system_wraps_roots():
    s = pseudo_system("f1")
    assert s.local_set(5, 1).tolist() == [[2], [4]]
    assert s.local_set(5, 2).tolist() == [[a] for a in sorted(pseudo_roots_exact("f1", 25))]


def test_initial_segment_system():
    s = initial_segment_system()
    assert segment_length(7) == 0 and segment_length(11) == 4
    for p in (2, 3, 5, 7):
        assert s.local_set(p, 1).tolist() == []
        assert s.local_size(p, 1) == 0
    assert s.local_set(11, 1).tolist() == [[1], [2], [3], [4]]
    assert s.local_set(13, 1).tolist() == [[k] for k in range(1, 6)]
    for p, v in ((2, 2), (11, 2), (13, 3)):
        assert s.local_set(p, v).tolist() == []
    # size_rule answers without materializing
    assert s.local_size(9973, 1) == segment_length(9973) == int(9973 / math.log(9973))


def test_restrict_primes():
    s = roots_system(X2P1)
    same = restrict_primes(s, lambda p: True)
    assert same.local_set(13, 1).tolist() == s.local_set(13, 1).tolist()
    only1mod4 = restrict_primes(s, lambda p: p % 4 == 1)
    got = supported_moduli(only1mod4, 200).members
    want = [q for q in supported_moduli(s, 200).members if q % 2]
    assert list(got) == want  # dropping p = 2 is the only change
    none = restrict_primes(s, lambda p: False)
    assert supported_moduli(none, 50).members == (1,)


def test_full_system_sets():
    s1 = full_system(1)
    assert s1.local_set(5, 1).tolist() == [[a] for a in range(5)]
    assert s1.local_size(7, 2) == 49
    s2 = full_system(2)
    assert s2.local_size(3, 1) == 9
    assert s2.local_set(3, 1).tolist() == [[a, b] for a in range(3) for b in range(3)]


def _random_poly(rng, deg, lead):
    """Random f of the given degree and leading coefficient that vanishes
    modulo no prime."""
    while True:
        f = IntPolynomial(tuple(rng.randrange(-30, 31) for _ in range(deg)) + (lead,))
        if math.gcd(*f.coeffs) == 1:
            return f


def _hard_polys(rng):
    """Random f of degree 1-6 with the awkward cases mixed in: leading
    coefficients that vanish mod small primes, repeated roots, and f
    constant mod 2, 3 and 5."""
    polys = [_random_poly(rng, rng.randrange(1, 7), rng.choice([1, -1, 2, 3, 7])) for _ in range(6)]
    polys += [_random_poly(rng, d, 2 * 3 * 5 * 7 * 101) for d in (2, 4, 6)]
    # (X - 1)^2 (X + 4)^3 and (X^2 + 1)^2 (X - 7)
    polys += [IntPolynomial((-64, 0, 0, 8, 0, 1)), IntPolynomial((-7, 1, -14, 2, -7, 1))]
    polys += [IntPolynomial((7, 30, -60, 90)), IntPolynomial((-11, 0, 0, 0, 0, 30))]
    return polys


def _product(*linears):
    """The product of the linear factors c1 X + c0 given as (c0, c1)."""
    coeffs = [1]
    for c0, c1 in linears:
        coeffs = [c0 * a + c1 * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return IntPolynomial(tuple(coeffs))


def _with_roots(roots):
    return _product(*((-a, 1) for a in roots))


def test_product_helper():
    assert _with_roots((1, 1, -4)) == IntPolynomial((4, -7, 2, 1))
    assert _product((1, 11), (-2, 1)) == IntPolynomial((-2, -21, 11))


# The scalar Cantor-Zassenhaus split that found roots one prime at a time
# before `roots_mod_primes` served every prime, kept as the reference.

def _pnorm(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, p):
    """Polynomial division mod p; b nonzero."""
    a = a[:]
    inv_lead = mod_inverse(b[-1], p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        quot[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _pgcd(a, b, p):
    a, b = _pnorm(a, p), _pnorm(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = mod_inverse(a[-1], p)
        a = [(c * inv) % p for c in a]
    return a


def _pmulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pdivmod(out, f, p)[1]


def _ppowmod(base, e, f, p):
    result = [1]
    base = _pdivmod(base, f, p)[1]
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _roots_mod_p_split(f, p):
    """Roots mod an odd prime via gcd with x^p - x, then randomized
    splitting. The RNG is seeded from (p, coeffs) so results are
    reproducible."""
    fp = _pnorm(list(f.coeffs), p)
    if len(fp) == 1:
        return []
    xp = _ppowmod([0, 1], p, fp, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(fp, xp_minus_x, p)
    roots = []
    seed = p
    for c in f.coeffs:
        seed = seed * 1000003 + c % p
    rng = random.Random(seed)
    stack = [g] if len(g) >= 2 else []
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append((-h[0] * mod_inverse(h[1], p)) % p)
            continue
        while True:
            c = rng.randrange(p)
            probe = _ppowmod([c, 1], (p - 1) // 2, h, p)
            probe = probe[:] if probe else [0]
            probe[0] = (probe[0] - 1) % p
            d = _pgcd(h, probe, p)
            if 1 < len(d) < len(h):
                stack.append(d)
                stack.append(_pdivmod(h, d, p)[0])
                break
    return sorted(roots)


def _split_roots(f, p):
    """All a in [0, p) with f(a) = 0 mod p, for one prime: by evaluation at
    p = 2, by gcd splitting otherwise. Error if f vanishes mod p."""
    if not f.nonzero_mod(p):
        raise ValueError(f"polynomial {f} is identically zero mod {p}")
    if p == 2:
        return [a for a in (0, 1) if f(a, 2) == 0]
    return _roots_mod_p_split(f, p)


def test_roots_mod_primes_vs_full_scan():
    rng = random.Random(70)
    primes = prime_array(10**4)
    polys = _hard_polys(rng) + [_with_roots((1, 1, -4, -4, -4)), _product((-3, 1), (-3, 1), (-5, 1), (1, 11))]
    for f in polys:
        got = roots_mod_primes(f, primes)
        assert len(got) == len(primes)
        for p, roots in zip(primes.tolist(), got):
            assert roots == tuple(sorted(brute_poly_roots(f, p))), (f.coeffs, p)


def test_roots_mod_primes_vs_single_prime_path():
    rng = random.Random(71)
    pool = prime_array(10**6)
    for f in _hard_polys(rng):
        primes = np.array(sorted(rng.sample(pool.tolist(), 150)), dtype=np.int64)
        got = roots_mod_primes(f, primes)
        for p, roots in zip(primes.tolist(), got):
            assert list(roots) == _split_roots(f, p), (f.coeffs, p)
    # any order and repeats of the primes; the rows follow the input
    f = _with_roots((2, 9, 9, 40))
    primes = np.array([101, 13, 2, 101, 3, 7919], dtype=np.int64)
    assert roots_mod_primes(f, primes) == [tuple(_split_roots(f, p)) for p in primes.tolist()]
    assert roots_mod_primes(f, []) == []


def test_small_primes_exhaustive():
    """Every f of degree <= 4 with coefficients in range(p), p = 2, 3, 5."""
    for p in (2, 3, 5):
        for coeffs in itertools.product(range(p), repeat=5):
            f = IntPolynomial(coeffs)
            if f.degree < 0:
                continue
            want = sorted(brute_poly_roots(f, p))
            assert _split_roots(f, p) == want, (coeffs, p)
            assert roots_mod_primes(f, [p]) == [tuple(want)], (coeffs, p)
    # p = 2 inside a larger batch, where X^2 + X has both residues as roots
    assert roots_mod_primes(IntPolynomial((0, 1, 1)), [2, 3, 5]) == [(0, 1), (0, 2), (0, 4)]


def test_roots_mod_primes_vanishing_polynomial():
    f = IntPolynomial((6, 12, 30))  # zero mod 2 and mod 3
    with pytest.raises(ValueError) as single:
        _split_roots(f, 2)
    with pytest.raises(ValueError, match=re.escape(str(single.value))):
        roots_mod_primes(f, [7, 5, 3, 2, 11])
    with pytest.raises(ValueError, match="zero mod 3"):
        roots_mod_primes(f, [5, 3, 7])
    with pytest.raises(ValueError, match="zero mod 2"):
        roots_mod_primes(IntPolynomial((0,)), [3, 2])
    # coefficients past int64
    big = IntPolynomial((10**30, 1))
    assert roots_mod_primes(big, [7, 10007]) == [tuple(_split_roots(big, p)) for p in (7, 10007)]
    with pytest.raises(ValueError, match="zero mod 5"):
        roots_mod_primes(IntPolynomial((5**40, 3 * 5**30)), [7, 5, 2])


def _next_prime(n):
    while not is_prime_slow(n):
        n += 1
    return n


def test_prime_root_arrays_are_int64_on_every_kind_of_prime():
    # counts and roots stay int64 arrays where wide primes run on Python
    # ints, and for no primes at all
    f = IntPolynomial((-2, 0, 3, 0, 5))
    primes = [2**61 - 1, *prime_array(3000).tolist(), 2147483659]
    sizes, roots = prime_root_arrays(f, primes)
    assert sizes.dtype == roots.dtype == np.int64 and sizes.shape == (len(primes),)
    tuples = roots_mod_primes(f, primes)
    assert sizes.tolist() == list(map(len, tuples)) and roots.tolist() == [a for t in tuples for a in t]
    assert all(a.dtype == np.int64 and a.shape == (0,) for a in prime_root_arrays(f, []))


def test_roots_mod_primes_int64_limit():
    # int64 rows hold d (p - 1)^2 < 2^63: for d = 2 up to p <= 2^31, and
    # 2^31 - 1 is prime; past the bound the block runs on Python-int rows
    mersenne = 2**31 - 1
    f = IntPolynomial((-2, 0, 1))
    assert roots_mod_primes(f, [mersenne]) == [tuple(_split_roots(f, mersenne))]
    past = _next_prime(2**31 + 1)
    assert roots_mod_primes(f, [13, past]) == [tuple(_split_roots(f, p)) for p in (13, past)]
    # for d = 4 the bound is p - 1 < 2^30.5, so p <= isqrt(2^61 - 1) + 1
    top = math.isqrt(2**61 - 1) + 1
    p = top
    while not is_prime_slow(p):
        p -= 1
    quartic = _with_roots((1, 5, 2**20, p - 3))
    assert roots_mod_primes(quartic, [p]) == [tuple(sorted({1, 5, 2**20, p - 3}))]
    past = _next_prime(top + 1)
    assert roots_mod_primes(quartic, [p, past]) == [tuple(_split_roots(quartic, r)) for r in (p, past)]
    # a prime past int64 is refused by name, not by numpy's OverflowError
    with pytest.raises(ValueError, match=r"prime p = 9223372036854775833 is at least 2\^63"):
        roots_mod_primes(IntPolynomial((1, 0, 1)), [13, 2**63 + 25])


def _times(f, g):
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial(tuple(out))


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", [2**31 - 1, 2147483659, 2**61 - 1])
def test_roots_mod_primes_python_int_rows(p):
    # at d = 2 the prime 2^31 - 1 runs on int64 rows, the next prime past
    # 2^31 and 2^61 - 1 on Python-int rows; at d = 4 all three do. Times
    # X^2 - n for a non-residue n, the chosen roots are all the roots.
    n = _non_residue(p)
    for chosen in ((5, 2**30 + 7), (1, p - 1, 3**19 % p, 2**29)):
        f = _with_roots(chosen)
        assert roots_mod_primes(f, [p]) == [tuple(sorted(chosen))]
        assert roots_mod_primes(_times(f, IntPolynomial((-n, 0, 1))), [p]) == [tuple(sorted(chosen))]


def test_roots_mod_primes_mixed_row_kinds(monkeypatch):
    # one unsorted call: the first block holds the large primes and runs on
    # Python ints, the second holds only small ones and runs on int64
    kinds = []
    block_roots = generators._block_roots

    def spy(coeffs, p, rng):
        kinds.append(coeffs.dtype)
        return block_roots(coeffs, p, rng)

    monkeypatch.setattr(generators, "_block_roots", spy)
    primes = [2**61 - 1, 2147483659, 5000000029, 2**31 - 1] + prime_array(10**4)[1100::-1].tolist()
    chosen = (2, 9, 2**40)
    got = roots_mod_primes(_with_roots(chosen), primes)
    assert kinds == [object, np.int64]
    assert got == [tuple(sorted({a % p for a in chosen})) for p in primes]


def test_roots_mod_primes_blocks_never_mix_kinds(monkeypatch):
    # a wide prime between small ones gets a block of its own, and the
    # small primes on either side of it stay on int64
    blocks = []
    block_roots = generators._block_roots

    def spy(coeffs, p, rng):
        blocks.append((coeffs.dtype, p.tolist()))
        return block_roots(coeffs, p, rng)

    monkeypatch.setattr(generators, "_block_roots", spy)
    primes = [3, 5, 7, 11, 13, 2**61 - 1, 17, 19, 23, 29, 31]
    chosen = (2, 9, 2**40)
    got = roots_mod_primes(_with_roots(chosen), primes)
    assert [kind for kind, _ in blocks] == [np.int64, object, np.int64]
    assert blocks[1][1] == [2**61 - 1]
    assert got == [tuple(sorted({a % p for a in chosen})) for p in primes]


def test_roots_mod_primes_invariant_under_blocks_and_tries(monkeypatch):
    # blocks of 7 cut the runs of each kind many times over, and a single
    # splitting constant per round sends many factors back whole; the roots
    # may not change. The primes are unsorted, repeat, include 2, and mix
    # wide primes into small ones; the leading coefficients of
    # _hard_polys vanish mod some of the small primes.
    monkeypatch.setattr(generators, "_ROOT_BLOCK", 7)
    monkeypatch.setattr(generators, "_SPLIT_TRIES", 1)
    rng = random.Random(76)
    wide = [2**61 - 1, 2147483659]
    small = [2, 3, 5, 7, 11, 13, 101, 7919, 104729] + rng.sample(prime_array(10**4).tolist(), 12)
    primes = small + small[:6] + wide * 2
    rng.shuffle(primes)
    for f in _hard_polys(rng) + [_with_roots((1, 1, 5, 2**20, 3**12))]:
        got = roots_mod_primes(f, primes)
        assert got == [tuple(_split_roots(f, p)) for p in primes], f.coeffs
        for p, roots in zip(primes, got):
            if p not in wide:
                assert roots == tuple(sorted(brute_poly_roots(f, p))), (f.coeffs, p)


def _edge_prime(d):
    """The largest prime p with d (p - 1)^2 < 2^63: the widest prime that
    still runs on int64 rows for a polynomial of degree d."""
    p = math.isqrt((2**63 - 1) // d) + 1
    while not is_prime_slow(p):
        p -= 1
    return p


def _ring_results(a, b, c, e, g, p):
    """`_mulmod_rows`, `_times_linear` and `_pow_linear_rows` on one input."""
    return (
        generators._mulmod_rows(a, b, g, p),
        generators._times_linear(a, c, g, p),
        generators._pow_linear_rows(c, e, g, p),
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ring_arithmetic_at_the_edge_of_the_int64_rule(d, monkeypatch):
    # the products are reduced once per output row, so their entries reach
    # k (p - 1)^2 and -(k - 1)(p - 1)^2 unreduced; at the widest int64 prime
    # for degree d, int64 rows give what Python-int rows give, in [0, p)
    p = _edge_prime(d)
    assert d * (p - 1) ** 2 < 2**63
    rng = random.Random(2400 + d)
    cols = 5
    for k in range(2, d + 1):
        def draw(*shape):
            return np.array([rng.randrange(p) for _ in range(math.prod(shape))], dtype=np.int64).reshape(shape)

        # worst case: every entry p - 1, and g = X^k + (p - 1)(X^(k-1) + ... + 1)
        top = np.full((k, cols), p - 1, dtype=np.int64)
        g_top = np.vstack((top, np.ones((1, cols), dtype=np.int64)))
        g_rand = np.vstack((draw(k, cols), np.ones((1, cols), dtype=np.int64)))
        half = np.full(cols, (p - 1) // 2, dtype=np.int64)
        cases = [
            (top, top, top[0], half, g_top),
            (top, top, top[0], draw(cols), g_rand),
            (draw(k, cols), draw(k, cols), draw(cols), half, g_rand),
            (draw(k, cols), top, draw(cols), draw(cols), g_top),
        ]
        pp = np.full(cols, p, dtype=np.int64)
        for a, b, c, e, g in cases:
            got = _ring_results(a, b, c, e, g, pp)
            want = _ring_results(*(x.astype(object) for x in (a, b, c)), e, g.astype(object), pp.astype(object))
            for x, y in zip(got, want):
                assert x.dtype == np.int64 and y.dtype == object
                assert x.tolist() == y.tolist()
                assert ((x >= 0) & (x < p)).all()
    # the root finder runs that prime on int64 rows and finds the chosen roots
    kinds = []
    block_roots = generators._block_roots

    def spy(coeffs, primes, rng):
        kinds.append(coeffs.dtype)
        return block_roots(coeffs, primes, rng)

    monkeypatch.setattr(generators, "_block_roots", spy)
    chosen = (p - 1, 1, 2**30 + 3, p - 2, 7)[:d]
    sizes, roots = prime_root_arrays(_with_roots(chosen), [p])
    assert kinds == [np.int64]
    assert sizes.tolist() == [d] and roots.tolist() == sorted(chosen)


def test_block_roots_sort_by_packed_key_and_by_lexsort(monkeypatch):
    # a block whose count * max(p) passes 2^63 orders its roots by
    # np.lexsort, a narrower one by the packed key cols * max(p) + root;
    # both give the roots of each prime alone. For a quartic, the primes
    # near 2^31 run on Python-int rows, so they share a block with 2^61 - 1.
    f = _with_roots((1, 5, 2**20, 2**40 + 1))
    near = [2**31 - 1, 2147483659, 2147483693, 2147483713, 2147483743]
    assert all(map(is_prime_slow, near))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(len(keys)) or lexsort(keys))
    for primes, packed in ((near[::-1] + [2**61 - 1] + near, False), (near, True)):
        lexsorts.clear()
        got = roots_mod_primes(f, primes)
        assert lexsorts == ([] if packed else [2])
        assert got == [tuple(_split_roots(f, p)) for p in primes]
        assert got == [roots_mod_primes(f, [p])[0] for p in primes]


def test_roots_mod_primes_vs_brute_force_below_2000():
    # random polynomials, some with repeated roots; a leading coefficient
    # of 30 or 210 vanishes mod 2, 3, 5 (and 7), where the degree drops;
    # p = 2 is in every batch
    rng = random.Random(1901)
    primes = prime_array(2000).tolist()
    polys = [_product((-3, 1), (-3, 1), (-3, 1), (5, 1)), _with_roots((4, 4, 9, 9, 1000)), _times(X2P1, X2P1)]
    for _ in range(16):
        lead = rng.choice([1, -1, 2, 30, 210])
        polys.append(IntPolynomial(tuple(rng.randint(-60, 60) for _ in range(rng.randint(1, 6))) + (lead,)))
    for f in polys:
        ps = [p for p in primes if f.nonzero_mod(p)]
        assert ps[0] == 2 or not f.nonzero_mod(2)
        for p, roots in zip(ps, roots_mod_primes(f, ps)):
            assert roots == tuple(sorted(brute_poly_roots(f, p))), (f.coeffs, p)


# roots_mod_primes of the previous root finder, which paid for X^p mod f
# before its splitting powers, at primes served on Python-int rows
_WIDE = (2147483659, 4000000007, 2**61 - 1, 9223372036854775783)
_WIDE_ROOTS = {
    (-796983, 838141, -143495, -801859, 1): [
        (1991601585,), (2926123878,), (1486028347143421269,), (3902387701230860452,)
    ],
    (-620405, -702061, 638574, 520153, 313158, 1): [
        (), (1308760883, 2454876084), (36231675236509992, 1548594532537136502), ()
    ],
    (-4774997580025613465, 682204084087728954, -1099512248240, -1099511627778, 1): [
        (7, 2147478030),
        (7, 760175187, 3239824812, 3511625861),
        (7, 1099511627779, 925238355455986134, 1380604653757707809),
        (7, 1099511627779),
    ],
    (75, -30, -272, 135, -21, 1): [
        (5,), (5,), (5, 873536582104054457, 1511271894592332736, 2226877541731000720), (5, 6690549394489945898)
    ],
}


def test_roots_mod_primes_wide_primes_as_before():
    for coeffs, want in _WIDE_ROOTS.items():
        f = IntPolynomial(coeffs)
        got = roots_mod_primes(f, _WIDE)
        assert got == want
        assert all(f(a, p) == 0 for p, roots in zip(_WIDE, got) for a in roots)


def test_roots_mod_primes_same_under_other_seeds(monkeypatch):
    # the splitting constants steer only the search
    primes = prime_array(3000).tolist() + list(_WIDE)
    polys = [IntPolynomial(c) for c in _WIDE_ROOTS] + [_with_roots((1, 1, 5, 2**20, 3**12)), _times(X2P1, X2P1)]
    want = [roots_mod_primes(f, primes) for f in polys]
    for seed in (1, 2**40 + 1):
        monkeypatch.setattr(generators, "random", types.SimpleNamespace(Random=lambda _, s=seed: random.Random(s)))
        assert [roots_mod_primes(f, primes) for f in polys] == want


def test_pow_mod_array_elementwise():
    rng = random.Random(72)
    xs = np.array([rng.randrange(0, 10**9) for _ in range(200)], dtype=np.int64)
    es = np.array([rng.randrange(0, 10**6) for _ in range(200)], dtype=np.int64)
    ms = np.array([rng.randrange(1, 3 * 10**9) for _ in range(200)], dtype=np.int64)
    want = [pow(int(x), int(e), int(m)) if m > 1 else pow(int(x), int(e), 1) for x, e, m in zip(xs, es, ms)]
    assert pow_mod_array(xs, es, ms).tolist() == [w if e else 1 for w, e in zip(want, es.tolist())]
    assert pow_mod_array(xs, 65537, 10**9 + 7).tolist() == [pow(int(x), 65537, 10**9 + 7) for x in xs]


def test_pow_mod_array_python_int_moduli():
    # object moduli past the int64 bound (m - 1)^2 < 2^63, that is past
    # m = 3.04e9, run on Python ints
    rng = random.Random(74)
    ms = [rng.randrange(3_040_000_000, 2**63) for _ in range(60)] + [3_037_000_501, 2**61 - 1, 2**63 - 25]
    xs = [rng.randrange(0, 2**63) for _ in ms]
    es = [rng.randrange(0, 2**62) for _ in ms]
    got = pow_mod_array(np.array(xs, dtype=np.int64), np.array(es, dtype=np.int64), np.array(ms, dtype=object))
    assert got.tolist() == [pow(x, e, m) for x, e, m in zip(xs, es, ms)]


def test_pow_mod_array_int64_limit():
    # (m - 1)^2 < 2^63 holds up to m = isqrt(2^63 - 1) + 1
    top = math.isqrt(2**63 - 1) + 1
    xs = np.array([2, top - 1, 12345678901], dtype=np.int64)
    assert pow_mod_array(xs, top - 2, top).tolist() == [pow(int(x), top - 2, top) for x in xs]
    with pytest.raises(ValueError, match="2\\^63"):
        pow_mod_array(xs, 3, top + 1)
    with pytest.raises(ValueError, match="2\\^63"):
        pow_mod_array(xs, 3, np.array([5, 7, top + 1], dtype=np.int64))
    # an unsigned modulus past 2^63 is refused, not wrapped to a negative int64
    with pytest.raises(ValueError, match="2\\^63"):
        pow_mod_array(xs, 3, np.uint64(2**64 - 1))
