import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from psroth import (
    PhaseParams,
    checks,
    count_in_class,
    default_cutoff,
    enumerate_ps_primes,
    error_term_inputs,
    error_term_sup,
    exp_sum_direct,
    expsums,
    eval_phi,
    hfun,
    inverse_of,
    mobius_array,
    power_log,
    ps_exponent_spec,
    pure_power,
    sawtooth_phi,
    sieve,
    sieve_primes,
    vaughan_coefficients,
    vaughan_decompose,
    zn_fourier,
)


@pytest.fixture(scope="module")
def inv95m():
    return inverse_of(ps_exponent_spec(0.95))


@pytest.fixture(scope="module")
def table_2e3():
    return sieve_primes(2048)


def test_sawtooth_values():
    assert sawtooth_phi(0.25) == pytest.approx(-0.25)
    assert sawtooth_phi(0.0) == pytest.approx(-0.5)
    assert sawtooth_phi(1.75) == pytest.approx(0.25)
    assert sawtooth_phi(-0.25) == pytest.approx(0.25)


def test_phase_params_validation():
    with pytest.raises(ValueError):
        PhaseParams(0.5, 0, 0, 1, 10, 20)       # m = 0
    with pytest.raises(ValueError):
        PhaseParams(0.5, 1, 2, 4, 10, 20)       # gcd(a, q) = 2
    with pytest.raises(ValueError):
        PhaseParams(0.5, 1, 0, 1, 10, 25)       # P1 > 2P
    with pytest.raises(ValueError):
        PhaseParams(1.5, 1, 0, 1, 10, 20)       # xi out of range
    PhaseParams(1.0, 1, 0, 1, 10, 20)           # xi = 1 allowed


def test_exp_sum_phase_collapse(table_2e3):
    # h = x and integer total frequency: every phase factor is 1
    inv = inverse_of(pure_power(1.0))
    pp = PhaseParams(0.0, 1, 0, 1, 100, 200)
    got = exp_sum_direct(inv, pp, table_2e3)
    lam = table_2e3.mangoldt_array()
    psi_diff = float(np.sum(lam[101:201]))
    assert got.imag == pytest.approx(0.0, abs=1e-9)
    assert got.real == pytest.approx(psi_diff, rel=1e-12)


def test_exp_sum_independent_reevaluation(table_2e3):
    # longdouble re-evaluation of the 5 contributing terms in (10, 20]
    inv = inverse_of(pure_power(1.5))
    pp = PhaseParams(0.0, 1, 0, 1, 10, 20)
    got = exp_sum_direct(inv, pp, table_2e3)
    want = 0.0 + 0.0j
    for k, lam in ((11, math.log(11)), (13, math.log(13)), (16, math.log(2)),
                   (17, math.log(17)), (19, math.log(19))):
        ang = 2.0 * np.pi * np.longdouble(k) ** (np.longdouble(2) / 3)
        want += lam * complex(np.cos(ang), np.sin(ang))
    assert abs(got - want) <= 1e-9


def test_parity_class_content(table_2e3):
    # the spec'd q=4, a=2 case conflicts with the gcd invariant; the
    # mathematical content is that Lambda vanishes on 2 mod 4 above k=2
    lam = table_2e3.mangoldt_array()
    ks = np.arange(5, 2001)
    assert np.all(lam[ks[ks % 4 == 2]] == 0.0)


def test_vaughan_residual_small(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    split, = vaughan_decompose(inv95m, [pp], table_2e3)
    assert split.residual <= 1e-12 * max(1.0, abs(split.direct))
    assert split.recombined == pytest.approx(split.direct, abs=1e-7)


def test_vaughan_residual_with_residue_class(inv95m, table_2e3):
    pp = PhaseParams(0.77, -1, 1, 3, 1000, 2000)
    split, = vaughan_decompose(inv95m, [pp], table_2e3)
    assert split.residual <= 1e-12 * max(1.0, abs(split.direct))


def test_vaughan_all_type_I(inv95m, table_2e3):
    # v just below P: v^2 covers the whole range, so S3 has no terms at all
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    split, = vaughan_decompose(inv95m, [pp], table_2e3, v=999.0)
    assert split.S3 == 0.0 + 0.0j
    assert split.residual <= 1e-12 * max(1.0, abs(split.direct))


def test_vaughan_cutoff_above_P(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    with pytest.raises(ValueError):
        vaughan_decompose(inv95m, [pp], table_2e3, v=1500.0)


def test_vaughan_degenerate_cutoff(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    with pytest.raises(ValueError):
        vaughan_decompose(inv95m, [pp], table_2e3, v=1.0)


def test_default_cutoff_formula(inv95m):
    v = default_cutoff(inv95m, 2000)
    assert v == pytest.approx(float(eval_phi(inv95m, 2000.0)) * 2000 ** -0.625)
    assert 1.0 < v < 1000


def test_vaughan_identity_per_n():
    # coefficient-level identity: for n > v the split coefficients re-sum to
    # Lambda(n) exactly; below v the identity genuinely fails for many n,
    # which resolves the stated validity question toward n > v
    L = 10 ** 5
    table = sieve_primes(L)
    lam = table.mangoldt_array()[: L + 1]
    mu = mobius_array(L, table)
    for v in (10, 50, 316):
        pi_arr, xi_arr = vaughan_coefficients(v, L, table)
        c = np.zeros(L + 1)
        for l in range(1, v + 1):
            if mu[l]:
                ks = np.arange(1, L // l + 1, dtype=float)
                c[l::l] += mu[l] * np.log(ks)
        for l in range(1, min(v * v, L) + 1):
            if pi_arr[l]:
                c[l::l] -= pi_arr[l]
        for l in range(v + 1, L // (v + 1) + 1):
            if xi_arr[l]:
                kmax = L // l
                if kmax > v:
                    c[l * (v + 1) :: l] += xi_arr[l] * lam[v + 1 : kmax + 1]
        assert np.max(np.abs(c[v + 1 :] - lam[v + 1 :])) < 1e-6
        failures_below = int(np.count_nonzero(
            np.abs(c[1 : v + 1] - lam[1 : v + 1]) > 1e-9))
        print(f"v={v}: identity exact above v; failures at n<=v: "
              f"{failures_below}/{v}")
        assert failures_below > 0


def _split_per_l(inv, pp, table, v):
    # the split as one loop per l, one phase evaluation per l and residue
    # shift s mod q, its own compensated sums and the recombination of the
    # shifts through e(-sa/q)/q: a route apart from the coefficient rows,
    # exact up to the rounding of those characters
    def csum(z):
        return complex(math.fsum(z.real), math.fsum(z.imag))

    lam = table.mangoldt_array()
    vi = int(math.floor(v))
    mu = mobius_array(vi, table)
    L = int(math.floor(max(v * v, pp.P1 / v)))
    pi_arr, xi_arr = vaughan_coefficients(v, min(L, table.limit), table)
    tot = [0.0 + 0.0j] * 4
    for s in range(pp.q):
        alpha = pp.xi + s / pp.q
        parts = [0.0 + 0.0j] * 4
        for l in range(1, int(math.floor(min(v * v, pp.P1))) + 1):
            ks = np.arange(pp.P // l + 1, pp.P1 // l + 1, dtype=np.int64)
            if ks.size == 0:
                continue
            ph = expsums._phase(inv, alpha, pp.m, ks * l)
            if l <= vi:
                if mu[l]:
                    parts[0] += int(mu[l]) * csum(np.log(ks.astype(float)) * ph)
                if pi_arr[l] != 0.0:
                    parts[1] += pi_arr[l] * csum(ph)
            elif pi_arr[l] != 0.0:
                parts[2] += pi_arr[l] * csum(ph)
        for l in range(vi + 1, int(math.floor(pp.P1 / v)) + 1):
            if xi_arr[l] == 0:
                continue
            ks = np.arange(max(pp.P // l + 1, vi + 1), pp.P1 // l + 1, dtype=np.int64)
            wk = lam[ks]
            ks, wk = ks[wk > 0], wk[wk > 0]
            if ks.size:
                parts[3] += int(xi_arr[l]) * csum(wk * expsums._phase(inv, alpha, pp.m, ks * l))
        coeff = np.exp(-1j * expsums.TWO_PI * s * pp.a / pp.q) / pp.q
        for i in range(4):
            tot[i] += coeff * parts[i]
    return tot


def test_vaughan_split_matches_per_l_reference(inv95m, table_2e3):
    # the coefficient rows against the per-l, per-shift split: every piece
    # agrees to the reference's own character rounding (worst seen 3.3e-11
    # relative), the direct sum is the same call, and the rows re-sum to
    # Lambda(n) on (P, P1], which is the identity the residual rests on
    h1 = inverse_of(power_log(1.2, 2.0, x0=3.0))
    table_8e3 = sieve_primes(8000)
    cases = [(inv95m, 1000, table_2e3, None), (inv95m, 1000, table_2e3, 999.0),
             (h1, 4000, table_8e3, 8.0)]
    for inv, P, table, v in cases:
        cut = default_cutoff(inv, 2 * P) if v is None else v
        pk, pl = sieve.prime_powers(table, 2 * P)
        L = int(math.floor(max(cut * cut, 2 * P / cut)))
        pi_arr, xi_arr = vaughan_coefficients(cut, min(L, table.limit), table)
        c = expsums._split_coefficients(P, 2 * P, cut, pk, pl,
                                        mobius_array(int(cut), table), pi_arr, xi_arr)
        lam = np.zeros(P)
        lam[pk[pk > P] - P - 1] = pl[pk > P]
        assert np.max(np.abs(c[0] - c[1] - c[2] + c[3] - lam)) <= 1e-12
        for q, a in ((1, 0), (2, 1), (3, 2), (4, 3)):
            pp = PhaseParams(0.6180339887, -2, a, q, P, 2 * P)
            want = _split_per_l(inv, pp, table, cut)
            split, = vaughan_decompose(inv, [pp], table, v=v)
            for got, w in zip((split.S1, split.S21, split.S22, split.S3), want):
                assert abs(got - w) <= 1e-9 * max(1.0, abs(w))
            assert split.direct == exp_sum_direct(inv, pp, table)
            assert split.residual <= 1e-12 * max(1.0, abs(split.direct))


def _draws(P, classes, xis=(0.3, 0.6180339887, 0.91)):
    # draws over one range (P, 2P]: every class (q, a) at each xi, with the
    # sign of m alternating and its size cycling through 1..3
    return [PhaseParams(xi, (1 + j % 3) * (-1) ** j, a, q, P, 2 * P)
            for j, (xi, (q, a)) in enumerate(itertools.product(xis, classes))]


def test_vaughan_draws_match_one_draw_calls(inv95m, table_2e3):
    # the shared rows change nothing: a call over several draws returns, field
    # for field, what a one-draw call returns on each draw, at the default
    # cutoff and at v = 999 (S3 = 0)
    draws = _draws(1000, ((1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)))
    for v in (None, 999.0):
        splits = vaughan_decompose(inv95m, draws, table_2e3, v=v)
        assert len(splits) == len(draws)
        for pp, split in zip(draws, splits):
            assert split == vaughan_decompose(inv95m, [pp], table_2e3, v=v)[0], pp
            if v is not None:
                assert split.S3 == 0.0 + 0.0j


def test_vaughan_draws_must_share_one_range(inv95m, table_2e3, monkeypatch):
    # an empty list or draws over two ranges are refused before any row is built
    def refuse(*args):
        raise AssertionError("built the split's coefficient rows")

    monkeypatch.setattr(expsums, "_split_coefficients", refuse)
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    for draws in ([], [pp, PhaseParams(0.3, 2, 0, 1, 1000, 1999)],
                  [pp, PhaseParams(0.3, 2, 0, 1, 999, 1998)]):
        with pytest.raises(ValueError):
            vaughan_decompose(inv95m, draws, table_2e3)


def test_vaughan_tables_built_once_per_call(inv95m, table_2e3, monkeypatch):
    # the coefficient rows, the Pi/Xi table and the Moebius table are built
    # once for a 10-draw call, not once per draw; vaughan_coefficients reads
    # the split's own Moebius table rather than building a second
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(expsums, "_split_coefficients")
    counted(sieve, "vaughan_coefficients")
    counted(sieve, "mobius_array")
    draws = _draws(1000, ((1, 0), (2, 1), (3, 2), (4, 3), (1, 0)), xis=(0.3, 0.7))
    assert len(draws) == 10
    vaughan_decompose(inv95m, draws, table_2e3)
    assert calls == {"_split_coefficients": 1, "vaughan_coefficients": 1,
                     "mobius_array": 1}


def _bits(z):
    return np.array([z.real, z.imag]).tobytes()


def test_vaughan_pieces_sum_nonzero_columns_bitwise(inv95m, table_2e3):
    # summing only a row's nonzero class columns gives bitwise, signed zeros
    # included, the exactly rounded sum over every class column, for q = 1..4
    # at the default cutoff and at v = 20 (S22's and S3's rows are nonzero on
    # only 22-31% of the columns at both)
    inv = inv95m
    P, P1 = 1000, 2000
    pk, pl = sieve.prime_powers(table_2e3, P1)
    classes = [(q, a) for q in range(1, 5) for a in range(q) if math.gcd(a, q) == 1]
    for v in (default_cutoff(inv, P1), 20.0):
        L = min(int(math.floor(max(v * v, P1 / v))), table_2e3.limit)
        pi_arr, xi_arr = vaughan_coefficients(v, L, table_2e3)
        c = expsums._split_coefficients(P, P1, v, pk, pl,
                                        mobius_array(int(v), table_2e3), pi_arr, xi_arr)
        assert all(0 < np.count_nonzero(row) < 0.5 * row.size for row in c[2:])
        draws = _draws(P, classes)
        for pp, split in zip(draws, vaughan_decompose(inv, draws, table_2e3, v=v)):
            first = P + 1 + (pp.a - P - 1) % pp.q
            z = expsums._phase(inv, pp.xi, pp.m, np.arange(first, P1 + 1, pp.q))
            for got, row in zip((split.S1, split.S21, split.S22, split.S3), c):
                row = row[first - P - 1 :: pp.q]
                want = complex(math.fsum((row * z).real.tolist()),
                               math.fsum((row * z).imag.tolist()))
                assert _bits(got) == _bits(want), (v, pp)


def test_vaughan_phi_not_repeated_per_shift(inv95m, table_2e3, monkeypatch):
    # phi once per n: a split inverts phi at the n of its class in (P, P1]
    # and at the class's prime powers there (the direct sum), whatever q is,
    # and a call over several draws takes the default cutoff's phi once
    real = hfun.eval_phi
    points = []

    def counting(inv, y):
        points.append(np.size(y))
        return real(inv, y)

    def per_draw(q, a):
        n_class = len(range(1001 + (a - 1001) % q, 2001, q))
        ks, _ = sieve.prime_powers(table_2e3, 2000, q, a)
        return n_class + np.count_nonzero(ks > 1000)

    monkeypatch.setattr(hfun, "eval_phi", counting)
    for q, a in ((1, 0), (3, 2)):
        points.clear()
        vaughan_decompose(inv95m, [PhaseParams(0.3, 2, a, q, 1000, 2000)], table_2e3)
        assert sum(points) <= per_draw(q, a) + 1, q
    draws = _draws(1000, ((1, 0), (2, 1), (3, 2), (4, 3)))
    points.clear()
    vaughan_decompose(inv95m, draws, table_2e3)
    assert sum(points) <= sum(per_draw(pp.q, pp.a) for pp in draws) + 1


def test_vaughan_split_memory_is_blocked(inv95m):
    # a P = 16000 call holds its four coefficient rows (512 KB), built once
    # for all its draws, and the phases of one class at a time: the traced
    # peak of one draw or of ten stays under 2 MB (about 1.4 MB at q = 1)
    table = sieve_primes(32000)
    table.mangoldt_array()
    one = [PhaseParams(0.3, 2, 0, 1, 16000, 32000)]
    ten = _draws(16000, ((1, 0), (2, 1), (3, 1), (3, 2), (1, 0)), xis=(0.3, 0.7))
    assert len(ten) == 10 and {pp.q for pp in ten} == {1, 2, 3}
    for draws in (one, ten):
        tracemalloc.start()
        try:
            vaughan_decompose(inv95m, draws, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, len(draws)


def test_lambda_readers_skip_dense_array(inv95m, monkeypatch):
    # every reader of Lambda takes it from sieve.prime_powers: none builds the
    # dense array, and the table keeps exactly its flags and primes
    def refuse(self):
        raise AssertionError("read the dense Mangoldt array")

    monkeypatch.setattr(sieve.PrimeTable, "mangoldt_array", refuse)
    table = sieve_primes(2048)
    split, = vaughan_decompose(inv95m, [PhaseParams(0.3, 2, 1, 3, 1000, 2000)], table)
    assert split.residual <= 1e-12 * max(1.0, abs(split.direct))
    assert exp_sum_direct(inv95m, PhaseParams(0.3, 2, 0, 1, 1000, 2000), table) != 0
    pi_arr, _ = vaughan_coefficients(12.0, 1000, table)
    assert pi_arr[2] == pytest.approx(math.log(2))
    name, passed, _ = checks.check_chebyshev_identity()
    assert passed
    assert set(vars(table)) == {"limit", "is_prime", "primes"}


def _sup_built_at(inv, N, q, a, table, grid):
    # the error term with its inputs built at N itself
    return error_term_sup(error_term_inputs(inv, N, q, a, table), N, grid)


def test_error_term_identity_map_control(table_1e6):
    inv = inverse_of(pure_power(1.0))
    rep = _sup_built_at(inv, 10 ** 5, 1, 0, table_1e6, 512)
    assert rep.sup_diff == 0.0
    assert rep.route_gap == 0.0
    assert np.all(rep.per_xi == 0.0)


def test_error_term_empty_class(inv95):
    # no prime or prime power <= 50 is 48 mod 49: every route sums nothing
    rep = _sup_built_at(inv95, 50, 49, 48, sieve_primes(50), 64)
    assert rep.sup_diff == 0.0
    assert rep.route_gap == 0.0
    assert np.all(rep.per_xi == 0.0) and np.all(rep.per_xi_middle == 0.0)
    assert rep.per_xi.shape == rep.per_xi_middle.shape == (64,)


def test_error_term_zero_frequency_consistency(table_1e6, inv95):
    N = 10 ** 5
    ps = enumerate_ps_primes(inv95, N, table_1e6)
    rep = _sup_built_at(inv95, N, 1, 0, table_1e6, 256)
    weighted = count_in_class(ps, N, 1, 0, weight="log_over_phiprime")
    plain = count_in_class(table_1e6, N, 1, 0, weight="log")
    assert rep.per_xi[0] == pytest.approx(abs(weighted - plain), rel=1e-9)


def test_error_term_residue_class(table_1e6, inv95):
    N = 10 ** 5
    ps = enumerate_ps_primes(inv95, N, table_1e6)
    rep = _sup_built_at(inv95, N, 4, 1, table_1e6, 256)
    weighted = count_in_class(ps, N, 4, 1, weight="log_over_phiprime")
    plain = count_in_class(table_1e6, N, 4, 1, weight="log")
    assert rep.per_xi[0] == pytest.approx(abs(weighted - plain), rel=1e-9)


def test_error_term_route_gap_envelope(table_1e6, inv99):
    # the middle-form route differs from the direct difference by the
    # prime-power and constant corrections; envelope recorded from dev runs
    for N in (2 ** 16, 2 ** 18):
        rep = _sup_built_at(inv99, N, 1, 0, table_1e6, 1024)
        assert rep.route_gap <= 0.5 * math.sqrt(N), N


def test_error_term_reads_top_enumeration(table_1e6):
    # the sets nest, witnesses are first hits and every input is elementwise
    # and sorted by k, so the prefixes <= N of the data built once at the top
    # N give every smaller N's report bit for bit
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    ladder = [2 ** k for k in range(12, 17)] + [70001]
    for q, a in ((1, 0), (4, 3)):
        top = error_term_inputs(inv, max(ladder), q, a, table_1e6)
        for N in ladder:
            own = _sup_built_at(inv, N, q, a, table_1e6, 512)
            shared = error_term_sup(top, N, 512)
            assert shared.sup_diff == own.sup_diff
            assert shared.route_gap == own.route_gap
            assert shared.per_xi.tobytes() == own.per_xi.tobytes()
            assert shared.per_xi_middle.tobytes() == own.per_xi_middle.tobytes()
    # N above the inputs' limit
    with pytest.raises(ValueError):
        error_term_sup(top, 2 ** 17)


def test_error_term_inverts_once_per_prime_power(table_1e6, monkeypatch):
    # phi at the prime powers k and at k + 1 are the only inversions: phi'
    # at k and at the members follows from phi(k) by the inverse-function rule
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    N = 2 ** 14
    ps = enumerate_ps_primes(inv, N, table_1e6)
    monkeypatch.setattr(sieve, "enumerate_ps_primes", lambda *args: ps)
    real = hfun._newton_phi
    calls = []

    def counting(inv, y):
        calls.append(y.size)
        return real(inv, y)

    monkeypatch.setattr(hfun, "_newton_phi", counting)
    _sup_built_at(inv, N, 1, 0, table_1e6, 512)
    assert len(calls) == 2


def test_error_term_prime_powers_match_mangoldt_array(table_1e6):
    # the error term's k and the class's prime powers are the dense array's
    # support in the class, and prime_powers' Lambda(k) is bitwise the dense
    # array's at them
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    lam = table_1e6.mangoldt_array()
    dense = np.flatnonzero(lam > 0)
    for q, a in ((1, 0), (4, 3)):
        d = error_term_inputs(inv, table_1e6.limit, q, a, table_1e6)
        ks, lam_k = sieve.prime_powers(table_1e6, table_1e6.limit, q, a)
        want = dense[dense % q == a]
        assert np.array_equal(d.ks, want) and np.array_equal(ks, want)
        assert np.array_equal(lam_k.view(np.int64), lam[want].view(np.int64))


def test_error_term_inputs_need_modulus_at_least_1(table_1e6):
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    for q in (0, -3):
        with pytest.raises(ValueError):
            error_term_inputs(inv, 4096, q, 1, table_1e6)


def test_error_term_inputs_blocked_phi_is_bitwise(table_1e6, monkeypatch, fast_switching):
    # the inversion in blocks of the sorted k, on any thread count, gives
    # bitwise the arrays of one inversion over all of them
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    whole = error_term_inputs(inv, table_1e6.limit, 1, 0, table_1e6)
    assert whole.ks.size > 10 * 4099
    monkeypatch.setattr(expsums, "_PHI_BLOCK", 4099)
    for threads in (1, 2, 3):
        blocked = error_term_inputs(inv, table_1e6.limit, 1, 0, table_1e6,
                                    threads=threads)
        for name in ("mid_weights", "member_weights"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), \
                (threads, name)


def _sup_per_N(inv, N, q, a, table, grid):
    # the error term at N from arrays built at N by the per-N formula: phi
    # at k and k + 1 over all prime powers k <= N at once, the middle weights
    # Lambda(k) (Phi(-phi(k+1)) - Phi(-phi(k))) / phi'(k), and the members'
    # log(p) / phi'(p) read at their places among the k
    ks, lam = sieve.prime_powers(table, N, q, a)
    phi_k = hfun.eval_phi_clamped(inv, ks.astype(float), 0)
    phi_k1 = hfun.eval_phi_clamped(inv, ks.astype(float) + 1.0, 0)
    dphi_k = 1.0 / hfun.eval_h_deriv(inv.parent, phi_k, 1)
    w_mid = lam * (sawtooth_phi(-phi_k1) - sawtooth_phi(-phi_k)) / dphi_k
    mem = enumerate_ps_primes(inv, N, table).members
    mem = mem[mem % q == a]
    w_h = np.log(mem.astype(float)) / dphi_k[np.searchsorted(ks, mem)]
    pr = ks[table.is_prime[ks]]
    A = zn_fourier.sparse_fourier_on_grid(mem, w_h, grid)
    B = zn_fourier.sparse_fourier_on_grid(pr, np.log(pr.astype(float)), grid)
    C = zn_fourier.sparse_fourier_on_grid(ks, w_mid, grid)
    return np.abs(A - B), np.abs(C), float(np.max(np.abs(A - B - C)))


@pytest.mark.parametrize("spec", [power_log(1.2, 2.0, x0=3.0), ps_exponent_spec(0.95)],
                         ids=["h1", "gamma95"])
def test_error_term_weights_match_per_N_formula(table_1e6, monkeypatch, fast_switching,
                                                spec):
    # the weights taken once at the top, in place and in blocks on any thread
    # count, give at every N of a ladder bitwise the report of the per-N
    # formula over arrays built at N itself; h1 takes phi by Newton steps,
    # and gamma = 0.95 has members at most prime powers, so at block ends too
    inv = inverse_of(spec)
    ladder = [2 ** k for k in range(12, 20)] + [700001]
    refs = {(q, a): [_sup_per_N(inv, N, q, a, table_1e6, 512) for N in ladder]
            for q, a in ((1, 0), (4, 3))}
    monkeypatch.setattr(expsums, "_PHI_BLOCK", 1021)
    for (q, a), ref in refs.items():
        for threads in (1, 2, 3):
            top = error_term_inputs(inv, max(ladder), q, a, table_1e6, threads=threads)
            assert top.ks.size > 10 * 1021
            for N, (per_xi, per_xi_middle, gap) in zip(ladder, ref):
                rep = error_term_sup(top, N, 512)
                assert rep.sup_diff == float(np.max(per_xi)), (q, threads, N)
                assert rep.per_xi.tobytes() == per_xi.tobytes(), (q, threads, N)
                assert rep.per_xi_middle.tobytes() == per_xi_middle.tobytes(), (q, threads, N)
                assert rep.route_gap == gap, (q, threads, N)


def test_error_term_inputs_free_the_table(monkeypatch):
    # once the class's primes are read, error_term_inputs holds no reference
    # to the table: passed in the call alone, it is gone before phi is taken
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    real = hfun.eval_phi_clamped
    refs, alive = [], []

    def built(limit):
        table = sieve_primes(limit)
        refs.append(weakref.ref(table))
        return table

    def watching(inv, y, clamp):
        alive.append(refs[0]() is not None)
        return real(inv, y, clamp)

    monkeypatch.setattr(hfun, "eval_phi_clamped", watching)
    d = error_term_inputs(inv, 2 ** 16, 1, 0, built(2 ** 16))
    assert alive and not any(alive)
    assert d.ks.size == d.mid_weights.size > 0


def test_error_term_inputs_memory_is_blocked():
    # at top 2^23 (564,688 prime powers) the arrays returned are three rows
    # of 4.5 MB (ks, mid_weights, primes) and the members, about 13.6 MB,
    # and the traced peak stays within 8 MB of them (about 6.5 MB; inverting
    # phi over all k at once reads about 44 MB)
    top = 2 ** 23
    table = sieve_primes(top)
    inv = inverse_of(power_log(1.2, 2.0, x0=3.0))
    tracemalloc.start()
    try:
        d = error_term_inputs(inv, top, 1, 0, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(v.nbytes for v in d if isinstance(v, np.ndarray))
    assert d.ks.size == 564_688
    assert held < 14_000_000
    assert peak - held < 8_000_000
