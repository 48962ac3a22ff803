import csv
import logging
import math
import tracemalloc

import numpy as np
import pytest

from psroth import (
    DomainError,
    NumericalError,
    ResourceError,
    count_in_class,
    enumerate_ps_primes,
    euler_phi,
    eval_phi,
    hfun,
    inverse_of,
    mangoldt,
    mobius,
    mobius_array,
    prime_powers,
    ps_exponent_spec,
    ps_member,
    pure_power,
    sieve,
    sieve_primes,
    small_p_threshold,
    vaughan_coefficients,
)
from psroth.sieve import _factorize, _floor_guarded_h, _near_int


def simple_sieve(limit):
    # independent oracle: plain boolean sieve, no shared code with the package
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if flags[i]]


def trial_division_count(limit):
    cnt = 0
    for n in range(2, limit + 1):
        for d in range(2, int(n ** 0.5) + 1):
            if n % d == 0:
                break
        else:
            cnt += 1
    return cnt


def test_small_tables():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes.tolist() == [2]
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_pi_1e6_against_independent_sieve(table_1e6):
    oracle = simple_sieve(10 ** 6)
    assert table_1e6.primes.size == 78498
    assert len(oracle) == 78498
    assert np.array_equal(table_1e6.primes, np.array(oracle))


def test_pi_1e4_against_trial_division(table_1e6):
    assert trial_division_count(10 ** 4) == 1229
    assert int(np.count_nonzero(table_1e6.primes <= 10 ** 4)) == 1229


def test_budget_guard():
    with pytest.raises(ResourceError):
        sieve_primes(10 ** 9, budget=10 ** 6)


def test_factorize_trial_division():
    for n in range(2, 5000):
        fac = _factorize(n)
        assert fac == sorted(fac)
        assert math.prod(fac) == n
        assert all(len(_factorize(p)) == 1 for p in set(fac))
        # first factor really is the smallest divisor
        assert all(n % d != 0 for d in range(2, fac[0]))


def test_near_int_guard_only_widens():
    # one tolerance per sub-block, at its largest value, flags every x that
    # the per-element rule max(1e-9, 4 ulp(|x|) + slack) flags, on values
    # crossing a binade and near 2^52, where the ulp is 1/2 and then 1
    rng = np.random.default_rng(20)
    flagged = 0
    for trial in range(400):
        e = int(rng.integers(0, 53)) if trial % 4 else 52
        base = 2.0 ** e
        k = np.floor(base * rng.uniform(0.75, 1.5, 512))
        x = k + rng.integers(-6, 7, k.size) * np.spacing(k) * rng.choice([0.5, 1.0], k.size)
        x[rng.random(k.size) < 0.2] += rng.uniform(-1.0, 1.0)
        slack = float(rng.choice([0.0, 1e-12, 1e-8]))
        dist = np.abs(np.rint(x) - x)
        old = (dist < 1e-9) | (dist < 4 * np.abs(np.spacing(x)) + slack)
        new = _near_int(x, slack)
        assert not np.any(old & ~new), trial
        flagged += int(old.sum())
    assert flagged > 10000


def test_near_int_scales_with_magnitude():
    # one ulp at 1e13 is 0.00195, so an absolute 1e-9 guard misses this
    assert _near_int(1e13 + 0.004)
    assert _near_int(7.0 + 5e-10)
    assert not _near_int(7.5)
    assert not _near_int(1e6 + 1e-6)


def test_mangoldt_scalar(table_1e6):
    assert mangoldt(8, table_1e6) == pytest.approx(math.log(2))
    assert mangoldt(6, table_1e6) == 0.0
    assert mangoldt(1, table_1e6) == 0.0
    assert mangoldt(97, table_1e6) == pytest.approx(math.log(97))
    with pytest.raises(ValueError):
        mangoldt(0, table_1e6)


def test_mobius_scalar(table_1e6):
    assert mobius(1, table_1e6) == 1
    assert mobius(6, table_1e6) == 1
    assert mobius(12, table_1e6) == 0
    assert mobius(30, table_1e6) == -1
    with pytest.raises(ValueError):
        mobius(0, table_1e6)


def test_euler_phi(table_1e6):
    assert euler_phi(30, table_1e6) == 8
    assert euler_phi(1, table_1e6) == 1
    # brute oracle on a stretch
    for n in range(1, 500):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n, table_1e6) == brute


def test_mangoldt_array_matches_scalar(table_1e6):
    lam = table_1e6.mangoldt_array()
    for n in (1, 2, 4, 6, 8, 9, 27, 97, 1024, 59049):
        assert lam[n] == pytest.approx(mangoldt(n, table_1e6))


def test_prime_powers_match_scalar_mangoldt():
    # the scalar mangoldt factors by trial division, apart from the primes
    # that prime_powers reads; every k <= 5000 of each class is compared
    table = sieve_primes(5000)
    for q, a in ((1, 0), (4, 3), (6, 5)):
        ks, lam = prime_powers(table, 5000, q, a)
        want = [k for k in range(1, 5001) if k % q == a and mangoldt(k, table) > 0]
        assert ks.dtype == np.int64 and ks.tolist() == want
        np.testing.assert_allclose(lam, [mangoldt(k, table) for k in want],
                                   rtol=1e-15, atol=0)
    ks, lam = prime_powers(table, 1)
    assert ks.size == lam.size == 0
    ks, lam = prime_powers(table, 2)
    assert ks.tolist() == [2] and lam.tolist() == [math.log(2)]
    with pytest.raises(ValueError, match="beyond table limit"):
        prime_powers(table, 5001)


def test_chebyshev_identity(table_1e6):
    # sum over divisors of Lambda equals log, for every n <= 10^4
    lam = table_1e6.mangoldt_array()
    acc = np.zeros(10 ** 4 + 1)
    for d in range(2, 10 ** 4 + 1):
        acc[d::d] += lam[d]
    ns = np.arange(2, 10 ** 4 + 1)
    assert np.max(np.abs(acc[2:] - np.log(ns))) < 1e-9


def test_mobius_divisor_sum(table_1e6):
    mu = mobius_array(10 ** 4, table_1e6)
    acc = np.zeros(10 ** 4 + 1, dtype=np.int64)
    for d in range(1, 10 ** 4 + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert np.all(acc[2:] == 0)


def test_vaughan_coefficient_values(table_1e6):
    pi_arr, xi_arr = vaughan_coefficients(10, 10, 100, table_1e6)
    assert pi_arr[1] == 0.0
    assert pi_arr[6] == pytest.approx(-math.log(2) - math.log(3))
    assert xi_arr[1] == 0
    # l squarefree and <= w: no divisor exceeds w, so Xi picks up -mu-sum = -[l=1]
    for l in (2, 3, 5, 6, 7, 10):
        assert xi_arr[l] == 0


def test_pi_v_log_bound(table_1e6):
    # |Pi_v(l)| <= log l
    for v in (10.0, 50.0, 316.0):
        pi_arr, _ = vaughan_coefficients(v, v, 10 ** 5, table_1e6)
        ls = np.arange(2, 10 ** 5 + 1)
        assert np.all(np.abs(pi_arr[2:]) <= np.log(ls) + 1e-9), v


def test_ps_member_pure_power():
    inv = inverse_of(pure_power(1.5))
    assert ps_member(inv, 11) is True
    assert ps_member(inv, 7) is False
    floors = sorted({int(math.floor(n ** 1.5)) for n in range(1, 50)})
    for p in range(2, 100):
        assert ps_member(inv, p) == (p in floors), p


def test_ps_member_identity_map():
    inv = inverse_of(pure_power(1.0))
    for p in (2, 3, 10, 97, 10 ** 6 + 3):
        assert ps_member(inv, p) is True


def test_ps_member_domain_guard():
    spec = pure_power(1.5, x0=3.0)
    inv = inverse_of(spec)
    with pytest.raises(DomainError):
        ps_member(inv, 2)  # below ceil(h(x0))


def test_enumeration_pinned_sets(table_1e6):
    inv = inverse_of(pure_power(1.5))
    ps = enumerate_ps_primes(inv, 100, table_1e6)
    assert ps.members.tolist() == [2, 5, 11, 31, 41, 89]
    # witnesses reproduce the floors
    assert np.array_equal(np.floor(ps.witnesses ** 1.5).astype(np.int64), ps.members)

    ident = inverse_of(pure_power(1.0))
    assert enumerate_ps_primes(ident, 10, table_1e6).members.tolist() == [2, 3, 5, 7]
    assert enumerate_ps_primes(inv, 1, table_1e6).members.size == 0


def test_enumeration_invariants(table_1e6, inv95, inv99):
    for inv in (inv95, inv99):
        ps = enumerate_ps_primes(inv, 10 ** 6, table_1e6)
        m = ps.members
        assert np.all(np.diff(m) > 0)          # strictly increasing, no dupes
        assert np.all(table_1e6.is_prime[m])
        # membership identity agrees everywhere at this scale, including the
        # sub-threshold range where it is only logged during enumeration
        sample = m[:: max(1, m.size // 400)]
        for p in sample:
            assert ps_member(inv, int(p))


@pytest.mark.parametrize("spec, N, block", [
    # h' < 1: every p repeats over about three n, so runs straddle blocks
    (pure_power(1.05, C_h=0.3), 10 ** 4, 7),
    (ps_exponent_spec(0.95), 10 ** 6, 4099),
])
def test_blocked_enumeration_matches_one_block(table_1e6, monkeypatch, caplog,
                                               spec, N, block):
    inv = inverse_of(spec)
    whole = enumerate_ps_primes(inv, N, table_1e6)
    assert whole.witnesses[-1] < sieve._BLOCK   # the reference is one block
    monkeypatch.setattr(sieve, "_BLOCK", block)
    with caplog.at_level(logging.INFO, logger="psroth.sieve"):
        blocked = enumerate_ps_primes(inv, N, table_1e6)
    assert whole.witnesses[-1] > 100 * block
    assert np.array_equal(blocked.members, whole.members)
    assert np.array_equal(blocked.witnesses, whole.witnesses)
    # the sub-threshold disagreements are summed into one line over the blocks
    below = int(np.sum(whole.members < whole.p_min))
    lines = [r.getMessage() for r in caplog.records if "threshold" in r.getMessage()]
    assert len(lines) == 1 and lines[0].startswith(f"{below} members below")


def test_blocked_enumeration_names_rejected_member(table_1e6, inv95, monkeypatch):
    whole = enumerate_ps_primes(inv95, 10 ** 6, table_1e6)
    target = int(whole.members[-100])
    assert target > whole.p_min
    real = sieve._floor_identity
    monkeypatch.setattr(sieve, "_floor_identity",
                        lambda inv, ps: real(inv, ps) & (ps != target))
    monkeypatch.setattr(sieve, "_BLOCK", 4099)
    # blocks start at n = 1; the target's block comes after the first one
    # whose members are checked above p_min
    first_above = whole.witnesses[np.searchsorted(whole.members, whole.p_min)]
    assert (whole.witnesses[-100] - 1) // 4099 > (first_above - 1) // 4099
    with pytest.raises(NumericalError, match=rf"p={target}\b"):
        enumerate_ps_primes(inv95, 10 ** 6, table_1e6)


def floor_h_20_19(n):
    """floor(n^(20/19)) in integer arithmetic: the largest k with k^19 <= n^20."""
    t = n ** 20
    k = round(n ** (20 / 19))
    while k ** 19 > t:
        k -= 1
    while (k + 1) ** 19 <= t:
        k += 1
    return k


def closest_above_integer(spec, lo, hi):
    """The n in [lo, hi) whose h(n) has the smallest fractional part: 64
    candidates per block nearest an integer in double, decided in longdouble."""
    cands = []
    for start in range(lo, hi, 10 ** 6):
        ns = np.arange(start, min(start + 10 ** 6, hi), dtype=np.int64)
        hs = hfun.eval_h(spec, ns.astype(float))
        dist = np.abs(hs - np.rint(hs))
        cands.append(ns[np.argpartition(dist, 64)[:64]])
    ns = np.concatenate(cands)
    hs = hfun.eval_h(spec, ns.astype(np.longdouble))
    return int(ns[np.argmin(hs - np.floor(hs))])


@pytest.mark.parametrize("target", [10 ** 6, 10 ** 9])
def test_adversarial_near_integer_floor(inv95, table_1e6, target):
    # where h(n) lies just above an integer, a double h(n) can round down to
    # the integer below and phi(p) up past n; the floors and the floor
    # identity must still match floor(n^(20/19)) computed exactly
    n0 = int(eval_phi(inv95, float(target)))
    n = closest_above_integer(inv95.parent, max(n0 // 2, n0 - 8 * 10 ** 6), n0 - 100)
    near = np.arange(n - 30, n + 31, dtype=np.int64)
    exact = [floor_h_20_19(int(m)) for m in near]
    # the floor step of enumerate_ps_primes
    assert _floor_guarded_h(inv95, n - 30, n + 31).tolist() == exact
    for p in range(exact[0], exact[-1] + 1):
        assert ps_member(inv95, p) == (p in exact), p
    if target <= table_1e6.limit:
        members = enumerate_ps_primes(inv95, target, table_1e6).members
        got = members[(members >= exact[0]) & (members <= exact[-1])].tolist()
        assert got == [k for k in exact if table_1e6.is_prime[k]]


H1 = hfun.power_log(1.2, 2.0, x0=3.0)


@pytest.mark.parametrize("spec, N, block, sub", [
    # N = 10^6 reaches the adversarial n of the 10^6 target above
    (ps_exponent_spec(0.95), 10 ** 6, 4099, 61),
    (ps_exponent_spec(0.95), 123_457, 4099, 7),
    # h1 reaches only n = 3086 below 10^6
    (H1, 10 ** 6 - 17, 1021, 61),
    (H1, 10 ** 6 - 17, 1021, 7),
])
def test_sub_blocked_floors_match_default_enumeration(table_1e6, monkeypatch,
                                                       spec, N, block, sub):
    # sub-blocks of 7 and 61 n put sub-block edges everywhere, the last one
    # of each block shortened (no block size is a multiple of 7 or 61); with
    # and without a table, against the defaults
    inv = inverse_of(spec)
    want = enumerate_ps_primes(inv, N, table_1e6)
    monkeypatch.setattr(sieve, "_SUB_BLOCK", sub)
    monkeypatch.setattr(sieve, "_BLOCK", block)
    assert want.witnesses[-1] > 3 * block
    for table in (table_1e6, None):
        got = enumerate_ps_primes(inv, N, table)
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.witnesses, want.witnesses)


def test_rational_exponent_floor_past_the_double_exponent(inv95):
    # h in double at c = 1/0.95 gives 986997923.9999993 here, and phi at
    # 986997924 gives 350429313.0000003: both round across the exact floor
    n = 350429313
    assert floor_h_20_19(n) == 986997924
    assert _floor_guarded_h(inv95, n, n + 1).tolist() == [986997924]
    assert not ps_member(inv95, 986997923)
    assert ps_member(inv95, 986997924)


def test_small_p_threshold_values(inv95):
    assert small_p_threshold(inverse_of(pure_power(1.0))) == math.inf
    t95 = small_p_threshold(inv95)
    # gap phi(p+1) - phi(p) crosses 1/2 exactly at the reported point
    gap = lambda p: float(eval_phi(inv95, p + 1.0) - eval_phi(inv95, p))
    assert gap(t95) < 0.5 <= gap(t95 - 1)
    t15 = small_p_threshold(inverse_of(pure_power(1.5)))
    assert t15 <= 3


def test_subthreshold_logging(table_1e6, inv95, caplog):
    with caplog.at_level(logging.INFO, logger="psroth.sieve"):
        enumerate_ps_primes(inv95, 10 ** 4, table_1e6)
    assert any("threshold" in r.message for r in caplog.records)


def test_count_in_class(table_1e6):
    assert count_in_class(table_1e6, 100, 4, 1) == 11
    inv = inverse_of(pure_power(1.5))
    ps = enumerate_ps_primes(inv, 100, table_1e6)
    assert count_in_class(ps, 100, 1, 0) == 6
    logsum = count_in_class(table_1e6, 10, 1, 0, weight="log")
    assert logsum == pytest.approx(math.log(2 * 3 * 5 * 7))
    with pytest.raises(ValueError):
        count_in_class(table_1e6, 100, 4, 2)


def test_weighted_count_needs_ps_source(table_1e6):
    with pytest.raises(ValueError):
        count_in_class(table_1e6, 100, 1, 0, weight="log_over_phiprime")


def test_density_trend_small(table_1e6, inv95):
    ps = enumerate_ps_primes(inv95, 10 ** 6, table_1e6)
    ratios = []
    for N in (10 ** 4, 10 ** 5, 10 ** 6):
        cnt = int(np.count_nonzero(ps.members <= N))
        ratios.append(cnt * math.log(N) / float(eval_phi(inv95, float(N))))
    assert all(0.8 < r < 1.3 for r in ratios)
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)


def test_ps_csv_round_trip(tmp_path, table_1e6):
    inv = inverse_of(pure_power(1.5))
    ps = enumerate_ps_primes(inv, 100, table_1e6)
    path = tmp_path / "ps.csv"
    ps.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_witness_index,p_prime"
    got = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
    assert [p for _, p in got] == [2, 5, 11, 31, 41, 89]
    assert all(math.floor(n ** 1.5) == p for n, p in got)


def test_to_csv_matches_csv_writer(tmp_path, inv95, table_1e6, ps95_1e7):
    # several write blocks, and the empty set
    assert ps95_1e7.members.size > 2 ** 17
    for ps in (ps95_1e7, enumerate_ps_primes(inv95, 1, table_1e6)):
        path = tmp_path / "ps.csv"
        ps.to_csv(path)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n_witness_index", "p_prime"])
            for n, p in zip(ps.witnesses, ps.members):
                wr.writerow([int(n), int(p)])
        assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("spec, N, block", [
    (ps_exponent_spec(0.95), 10 ** 6 - 17, None),
    (ps_exponent_spec(0.95), 123_457, 97),
    (hfun.power_log(1.2, 2.0, x0=3.0), 10 ** 6 - 17, 61),
    (hfun.power_log(1.05, 1.5, x0=20.0), 654_321, 89),
])
def test_table_free_enumeration_matches_table(table_1e6, monkeypatch, spec, N, block):
    # N ends inside a block; a small _BLOCK makes every value segment cross
    # sieve chunks and n-blocks, and a small _JOIN pours many runs of
    # blocks; the reference reads the table at the defaults
    inv = inverse_of(spec)
    want = enumerate_ps_primes(inv, N, table_1e6)
    if block is not None:
        monkeypatch.setattr(sieve, "_BLOCK", block)
        monkeypatch.setattr(sieve, "_JOIN", 5 * block)
        assert want.witnesses[-1] > 50 * block
    got = enumerate_ps_primes(inv, N)
    assert want.members.size > 10
    assert np.array_equal(got.members, want.members)
    assert np.array_equal(got.witnesses, want.witnesses)
    assert got.p_min == want.p_min


@pytest.mark.parametrize("N", [-3, 0, 1, 2, 3, 10])
def test_table_free_enumeration_tiny_N(table_1e6, inv95, N):
    want = enumerate_ps_primes(inv95, N, table_1e6)
    got = enumerate_ps_primes(inv95, N)
    assert np.array_equal(got.members, want.members)
    assert np.array_equal(got.witnesses, want.witnesses)


def test_table_free_enumeration_memory_is_blocked(inv95):
    # N = 2^26 spans 26 blocks of n: the traced peak above the result (about
    # 28 MiB) holds one block's floors and masks and one sub-block's float
    # arrays, so it stays under 32 MiB
    tracemalloc.start()
    try:
        got = enumerate_ps_primes(inv95, 1 << 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = got.members.nbytes + got.witnesses.nbytes
    assert got.members.size > 10 ** 6
    assert peak - result < 32 << 20


@pytest.mark.parametrize("block, limits", [
    (None, (sieve._BLOCK - 1, sieve._BLOCK, sieve._BLOCK + 1)),
    (64, (2, 3, 4, 63, 64, 65, 127, 128, 129, 4096 + 1)),
])
def test_sieve_primes_matches_reference_at_chunk_edges(monkeypatch, block, limits):
    if block is not None:
        monkeypatch.setattr(sieve, "_BLOCK", block)
    for limit in limits:
        table = sieve_primes(limit)
        want = simple_sieve(limit)
        assert table.is_prime.size == limit + 1
        assert np.flatnonzero(table.is_prime).tolist() == want
        assert table.primes.dtype == np.int64 and table.primes.tolist() == want


def test_segment_flags_match_reference(monkeypatch):
    monkeypatch.setattr(sieve, "_BLOCK", 50)
    want = np.zeros(5001, dtype=bool)
    want[simple_sieve(5000)] = True
    small = sieve._primes_to(70)
    for lo, hi in ((0, 0), (0, 1), (1, 2), (2, 2), (4, 4), (0, 5000), (49, 151),
                   (2500, 2549), (4900, 5000), (97, 97)):
        assert np.array_equal(sieve._segment_flags(lo, hi, small), want[lo:hi + 1])


def test_to_csv_digit_runs_match_csv_writer(tmp_path, inv95):
    # rows whose n and p gain a digit at different rows, one block apart
    ns = np.array([1, 2, 9, 10, 11, 98, 99, 100, 101, 9_999_999, 10_000_000,
                   10_000_001, 123_456_789_012], dtype=np.int64)
    ps = np.array([2, 3, 5, 7, 97, 101, 9973, 10007, 9_999_991, 10_000_019,
                   99_999_989, 100_000_007, 10 ** 15 + 37], dtype=np.int64)
    for members, witnesses in ((ps, ns), (ps[:0], ns[:0]), (ps[5:6], ns[5:6])):
        s = sieve.PsPrimeSet(inv95, 10 ** 16, members, witnesses, 0.0)
        path, ref = tmp_path / "ps.csv", tmp_path / "ref.csv"
        s.to_csv(path)
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n_witness_index", "p_prime"])
            for n, p in zip(witnesses.tolist(), members.tolist()):
                wr.writerow([n, p])
        assert path.read_bytes() == ref.read_bytes()
