import math
import random
from functools import lru_cache
from itertools import product

import pytest

from bismash.construct import (
    RemainderSeed,
    WorkloadExceeded,
    build_from_seed,
    enumerate_exact_stabilizer,
    enumerate_involutions,
    enumerate_involutions_fixed,
    enumerate_orbit_reps,
    enumerate_stabilized,
    extract_seed,
)
from bismash.counting import e_set, k_set
from bismash.matched_pair import divisors, stabilizer
from bismash.perm import Permutation, from_cycles, is_involution


def test_build_from_seed_worked_example():
    seed = RemainderSeed(6, 3, 1, Permutation.identity(3), (0, 1))
    assert build_from_seed(seed) == from_cycles(6, [(2, 5)])


def test_zero_seed_is_identity():
    seed = RemainderSeed(12, 4, 1, Permutation.identity(4), (0, 0, 0))
    assert build_from_seed(seed) == Permutation.identity(12)


def test_seed_round_trip_random():
    rng = random.Random(41)
    for _ in range(10_000):
        n = rng.choice([4, 6, 8, 12, 18, 24])
        t = rng.choice([d for d in divisors(n) if d > 1])
        m = n // t
        units = [j for j in range(1, m) if math.gcd(j, m) == 1] or [0]
        j = rng.choice(units)
        images = list(range(1, t))
        rng.shuffle(images)
        sigma = Permutation((0, *images))
        u = tuple(rng.randrange(m) for _ in range(t - 1))
        seed = RemainderSeed(n, t, j, sigma, u)
        x = build_from_seed(seed)
        got = extract_seed(x)
        # extraction recovers the seed whenever the stabilizer is exactly t
        if stabilizer(x).t == t:
            assert got == seed
        else:
            assert t % got.t == 0
            assert build_from_seed(got) == x


def test_seed_output_is_stabilized():
    rng = random.Random(43)
    for _ in range(500):
        n = rng.choice([6, 8, 12, 20])
        t = rng.choice(divisors(n))
        m = n // t
        units = [j for j in range(1, m) if math.gcd(j, m) == 1] or [0]
        images = list(range(1, t))
        rng.shuffle(images)
        seed = RemainderSeed(
            n, t, rng.choice(units), Permutation((0, *images)),
            tuple(rng.randrange(m) for _ in range(t - 1)),
        )
        x = build_from_seed(seed)
        assert t % stabilizer(x).t == 0
        # linearity over residue blocks
        jt = x.word[t % n]
        for q in range(m):
            for w in range(t):
                assert x.word[(q * t + w) % n] == (q * jt + x.word[w]) % n


def test_seed_validation():
    with pytest.raises(ValueError):
        RemainderSeed(12, 5, 1, Permutation.identity(5), (0,) * 4)
    with pytest.raises(ValueError):
        RemainderSeed(12, 6, 4, Permutation.identity(6), (0,) * 5)  # gcd(4,2)=2
    with pytest.raises(ValueError):
        RemainderSeed(12, 6, 1, Permutation.identity(5), (0,) * 5)
    with pytest.raises(ValueError):
        RemainderSeed(12, 6, 1, Permutation.identity(6), (0,) * 4)


def test_exact_stabilizer_degree_12():
    got = list(enumerate_exact_stabilizer(12, 2))
    assert len(got) == 8
    fixed_line = [str(x) for x in enumerate_exact_stabilizer(12, 1)]
    assert fixed_line == [
        "()",
        "(1 5)(2 10)(4 8)(7 11)",
        "(1 7)(3 9)(5 11)",
        "(1 11)(2 10)(3 9)(4 8)(5 7)",
    ]


def test_exact_stabilizer_streams_partition():
    for n in range(2, 9):
        seen = set()
        total = 0
        for t in divisors(n):
            for x in enumerate_exact_stabilizer(n, t):
                assert stabilizer(x).t == t
                assert x.word not in seen
                seen.add(x.word)
                total += 1
        assert total == math.factorial(n - 1)


def test_stabilized_superset():
    # exact streams agree with subtracting finer strata from the  coarse one
    for n in (6, 8, 12):
        for t in divisors(n)[:-1]:
            coarse = {x.word for x in enumerate_stabilized(n, t)}
            finer = set()
            for s in divisors(t)[:-1]:
                finer |= {x.word for x in enumerate_exact_stabilizer(n, s)}
            exact = {x.word for x in enumerate_exact_stabilizer(n, t)}
            assert exact == coarse - finer


def _involution_words(k):
    # Involutions of {1..k} as words fixing 0, in lexicographic order: all
    # pairings of the points, sorted.
    def pairings(points):
        if not points:
            yield {}
            return
        p, rest = points[0], points[1:]
        for image in pairings(rest):
            yield {**image, p: p}
        for i, q in enumerate(rest):
            for image in pairings(rest[:i] + rest[i + 1 :]):
                yield {**image, p: q, q: p}

    return sorted(
        (0, *(image[i] for i in range(1, k + 1)))
        for image in pairings(list(range(1, k + 1)))
    )


@lru_cache(maxsize=None)
def _scalar_involutions(n, t):
    # The reference for the involution stratum: one constrained seed at a
    # time, in seed order, built with build_from_seed and kept when its
    # stabilizer is exactly <a^t>.  Returns (words, candidates).
    m = n // t
    words, candidates = [], 0
    for j in e_set(m):
        for sigma_word in _involution_words(t - 1):
            fixed = [i for i in range(1, t) if sigma_word[i] == i]
            pairs = [(i, sigma_word[i]) for i in range(1, t) if sigma_word[i] > i]
            choice_sets = [k_set(j, m)] * len(fixed) + [range(m)] * len(pairs)
            for choice in product(*choice_sets):
                candidates += 1
                u = [0] * (t - 1)
                for i, v in zip(fixed, choice[: len(fixed)]):
                    u[i - 1] = v
                for (i, i2), v in zip(pairs, choice[len(fixed) :]):
                    u[i - 1] = v
                    u[i2 - 1] = (-j * v) % m
                seed = RemainderSeed(n, t, j, Permutation(sigma_word), tuple(u))
                x = build_from_seed(seed)
                if stabilizer(x).t == t:
                    words.append(x.word)
    return tuple(words), candidates


def test_enumerate_involutions_match_scalar_seeds():
    for n in range(2, 13):
        for t in divisors(n):
            want, _candidates = _scalar_involutions(n, t)
            assert tuple(x.word for x in enumerate_involutions(n, t)) == want, (n, t)


def test_involution_guard_at_candidate_count():
    # The guard counts the constrained seeds before expanding any: a
    # limit of exactly that many passes, one fewer is refused.  The
    # degrees 120 and 121 expand into both row types.
    for n, t in [(12, 12), (12, 6), (120, 3), (121, 1)]:
        want, candidates = _scalar_involutions(n, t)
        got = tuple(x.word for x in enumerate_involutions(n, t, max_work=candidates))
        assert got == want, (n, t)
        with pytest.raises(WorkloadExceeded):
            list(enumerate_involutions(n, t, max_work=candidates - 1))


def test_enumerate_involutions_worked_example():
    got = [str(x) for x in enumerate_involutions(6, 3)]
    assert sorted(got) == ["(1 2)(4 5)", "(1 4)", "(1 4)(2 5)", "(2 5)"]


def test_enumerate_involutions_degenerate():
    assert [str(x) for x in enumerate_involutions(2, 1)] == ["()"]


def test_enumerate_involutions_properties():
    for n in (6, 8, 9, 12):
        for t in divisors(n):
            m = n // t
            for x in enumerate_involutions(n, t):
                assert is_involution(x)
                assert stabilizer(x).t == t
                seed = extract_seed(x)
                assert is_involution(seed.sigma)
                # the shift constraint of the involution seeds
                for i in range(1, t):
                    si = seed.sigma.word[i]
                    u_i = seed.u[i - 1]
                    u_si = seed.u[si - 1] if si else 0
                    assert u_i == (-seed.j * u_si) % m


def test_enumerate_involutions_fixed_worked_example():
    got = sorted(str(x) for x in enumerate_involutions_fixed(8, 4, 2))
    assert got == [
        "(1 2)(3 7)(5 6)",
        "(1 5)(2 3)(6 7)",
        "(1 5)(2 6)(3 7)",
        "(1 5)(2 7)(3 6)",
        "(1 6)(2 5)(3 7)",
    ]
    assert "(1 5)(2 6)(3 7)" in got


def test_enumerate_involutions_fixed_parity():
    assert list(enumerate_involutions_fixed(8, 4, 3)) == []
    assert list(enumerate_involutions_fixed(9, 3, 2)) == []


def test_enumerate_orbit_reps():
    orbs = list(enumerate_orbit_reps(12, 3, 1))
    assert len(orbs) == 6
    for orb in orbs:
        assert sum(1 for y in orb.members if is_involution(y)) == 1
        assert orb.representative == min(orb.members, key=lambda y: y.one_line())
    # singleton orbits at t = 1
    for orb in enumerate_orbit_reps(12, 1):
        assert orb.members == (orb.representative,)


def test_orbit_reps_cover_stratum():
    for n in (6, 8):
        for t in divisors(n):
            covered = 0
            for orb in enumerate_orbit_reps(n, t):
                assert len(orb.members) == t
                covered += t
            from bismash.counting import CountContext, count_M

            assert covered == count_M(CountContext(n), t)


def test_workload_guard():
    with pytest.raises(WorkloadExceeded):
        list(enumerate_exact_stabilizer(12, 6, max_work=100))
    with pytest.raises(WorkloadExceeded):
        list(enumerate_involutions(12, 12, max_work=10))


def test_workload_guard_env_default(monkeypatch):
    from bismash.construct import default_max_work

    assert default_max_work() == 10**8
    monkeypatch.setenv("BISMASH_MAX_WORK", "12345")
    assert default_max_work() == 12345


def test_workload_guard_env_rejects_non_integer(monkeypatch):
    from bismash.construct import default_max_work

    for env in ("abc", "-1"):
        monkeypatch.setenv("BISMASH_MAX_WORK", env)
        with pytest.raises(ValueError, match="BISMASH_MAX_WORK"):
            default_max_work()
    monkeypatch.setenv("BISMASH_MAX_WORK", "0")
    assert default_max_work() == 0
