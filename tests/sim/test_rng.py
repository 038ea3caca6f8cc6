"""DeterministicRng: reproducibility and distribution helpers."""

import pytest

from repro.sim.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.randint(0, 1000) for _ in range(50)] == [b.randint(0, 1000) for _ in range(50)]


def test_different_seeds_diverge():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.randint(0, 10 ** 9) for _ in range(10)] != [b.randint(0, 10 ** 9) for _ in range(10)]


def test_fork_is_deterministic_and_independent():
    root = DeterministicRng(99)
    fork_a1 = root.fork(1)
    fork_a2 = DeterministicRng(99).fork(1)
    assert fork_a1.randint(0, 10 ** 9) == fork_a2.randint(0, 10 ** 9)
    fork_b = root.fork(2)
    assert fork_b.seed != fork_a1.seed


def test_fork_streams_do_not_share_state():
    root = DeterministicRng(5)
    one, two = root.fork(1), root.fork(2)
    before = two.randint(0, 10 ** 9)
    # Draw lots from stream one; stream two must be unaffected.
    for _ in range(100):
        one.random()
    assert DeterministicRng(5).fork(2).randint(0, 10 ** 9) == before


def test_randint_bounds():
    rng = DeterministicRng(3)
    draws = [rng.randint(2, 5) for _ in range(200)]
    assert min(draws) >= 2 and max(draws) <= 5
    assert set(draws) == {2, 3, 4, 5}


def test_choice_and_sample():
    rng = DeterministicRng(4)
    items = ["a", "b", "c"]
    assert rng.choice(items) in items
    picked = rng.sample(list(range(10)), 4)
    assert len(picked) == len(set(picked)) == 4


def test_shuffle_permutes_in_place():
    rng = DeterministicRng(8)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))


def test_geometric_mean_tracks_parameter():
    rng = DeterministicRng(11)
    draws = [rng.geometric(0.5) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    assert 1.8 < mean < 2.2  # E[X] = 1/p = 2


def test_geometric_rejects_bad_p():
    rng = DeterministicRng(0)
    with pytest.raises(ValueError):
        rng.geometric(0.0)
    with pytest.raises(ValueError):
        rng.geometric(1.5)


def test_randint_stream_equals_random_randint():
    """``randint`` draws exactly what ``random.Random(seed).randint`` does,
    over many seeds and ranges, width 1 and negative bounds included."""
    import random

    ranges = [(0, 0), (5, 5), (-3, -3), (0, 1), (1, 2), (0, 2), (1, 16), (-7, 7),
              (0, 255), (100, 500), (0, (1 << 20)), (1, (1 << 40) - 1), (0, 10 ** 30)]
    for seed in range(64):
        ours = DeterministicRng(seed)
        reference = random.Random(seed)
        for _ in range(4):
            for low, high in ranges:
                assert ours.randint(low, high) == reference.randint(low, high)
        # The streams stay in step for the other helpers too.
        assert ours.random() == reference.random()


def test_randint_rejects_an_empty_range():
    rng = DeterministicRng(3)
    with pytest.raises(ValueError):
        rng.randint(1, 0)
    with pytest.raises(ValueError):
        rng.randint(10, -10)
    # A rejected draw consumes nothing.
    assert rng.randint(0, 1000) == DeterministicRng(3).randint(0, 1000)
