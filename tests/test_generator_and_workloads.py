"""Tests of the random tree generator and request distributions."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.problem import ReplicaPlacementProblem
from repro.core.serialization import problem_to_dict
from tests.conftest import problem_records

from repro.workloads.distributions import (
    heterogeneous_capacities,
    inversion_poisson_arrivals,
    poisson_arrivals,
    sinusoidal_intensity,
    thinned_poisson_arrivals,
    uniform_capacities,
    uniform_requests,
    zipf_requests,
)
from repro.workloads.generator import (
    GeneratorConfig,
    TreeGenerator,
    _draw_below,
    generate_campaign,
    generate_tree,
    large_tree,
)


class TestDistributions:
    def test_uniform_requests_range(self):
        rng = np.random.default_rng(0)
        values = uniform_requests(rng, 1000, low=2, high=9)
        assert values.min() >= 2 and values.max() <= 9

    def test_uniform_requests_empty(self):
        assert len(uniform_requests(np.random.default_rng(0), 0)) == 0

    def test_zipf_requests_capped(self):
        rng = np.random.default_rng(0)
        values = zipf_requests(rng, 500, cap=100)
        assert values.max() <= 100

    def test_uniform_capacities_constant(self):
        values = uniform_capacities(np.random.default_rng(0), 5, capacity=42)
        assert set(values.tolist()) == {42.0}

    def test_heterogeneous_capacities_from_choices(self):
        values = heterogeneous_capacities(
            np.random.default_rng(0), 200, choices=(10.0, 20.0)
        )
        assert set(values.tolist()) <= {10.0, 20.0}
        assert len(set(values.tolist())) == 2


class TestGeneratorConfig:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 2},
            {"target_load": 0.0},
            {"client_fraction": 0.0},
            {"client_fraction": 1.0},
            {"max_children": 0},
            {"client_attachment": "anywhere"},
            {"request_low": 5, "request_high": 2},
            {"link_bandwidth": 0.0},
            {"link_bandwidth": -3.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_link_bandwidth_applied_to_every_link(self):
        import math

        from repro.workloads.generator import TreeGenerator

        capped = TreeGenerator(5).generate(
            GeneratorConfig(size=24, target_load=0.4, link_bandwidth=42.0)
        )
        assert all(link.bandwidth == 42.0 for link in capped.links())
        unbounded = TreeGenerator(5).generate(
            GeneratorConfig(size=24, target_load=0.4)
        )
        assert all(math.isinf(link.bandwidth) for link in unbounded.links())


class TestTreeGenerator:
    def test_size_matches_request(self):
        tree = generate_tree(size=50, target_load=0.4, seed=1)
        assert tree.size == 50

    def test_target_load_is_hit(self):
        for load in (0.2, 0.5, 0.8):
            tree = generate_tree(size=60, target_load=load, seed=3)
            assert tree.load_factor() == pytest.approx(load, abs=0.02)

    def test_reproducible_with_seed(self):
        first = generate_tree(size=40, target_load=0.5, seed=99)
        second = generate_tree(size=40, target_load=0.5, seed=99)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_tree(size=40, target_load=0.5, seed=1)
        second = generate_tree(size=40, target_load=0.5, seed=2)
        assert first != second

    def test_homogeneous_flag(self):
        assert generate_tree(size=40, homogeneous=True, seed=5).is_homogeneous()
        hetero = generate_tree(size=60, homogeneous=False, seed=5)
        assert not hetero.is_homogeneous()

    def test_heterogeneous_capacities_from_choices(self):
        tree = TreeGenerator(7).generate(
            GeneratorConfig(size=60, homogeneous=False, capacity_choices=(10.0, 30.0))
        )
        assert {node.capacity for node in tree.nodes()} <= {10.0, 30.0}

    def test_branching_limit_respected(self):
        tree = TreeGenerator(11).generate(GeneratorConfig(size=80, max_children=2))
        for node_id in tree.node_ids:
            assert len(tree.child_nodes(node_id)) <= 2

    def test_leaf_attachment_keeps_root_client_free(self):
        tree = TreeGenerator(13).generate(
            GeneratorConfig(size=60, client_attachment="spread")
        )
        # With "spread"/"leaves", clients attach below edge nodes only.
        for client_id in tree.client_ids:
            parent = tree.parent(client_id)
            assert len(tree.child_nodes(parent)) == 0

    def test_uniform_attachment_allows_any_node(self):
        tree = TreeGenerator(13).generate(
            GeneratorConfig(size=200, client_attachment="uniform")
        )
        parents = {tree.parent(cid) for cid in tree.client_ids}
        assert any(len(tree.child_nodes(p)) > 0 for p in parents)

    def test_spread_balances_clients_per_leaf(self):
        tree = TreeGenerator(17).generate(
            GeneratorConfig(size=100, client_attachment="spread")
        )
        counts = {}
        for client_id in tree.client_ids:
            parent = tree.parent(client_id)
            counts[parent] = counts.get(parent, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_qos_bounds_drawn_when_requested(self):
        tree = TreeGenerator(19).generate(GeneratorConfig(size=40, qos_hops=(2, 4)))
        for client in tree.clients():
            assert 2 <= client.qos <= 4

    def test_requests_are_integral_and_positive(self):
        tree = generate_tree(size=60, target_load=0.5, seed=23)
        for client in tree.clients():
            assert client.requests == int(client.requests)
            assert client.requests >= 1

    def test_custom_request_sampler(self):
        def constant(rng, count):
            return np.full(count, 5.0)

        tree = TreeGenerator(29).generate(
            GeneratorConfig(size=40, target_load=0.5), request_sampler=constant
        )
        requests = [c.requests for c in tree.clients()]
        assert max(requests) - min(requests) <= 1  # rescaled evenly

    def test_generate_many(self):
        trees = TreeGenerator(31).generate_many(GeneratorConfig(size=30), 3)
        assert len(trees) == 3
        assert len({t.size for t in trees}) == 1


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _tree_digest(tree) -> str:
    return _digest(_records(tree))


def _records(tree):
    """The problem payload of ``tree`` in the record layout the digests
    were pinned on (the writer emits columns; the rendering fills back the
    left-out default columns, so the bytes are the record writer's)."""
    return problem_records(problem_to_dict(ReplicaPlacementProblem(tree=tree)))


class TestPinnedDraws:
    """sha256 digests of generated instances, pinned across versions: a
    change to the RNG stream -- or to anything downstream of it -- fails
    here, while same-code reproducibility checks would still pass."""

    CASES = {
        "spread": (
            dict(size=60, target_load=0.5, seed=11),
            "fa6c1286d8e2d43d421b73d7c67e92ccd7af2d4b337c787124888c31ec944e98",
        ),
        "leaves": (
            dict(size=80, target_load=0.4, homogeneous=False, seed=12, client_attachment="leaves"),
            "300305e235694ec32b98e619b23761f93c9d305fe24b9f5f8f7b0e4dde37e23a",
        ),
        "uniform": (
            dict(size=80, target_load=0.6, seed=13, client_attachment="uniform"),
            "97281b6580f0c8914b4773e21da45001321fa9048312d8f741a48e6ea08e0f51",
        ),
        "qos_hops": (
            dict(size=70, target_load=0.5, seed=14, qos_hops=(2, 5)),
            "20192f43577d13117d872905c3fb8b26506d51ecaabd1b27b00062f2b7a0d550",
        ),
        # integers(3, 4) has a single outcome and draws nothing
        "qos_hops_fixed_leaves": (
            dict(size=40, target_load=0.3, seed=15, qos_hops=(3, 3), client_attachment="leaves"),
            "697861fdf5d5efa2de10d639ca00fc01e64eca968743c63b4592cc6f8739be21",
        ),
        "qos_hops_uniform": (
            dict(size=50, target_load=0.5, seed=18, qos_hops=(1, 4), client_attachment="uniform"),
            "5c925519ad387dc73d7368818d7ca068e68b677dd11125000c87bcd0239a79e3",
        ),
        "link_bandwidth": (
            dict(size=50, target_load=0.5, seed=16, link_bandwidth=25.0),
            "963bc6f73a2bb033fa7292d198ae4e1e417f0901cce7fbba4775d16bc3616e43",
        ),
        "link_metrics": (
            dict(size=50, target_load=0.5, homogeneous=False, seed=17, link_metrics=True),
            "f93674c7657a6551992227a3055229f7382644f536a348d1088357c49d06e23f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_generate_tree(self, name):
        kwargs, digest = self.CASES[name]
        assert _tree_digest(generate_tree(**kwargs)) == digest

    def test_large_tree(self):
        assert (
            _tree_digest(large_tree(2_000))
            == "0c35c0b243e637aa98569083c2e6b9729458bae7ff1aa2bc7213651026eef487"
        )

    def test_generate_campaign(self):
        campaign = generate_campaign(
            lambdas=(0.2, 0.7),
            trees_per_lambda=2,
            size_range=(15, 40),
            homogeneous=False,
            seed=5,
        )
        payload = [[load, _records(tree)] for load, tree in campaign]
        assert (
            _digest(payload)
            == "e79129e88fc540a93d00e16df8bf1b526a17dfc9421faafb58c60e745332b9cf"
        )


class TestRecursiveTreeDraws:
    """The random recursive tree reduces bulk-drawn 32-bit words the way
    numpy reduces them for one ``rng.integers(n)`` call per node."""

    @pytest.mark.parametrize("seed", range(3))
    def test_reducer_matches_scalar_draws(self, seed):
        # Above 2**31, (2**32 - n) % n is 2**32 - n: up to half the words
        # are rejected and redrawn.  integers(1) draws nothing.
        bounds = np.random.default_rng(100 + seed).integers(2**31 + 1, 2**32, size=300)
        bounds = bounds.tolist() + [2**31 + 1, 2**32 - 1, 1, 2, 7, 1, 3 * 2**30]
        refills = [sum(n > 1 for n in bounds[k:]) for k in range(len(bounds))]
        reference = np.random.default_rng(seed)
        expected = [int(reference.integers(n)) for n in bounds]
        rng, words = np.random.default_rng(seed), []
        drawn = [_draw_below(rng, words, n, refill) for n, refill in zip(bounds, refills)]
        assert drawn == expected
        assert not words
        assert rng.bit_generator.state == reference.bit_generator.state
        # Rejections happened: one word per draw would have read differently.
        first_words = np.random.default_rng(seed).integers(
            0, 2**32, size=len(bounds), dtype=np.uint32
        )
        assert [(w * n) >> 32 for w, n in zip(first_words.tolist(), bounds)] != expected

    def test_single_child_topology_draws_nothing(self):
        # With max_children=1 one node is open at every step, so the
        # internal nodes form a chain and the clients' draw is the
        # generator's first.
        tree = TreeGenerator(21).generate(
            GeneratorConfig(size=60, max_children=1, client_attachment="uniform")
        )
        n_nodes, n_clients = len(tree.node_ids), len(tree.client_ids)
        assert [tree.parent(f"n{i}") for i in range(1, n_nodes)] == [
            f"n{i}" for i in range(n_nodes - 1)
        ]
        draws = np.random.default_rng(21).integers(n_nodes, size=n_clients)
        assert [tree.parent(f"c{i}") for i in range(n_clients)] == [
            f"n{k}" for k in draws.tolist()
        ]


class TestCampaignGeneration:
    def test_generate_campaign_counts(self):
        campaign = generate_campaign(
            lambdas=(0.2, 0.6), trees_per_lambda=3, size_range=(15, 30), seed=1
        )
        assert len(campaign) == 6
        loads = sorted({load for load, _tree in campaign})
        assert loads == [0.2, 0.6]

    def test_generate_campaign_sizes_in_range(self):
        campaign = generate_campaign(
            lambdas=(0.4,), trees_per_lambda=5, size_range=(15, 25), seed=2
        )
        for _load, tree in campaign:
            assert 15 <= tree.size <= 25

    def test_generate_campaign_reproducible(self):
        first = generate_campaign(lambdas=(0.3,), trees_per_lambda=2, size_range=(15, 20), seed=3)
        second = generate_campaign(lambdas=(0.3,), trees_per_lambda=2, size_range=(15, 20), seed=3)
        assert [t for _l, t in first] == [t for _l, t in second]


class TestArrivalProcesses:
    """The IPPP samplers behind the serving load harness."""

    def test_homogeneous_count_and_order(self):
        rng = np.random.default_rng(7)
        times = poisson_arrivals(rng, rate=200.0, horizon=10.0)
        assert np.all(np.diff(times) > 0)
        assert times.min() >= 0 and times.max() < 10.0
        # E[N] = 2000, sd ~ 45: a 5-sigma band keeps this deterministic.
        assert abs(times.size - 2000) < 225

    def test_homogeneous_empty_cases(self):
        rng = np.random.default_rng(0)
        assert poisson_arrivals(rng, 0.0, 10.0).size == 0
        assert poisson_arrivals(rng, 5.0, 0.0).size == 0
        with pytest.raises(ValueError):
            poisson_arrivals(rng, -1.0, 1.0)

    def test_thinning_tracks_piecewise_intensity(self):
        rng = np.random.default_rng(11)

        def intensity(times):
            return np.where(times < 5.0, 10.0, 100.0)

        times = thinned_poisson_arrivals(rng, intensity, 10.0, bound=100.0)
        low = int(np.sum(times < 5.0))
        high = int(np.sum(times >= 5.0))
        # E = 50 vs 500; 5-sigma bands.
        assert abs(low - 50) < 36
        assert abs(high - 500) < 112
        assert np.all(np.diff(times) > 0)

    def test_thinning_rejects_bound_violations(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="exceeds the thinning bound"):
            thinned_poisson_arrivals(
                rng, lambda t: np.full_like(t, 50.0), 5.0, bound=10.0
            )
        with pytest.raises(ValueError, match="negative rate"):
            thinned_poisson_arrivals(
                rng, lambda t: np.full_like(t, -1.0), 5.0, bound=10.0
            )
        with pytest.raises(ValueError, match="bound must be > 0"):
            thinned_poisson_arrivals(
                rng, lambda t: np.zeros_like(t), 5.0, bound=0.0
            )

    def test_inversion_respects_segments(self):
        rng = np.random.default_rng(13)
        times = inversion_poisson_arrivals(
            rng, breakpoints=[0.0, 2.0, 4.0, 6.0], rates=[100.0, 0.0, 50.0]
        )
        assert np.all((times >= 0.0) & (times < 6.0))
        # The zero-rate middle interval must stay empty.
        assert not np.any((times >= 2.0) & (times < 4.0))
        first = int(np.sum(times < 2.0))
        last = int(np.sum(times >= 4.0))
        assert abs(first - 200) < 71   # E = 200, 5 sigma
        assert abs(last - 100) < 50    # E = 100, 5 sigma

    def test_inversion_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least two edges"):
            inversion_poisson_arrivals(rng, [0.0], [])
        with pytest.raises(ValueError, match="one rate per interval"):
            inversion_poisson_arrivals(rng, [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            inversion_poisson_arrivals(rng, [0.0, 0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="rates must be >= 0"):
            inversion_poisson_arrivals(rng, [0.0, 1.0], [-1.0])
        assert inversion_poisson_arrivals(rng, [0.0, 1.0], [0.0]).size == 0

    def test_thinning_and_inversion_agree(self):
        """Both exact samplers see the same piecewise-constant process."""
        edges = [0.0, 1.0, 2.0, 3.0]
        levels = [300.0, 30.0, 150.0]

        def intensity(times):
            spans = np.clip(
                np.searchsorted(edges, times, side="right") - 1, 0, 2
            )
            return np.asarray(levels, dtype=float)[spans]

        thin = thinned_poisson_arrivals(
            np.random.default_rng(5), intensity, 3.0, bound=300.0
        )
        invert = inversion_poisson_arrivals(
            np.random.default_rng(6), edges, levels
        )
        for low, high, expected in ((0, 1, 300), (1, 2, 30), (2, 3, 150)):
            got_thin = int(np.sum((thin >= low) & (thin < high)))
            got_inv = int(np.sum((invert >= low) & (invert < high)))
            sigma = math.sqrt(expected)
            assert abs(got_thin - expected) < 5 * sigma
            assert abs(got_inv - expected) < 5 * sigma

    def test_samplers_reject_trace_shaped_garbage(self):
        """Non-finite inputs fail with a tagged WorkloadError, not numpy noise."""
        from repro.core.exceptions import ReproError, WorkloadError

        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError, match="finite"):
            poisson_arrivals(rng, np.nan, 1.0)
        with pytest.raises(WorkloadError, match="finite"):
            poisson_arrivals(rng, np.inf, 1.0)
        with pytest.raises(WorkloadError, match="finite"):
            poisson_arrivals(rng, 5.0, np.nan)
        with pytest.raises(WorkloadError, match="finite"):
            poisson_arrivals(rng, 5.0, np.inf)
        with pytest.raises(WorkloadError, match="finite"):
            thinned_poisson_arrivals(
                rng, lambda t: np.zeros_like(t), 1.0, bound=np.inf
            )
        with pytest.raises(WorkloadError, match="finite"):
            inversion_poisson_arrivals(rng, [0.0, np.nan, 2.0], [1.0, 1.0])
        with pytest.raises(WorkloadError, match="finite"):
            inversion_poisson_arrivals(rng, [0.0, 1.0], [np.inf])
        # unsorted timestamp edges carry the strictly-increasing message
        with pytest.raises(WorkloadError, match="strictly increasing"):
            inversion_poisson_arrivals(rng, [0.0, 2.0, 1.0], [1.0, 1.0])
        # WorkloadError stays catchable as both ReproError and ValueError
        assert issubclass(WorkloadError, ReproError)
        assert issubclass(WorkloadError, ValueError)

    def test_all_zero_intensity_yields_empty_schedule(self):
        rng = np.random.default_rng(1)
        empty = inversion_poisson_arrivals(
            rng, [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0]
        )
        assert empty.size == 0

    def test_sinusoidal_intensity_shape(self):
        intensity = sinusoidal_intensity(40.0, burst=0.5, period=2.0)
        times = np.linspace(0.0, 4.0, 1000)
        rates = intensity(times)
        assert rates.min() >= 40.0 * 0.5 - 1e-9
        assert rates.max() <= 40.0 * 1.5 + 1e-9
        assert np.isclose(intensity(np.array([0.5]))[0], 60.0)
        with pytest.raises(ValueError):
            sinusoidal_intensity(-1.0)
        with pytest.raises(ValueError):
            sinusoidal_intensity(1.0, burst=1.5)
        with pytest.raises(ValueError):
            sinusoidal_intensity(1.0, period=0.0)


class TestLargeTree:
    def test_large_tree_hits_the_requested_client_count(self):
        tree = large_tree(2_000, seed=3)
        assert len(tree.client_ids) == 2_000
        # client_fraction=0.9 keeps the internal skeleton thin
        assert len(tree.node_ids) <= 2_000 // 4

    def test_large_tree_is_reproducible(self):
        assert large_tree(1_000, seed=5) == large_tree(1_000, seed=5)

    def test_large_tree_100k_smoke_is_bounded(self):
        """ISSUE acceptance: 10^5 clients build in bounded time/memory."""
        import time

        start = time.perf_counter()
        tree = large_tree(100_000, seed=7)
        elapsed = time.perf_counter() - start
        assert len(tree.client_ids) == 100_000
        assert elapsed < 60.0
        # memory proxy: the ancestor structures stay O(n * depth), far from
        # the quadratic regime a dense pair table would occupy
        depths = [tree.depth(cid) for cid in tree.client_ids[:1000]]
        assert max(depths) < 80
