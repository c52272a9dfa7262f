"""The scenario sweep: generator, table shape, persistence, slow regions."""

import json

import numpy as np
import pytest

from repro.coloring.verify import assert_proper_coloring
from repro.experiments.scenario_sweep import (
    FULL_AXES,
    MICROBATCH_MAX_VERTICES,
    MINI_AXES,
    PARITY_NEUTRAL_BACKENDS,
    SWEEP_TABLE_VERSION,
    GraphFeatures,
    default_backends,
    load_sweep_table,
    run_scenario_sweep,
    scenario_graph,
    slow_regions,
    sweep_report,
    write_sweep_table,
)
from repro.graph import erdos_renyi, rmat


class TestGraphFeatures:
    def test_compute_matches_graph(self):
        g = rmat(8, 4, seed=3)
        f = GraphFeatures.compute(g)
        assert f.num_vertices == g.num_vertices
        assert f.num_edges == g.num_edges
        assert f.max_degree == g.max_degree()
        assert f.mean_degree == pytest.approx(g.num_edges / g.num_vertices)
        assert f.degree_skew == pytest.approx(
            g.max_degree() / (g.num_edges / g.num_vertices)
        )
        assert f.density == pytest.approx(
            f.mean_degree / (g.num_vertices - 1)
        )

    def test_edgeless_graph_is_all_zeros(self):
        g = erdos_renyi(10, 0.0, seed=0)
        f = GraphFeatures.compute(g)
        assert (f.degree_skew, f.density, f.mean_degree) == (0.0, 0.0, 0.0)

    def test_dict_round_trip(self):
        f = GraphFeatures.compute(rmat(7, 3, seed=9))
        assert GraphFeatures(**f.as_dict()) == f


class TestScenarioGraph:
    def test_deterministic_given_knobs(self):
        a = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        b = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_the_graph(self):
        a = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        b = scenario_graph(300, 0.45, 0.5, 6, seed=4)
        assert a.fingerprint() != b.fingerprint()

    def test_density_knob_moves_realised_density(self):
        sparse = scenario_graph(1000, 0.3, 0.0, 2)
        dense = scenario_graph(1000, 0.3, 0.0, 16)
        assert dense.num_edges > 3 * sparse.num_edges

    def test_skew_knob_moves_degree_skew(self):
        # Home-quadrant probability 0.25 is uniform; 0.9 is a heavy tail.
        flat = scenario_graph(2048, 0.25, 0.0, 8)
        skewed = scenario_graph(2048, 0.9, 0.0, 8)
        ratio = lambda g: g.max_degree() / (g.num_edges / g.num_vertices)
        assert ratio(skewed) > 2 * ratio(flat)

    def test_community_knob_concentrates_edges(self):
        # With community=1.0 every edge lives inside a sqrt(n) block, so
        # endpoints are never more than one block apart.
        g = scenario_graph(900, 0.3, 1.0, 6)
        csize = max(4, int(np.sqrt(900)))
        for u in range(g.num_vertices):
            for v in g.neighbors(u):
                assert abs(int(u) // csize - int(v) // csize) <= 1

    def test_colorable(self):
        from repro import color

        g = scenario_graph(500, 0.6, 0.4, 8, seed=1)
        result = color(g, "bitwise")
        assert_proper_coloring(g, result.colors)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=1, skew=0.3, community=0.0, density=4),
            dict(size=100, skew=0.1, community=0.0, density=4),
            dict(size=100, skew=0.3, community=1.5, density=4),
            dict(size=100, skew=0.3, community=0.0, density=0),
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(ValueError):
            scenario_graph(**kwargs)


@pytest.fixture(scope="module")
def mini_table():
    return run_scenario_sweep(
        sizes=(128, 256),
        skews=(0.3,),
        communities=(0.0, 0.5),
        densities=(4,),
        repeats=1,
        obs_counters=False,
    )


class TestSweepTable:
    def test_axes_defaults_are_grids(self):
        assert len(FULL_AXES["sizes"]) * len(FULL_AXES["skews"]) * len(
            FULL_AXES["communities"]
        ) * len(FULL_AXES["densities"]) == 48
        assert max(MINI_AXES["sizes"]) <= MICROBATCH_MAX_VERTICES

    def test_table_shape(self, mini_table):
        assert mini_table["kind"] == "router-scenario-sweep"
        assert mini_table["version"] == SWEEP_TABLE_VERSION
        assert mini_table["software_tier"] in ("native", "vectorized")
        assert len(mini_table["points"]) == 4
        for p in mini_table["points"]:
            assert set(p["params"]) == {
                "size", "skew", "community", "density", "seed",
            }
            assert p["seconds"]
            assert all(s > 0 for s in p["seconds"].values())
            assert p["fastest"] in p["seconds"]
            assert p["fastest"] == min(p["seconds"], key=p["seconds"].get)
            assert p["n_colors"] > 0
            assert set(p["n_colors_by_backend"]) == set(p["seconds"])
            # Parity-neutral backends all report the reference width.
            neutral_widths = {
                w for b, w in p["n_colors_by_backend"].items()
                if b in PARITY_NEUTRAL_BACKENDS
            }
            assert neutral_widths == {p["n_colors"]}

    def test_measured_features_recorded(self, mini_table):
        for p in mini_table["points"]:
            f = p["features"]
            assert f["num_vertices"] == p["params"]["size"]
            assert f["num_edges"] > 0
            assert f["degree_skew"] > 0

    def test_every_default_backend_measured_in_range(self, mini_table):
        for p in mini_table["points"]:
            assert set(p["seconds"]) == set(default_backends())

    def test_microbatch_skipped_above_its_ceiling(self):
        table = run_scenario_sweep(
            sizes=(MICROBATCH_MAX_VERTICES * 2,),
            skews=(0.3,),
            communities=(0.0,),
            densities=(2,),
            backends=("vectorized", "microbatch"),
            repeats=1,
            obs_counters=False,
        )
        (point,) = table["points"]
        assert "microbatch" not in point["seconds"]
        assert "vectorized" in point["seconds"]

    def test_round_trip(self, mini_table, tmp_path):
        path = write_sweep_table(mini_table, tmp_path / "table.json")
        loaded = load_sweep_table(path)
        assert loaded == json.loads(json.dumps(mini_table))

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError, match="not a scenario sweep"):
            load_sweep_table(path)

    def test_load_rejects_wrong_version(self, mini_table, tmp_path):
        doc = dict(mini_table)
        doc["version"] = SWEEP_TABLE_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_sweep_table(path)


class TestSlowRegions:
    def _table(self, costs_ns_per_edge):
        points = []
        for i, cost in enumerate(costs_ns_per_edge):
            edges = 1000
            points.append(
                {
                    "params": {"size": 100 * (i + 1), "skew": 0.3,
                               "community": 0.0, "density": 4, "seed": 0},
                    "features": {"num_edges": edges},
                    "seconds": {"vectorized": cost * 1e-9 * edges},
                    "fastest": "vectorized",
                }
            )
        return {"backends": ["vectorized"], "points": points}

    def test_flags_outliers_descending(self):
        flagged = slow_regions(
            self._table([10, 10, 10, 10, 100, 50]), factor=3.0
        )
        assert [r["slowdown_vs_median"] for r in flagged] == sorted(
            (r["slowdown_vs_median"] for r in flagged), reverse=True
        )
        assert len(flagged) == 2
        assert flagged[0]["params"]["size"] == 500

    def test_quiet_when_uniform(self):
        assert slow_regions(self._table([10, 10, 10, 10]), factor=3.0) == []

    def test_empty_table(self):
        assert slow_regions({"points": []}) == []

    def test_report_mentions_wins_and_regions(self, mini_table):
        text = sweep_report(mini_table)
        assert "4 points" in text
        assert "fastest on" in text
        assert ("slow regions" in text) or ("no slow regions" in text)
