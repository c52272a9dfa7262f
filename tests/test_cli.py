"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "rmat", "out.npz", "--scale", "8"]
        )
        assert args.kind == "rmat"
        assert args.scale == 8

    def test_color_needs_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color"])

    def test_version_reports_kernel_tiers(self, capsys):
        import repro
        from repro.kernels import capabilities

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert "kernel tiers:" in out
        caps = capabilities()
        for tier in caps["tiers"]:
            assert tier in out
        if caps["native_available"]:
            assert caps["native_backend"]["name"] in out
        else:
            assert "unavailable" in out

    def test_color_accepts_native_backend(self):
        args = build_parser().parse_args(
            ["color", "--dataset", "EF", "--backend", "native"]
        )
        assert args.backend == "native"

    def test_simulate_engine_default(self):
        args = build_parser().parse_args(["simulate", "--dataset", "EF"])
        assert args.engine == "batched"
        assert not hasattr(args, "replay")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--dataset", "EF", "--replay", "python"]
            )


class TestGenerate:
    @pytest.mark.parametrize("kind", ["rmat", "road", "uniform", "community"])
    def test_generate_kinds(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.npz"
        rc = main(["generate", kind, str(out), "--scale", "7", "--seed", "1"])
        assert rc == 0
        assert out.exists()
        assert "vertices" in capsys.readouterr().out


class TestColor:
    def test_color_file(self, tmp_path, capsys):
        graph_path = tmp_path / "g.npz"
        main(["generate", "uniform", str(graph_path), "--scale", "7", "--degree", "6"])
        colors_path = tmp_path / "colors.npy"
        rc = main([
            "color", "--input", str(graph_path),
            "--algorithm", "greedy", "--output", str(colors_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "colors (validated)" in out
        assert np.load(colors_path).min() >= 1

    def test_color_dataset(self, capsys):
        rc = main(["color", "--dataset", "EF", "--algorithm", "bitwise"])
        assert rc == 0
        assert "validated" in capsys.readouterr().out

    def test_color_native_backend_end_to_end(self, capsys):
        # backend="native" silently falls back without a compiler, so
        # this runs (and must succeed) on every host.
        rc = main([
            "color", "--dataset", "EF", "--algorithm", "bitwise",
            "--backend", "native",
        ])
        assert rc == 0
        assert "validated" in capsys.readouterr().out

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["color", "--dataset", "NOPE"])

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["color", "--input", "/does/not/exist.txt"])


class TestSimulate:
    def test_simulate_dataset(self, capsys):
        rc = main(["simulate", "--dataset", "EF", "-p", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "MCV/s" in out

    def test_simulate_with_gantt_and_disable(self, capsys):
        rc = main([
            "simulate", "--dataset", "EF", "-p", "2",
            "--disable", "mgr", "puv", "--gantt", "--cache-kb", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PE 0" in out
        assert "HDC+BWC" in out

    def test_simulate_native_replay_end_to_end(self, capsys):
        # The default engine (the native run, or the event engine without
        # a compiler) prints the event engine's colors, makespan and
        # counters.
        def report(*extra):
            assert main(["simulate", "--dataset", "EF", "-p", "4", *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("config:")]

        default = report()
        assert any(line.startswith("makespan:") for line in default)
        assert default == report("--engine", "event")


class TestServeParser:
    def test_serve_args(self):
        args = build_parser().parse_args([
            "serve", "--socket", "/tmp/x.sock", "--executors", "4",
            "--max-depth", "32", "--no-batching",
        ])
        assert args.socket == "/tmp/x.sock"
        assert args.executors == 4
        assert args.max_depth == 32
        assert args.no_batching is True

    def test_serve_requires_socket(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_source_is_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "submit", "--socket", "/tmp/x.sock",
                "--dataset", "EF", "--status",
            ])

    def test_submit_deltas_defaults(self):
        args = build_parser().parse_args([
            "submit-deltas", "--socket", "/tmp/x.sock", "--dataset", "EF",
        ])
        assert args.batches == 3
        assert args.batch_size == 64
        assert args.algorithm == "bitwise"
        assert args.backend is None
        assert args.verify_every is False

    def test_submit_deltas_source_required_and_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit-deltas", "--socket", "/tmp/x.sock"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "submit-deltas", "--socket", "/tmp/x.sock",
                "--dataset", "EF", "--input", "g.npz",
            ])


@pytest.fixture
def served_socket(tmp_path):
    from repro.obs import Registry
    from repro.service import ColoringService, ServiceConfig
    from repro.service.server import ServiceServer

    svc = ColoringService(ServiceConfig(executors=2, registry=Registry()))
    path = tmp_path / "cli.sock"
    server = ServiceServer(svc, path).run_in_thread()
    yield path
    server.shutdown()
    svc.close(drain=False, timeout=5)


class TestSubmit:
    def test_submit_dataset(self, served_socket, capsys):
        rc = main([
            "submit", "--socket", str(served_socket), "--dataset", "EF",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EF:" in out and "colors via" in out

    def test_submit_graph_file(self, served_socket, tmp_path, capsys):
        graph_path = tmp_path / "g.npz"
        main(["generate", "uniform", str(graph_path), "--scale", "7"])
        capsys.readouterr()
        colors_path = tmp_path / "c.npy"
        rc = main([
            "submit", "--socket", str(served_socket),
            "--input", str(graph_path), "--output", str(colors_path),
        ])
        assert rc == 0
        assert "colors via" in capsys.readouterr().out
        assert np.load(colors_path).min() >= 1

    def test_submit_status(self, served_socket, capsys):
        rc = main(["submit", "--socket", str(served_socket), "--status"])
        assert rc == 0
        assert '"status": "ok"' in capsys.readouterr().out

    def test_submit_needs_a_source(self, served_socket):
        with pytest.raises(SystemExit, match="needs"):
            main(["submit", "--socket", str(served_socket)])


class TestSubmitDeltas:
    def test_dataset_round_trip(self, served_socket, capsys):
        rc = main([
            "submit-deltas", "--socket", str(served_socket),
            "--dataset", "EF", "--batches", "2", "--batch-size", "32",
            "--verify-every",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "session " in out and "vertices" in out
        assert "batch 1/2" in out and "batch 2/2" in out
        assert "verified:" in out and "colors proper" in out
        assert "deltas/s" in out

    def test_graph_file_round_trip(self, served_socket, tmp_path, capsys):
        graph_path = tmp_path / "g.npz"
        main(["generate", "uniform", str(graph_path), "--scale", "7"])
        capsys.readouterr()
        rc = main([
            "submit-deltas", "--socket", str(served_socket),
            "--input", str(graph_path), "--batches", "2",
            "--batch-size", "16",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "verified:" in out


class TestExperiment:
    def test_fig14(self, capsys):
        rc = main(["experiment", "fig14"])
        assert rc == 0
        assert "BRAM" in capsys.readouterr().out

    def test_table3(self, capsys):
        rc = main(["experiment", "table3"])
        assert rc == 0
        assert "ego-Facebook" in capsys.readouterr().out


class TestMemProfilesAndLayouts:
    def test_version_lists_profiles_and_layouts(self, capsys):
        from repro.cli import build_parser
        from repro.hw import mem

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "memory profiles:" in out
        for name in mem.profiles():
            assert name in out
        assert "edge layouts:" in out
        assert "delta-compressed" in out

    def test_simulate_hbm_profile_and_layout(self, capsys):
        rc = main([
            "simulate", "--dataset", "EF", "-p", "4",
            "--mem-profile", "hbm2", "--layout", "delta-compressed",
            "--engine", "batched",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mem=hbm2" in out
        assert "layout=delta-compressed" in out
        assert "makespan" in out

    def test_simulate_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "EF", "--mem-profile", "gddr6"])

    def test_color_hw_profile_and_layout(self, capsys):
        rc = main([
            "color", "--dataset", "EF", "--algorithm", "bitwise",
            "--backend", "hw", "--mem-profile", "hbm2",
            "--layout", "degree-sorted",
        ])
        assert rc == 0
        assert "validated" in capsys.readouterr().out


class TestHbmSweep:
    def test_parser_args(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["hbm-sweep", "--mini", "--channels", "4,8", "--tier", "standin"]
        )
        assert args.mini and args.channels == "4,8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hbm-sweep", "--tier", "huge"])

    def test_mini_sweep_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "hbm.json"
        rc = main([
            "hbm-sweep", "--mini", "--parallelisms", "8",
            "--channels", "4,32", "--out", str(out_path), "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells swept" in out
        assert out_path.exists()
        import json

        doc = json.loads(out_path.read_text())
        assert doc["colors_identical_across_cells"] is True
        assert {e["channels"] for e in doc["entries"]} == {4, 32}

    def test_hbm_smoke_runs_once_under_check(self, monkeypatch, capsys):
        from repro.experiments import hbm_sweep

        calls = []
        real = hbm_sweep.run_hbm_smoke
        monkeypatch.setattr(
            hbm_sweep, "run_hbm_smoke",
            lambda: calls.append(1) or real(),
        )
        rc = main([
            "hbm-sweep", "--mini", "--parallelisms", "8",
            "--channels", "4,32", "--check", "--quiet",
        ])
        assert rc == 0
        assert len(calls) == 1
        assert "floor 15.0%" in capsys.readouterr().out
