"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("tables", "sparsity", "ablation", "dse", "profile", "demo"):
            args = parser.parse_args(
                [cmd] if cmd != "dse" else [cmd, "--budget", "4"]
            )
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparsity", "--network", "vgg"])


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "private conv" in out
        assert "KiB of traffic" in out

    def test_ablation_runs(self, capsys):
        assert main(["ablation", "--network", "resnet18"]) == 0
        out = capsys.readouterr().out
        assert "flash" in out
        assert "energy reduction vs F1" in out

    def test_dse_small_budget(self, capsys):
        assert main(
            ["dse", "--layer", "41", "--budget", "16", "--n", "1024"]
        ) == 0
        out = capsys.readouterr().out
        assert "power mW" in out

    def test_sparsity_resnet18(self, capsys):
        assert main(["sparsity", "--network", "resnet18"]) == 0
        out = capsys.readouterr().out
        assert "layer1.0.conv1" in out

    def test_profile_runs(self, capsys):
        assert main(["profile", "--network", "resnet18", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "weight_ntt" in out


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = str(tmp_path / "REPORT.md")
        assert main(["report", "--out", out]) == 0
        text = open(out).read()
        assert "# FLASH reproduction report" in text
        assert "Table II" in text
        assert "Table III" in text
        assert "Table IV" in text
        assert "ablation" in text
        assert "Batch amortization" in text

    def test_generate_report_returns_text(self):
        from repro.analysis import generate_report

        text = generate_report(path=None, networks=("resnet18",))
        assert "resnet18" in text
        assert "Table III" not in text  # resnet50-only section skipped


class TestExitCodeConvention:
    """The shared exit-code audit: 0 = success, 1 = gate/verdict failure,
    2 = usage error -- uniformly, across every subcommand."""

    def test_usage_errors_exit_2(self, capsys):
        from repro.cli import EXIT_USAGE

        cases = [
            ["bench-runtime", "--batch", "0"],
            ["bench-runtime", "--workers", "-1"],
            ["serve", "--duration", "0"],
            ["serve", "--duration", "1", "--cluster-workers", "-1"],
            ["loadgen", "--clients", "0"],
            ["loadgen", "--chaos-kill-rate", "0.5"],  # needs cluster workers
            ["chaos", "--iterations", "0"],
            ["chaos", "--max-rate", "2.0"],
            ["bench-check", "--baseline", "/no/such/b.json",
             "--current", "/no/such/c.json"],
            ["lint", "/no/such/path"],
        ]
        for argv in cases:
            assert main(argv) == EXIT_USAGE, argv
            assert capsys.readouterr().err  # reason lands on stderr

    def test_lint_select_conflicts_with_concurrency(self):
        from repro.cli import EXIT_USAGE

        assert main(
            ["lint", "--concurrency", "--select", "RACE001", "src/repro"]
        ) == EXIT_USAGE

    def test_serve_and_loadgen_registered(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--duration", "1"])
        assert args.command == "serve"
        args = parser.parse_args(["loadgen", "--clients", "2"])
        assert args.command == "loadgen"
        with pytest.raises(SystemExit):  # argparse usage errors exit 2 too
            parser.parse_args(["loadgen", "--mode", "warp"])


class TestServeCommands:
    def test_serve_probe_loop_exits_clean(self, capsys, tmp_path):
        out = str(tmp_path / "SERVE.json")
        assert main([
            "serve", "--duration", "0.3", "--probe-interval", "0.1",
            "--json", out,
        ]) == 0
        import json

        stats = json.load(open(out))
        assert stats["accounting"]["unaccounted"] == 0
        text = capsys.readouterr().out
        assert "health: ok" in text
        assert "serve:" in text

    def test_loadgen_writes_report_and_exits_on_verdict(self, tmp_path):
        import json

        out = str(tmp_path / "BENCH_serve.json")
        assert main([
            "loadgen", "--clients", "2", "--requests", "4",
            "--think-ms", "0", "--json", out,
        ]) == 0
        report = json.load(open(out))
        assert report["schema"] == "serve-loadgen/v1"
        assert report["verdict"]["ok"] is True
        assert report["verdict"]["silent_drops"] == 0


class TestBenchCheckServe:
    GATES = {
        "max_p50_ms": 100.0,
        "max_p99_ms": 200.0,
        "max_shed_rate": 0.05,
        "max_breaker_trips": 0,
    }

    def report(self, p99_ms=50.0, ok=True, trips=0, **verdict_overrides):
        verdict = {
            "ok": ok,
            "silent_drops": 0,
            "replay_mismatches": 0,
            "replay_checked": 8,
            "shed_rate": 0.0,
            "breaker_trips": trips,
        }
        verdict.update(verdict_overrides)
        return {
            "schema": "serve-loadgen/v1",
            "params": {"seed": 0, "clients": 2},
            "serve": {"p50_ms": 10.0, "p99_ms": p99_ms},
            "verdict": verdict,
        }

    def write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_check(self, tmp_path, baseline, current):
        return main([
            "bench-check",
            "--baseline", self.write(tmp_path, "baseline.json", baseline),
            "--current", self.write(tmp_path, "current.json", current),
        ])

    def test_within_gates_passes(self, tmp_path):
        baseline = self.report()
        baseline["gates"] = dict(self.GATES)
        assert self.run_check(tmp_path, baseline, self.report()) == 0

    def test_latency_regression_fails(self, tmp_path):
        from repro.cli import EXIT_FAIL

        baseline = self.report()
        baseline["gates"] = dict(self.GATES)
        slow = self.report(p99_ms=500.0)
        assert self.run_check(tmp_path, baseline, slow) == EXIT_FAIL

    def test_breaker_trip_on_clean_run_fails(self, tmp_path):
        from repro.cli import EXIT_FAIL

        baseline = self.report()
        baseline["gates"] = dict(self.GATES)
        tripped = self.report(trips=2)
        assert self.run_check(tmp_path, baseline, tripped) == EXIT_FAIL

    def test_failed_verdict_fails_even_without_gates(self, tmp_path):
        from repro.cli import EXIT_FAIL

        baseline = self.report()
        bad = self.report(ok=False, silent_drops=1)
        assert self.run_check(tmp_path, baseline, bad) == EXIT_FAIL

    def test_params_mismatch_is_a_usage_error(self, tmp_path):
        from repro.cli import EXIT_USAGE

        baseline = self.report()
        current = self.report()
        current["params"]["clients"] = 99
        assert self.run_check(tmp_path, baseline, current) == EXIT_USAGE

    def test_serve_baseline_against_runtime_current_is_usage_error(
        self, tmp_path
    ):
        from repro.cli import EXIT_USAGE

        baseline = self.report()
        current = {"params": baseline["params"], "modes": {}}
        assert self.run_check(tmp_path, baseline, current) == EXIT_USAGE


class TestBenchCheckRuntime:
    """Every runtime/tracing gate of ``bench-check``: one passing and one
    failing trajectory each, with the failing one tripping that gate
    alone."""

    GATES = {
        "max_batched_ms": {"ntt": 5.0, "sparse": 6.0},
        "min_mult_reduction": {"sparse": 0.4},
    }

    def mode(self, batched_ms, realized, dense, reduction):
        return {
            "bit_identical": True,
            "products": 8,
            "batched_ms": batched_ms,
            "weight_mults": {
                "transforms": 2 if dense else 0,
                "realized": realized,
                "dense": dense,
                "model": realized,
                "realized_reduction": reduction,
                "model_reduction": reduction,
            },
            "cluster": {"workers": 2, "dispatches": 2, "recoveries": 0},
        }

    def trajectory(self):
        return {
            "params": {"seed": 0, "batch": 4, "mode": "all"},
            "modes": {
                "ntt": self.mode(2.0, 0, 0, 0.0),
                "sparse": self.mode(2.4, 524, 896, 0.4152),
            },
            "tracing": {
                "bit_identical": True,
                "noop_span_ns": 80.0,
                "disabled_overhead_frac": 0.001,
                "enabled_overhead_frac": 0.02,
            },
        }

    def baseline(self, **gates):
        baseline = self.trajectory()
        baseline["gates"] = dict(self.GATES, **gates)
        return baseline

    def write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_check(self, tmp_path, capsys, baseline, current):
        code = main([
            "bench-check",
            "--baseline", self.write(tmp_path, "baseline.json", baseline),
            "--current", self.write(tmp_path, "current.json", current),
        ])
        lines = capsys.readouterr().out.splitlines()
        fails = {
            line.split("] ", 1)[1].split(":", 1)[0]
            for line in lines if line.startswith("  [FAIL] ")
        }
        oks = {
            line.split("] ", 1)[1].split(":", 1)[0]
            for line in lines if line.startswith("  [ok  ] ")
        }
        return code, fails, oks

    def test_clean_run_passes_every_gate(self, tmp_path, capsys):
        from repro.cli import EXIT_OK

        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), self.trajectory()
        )
        assert code == EXIT_OK
        assert fails == set()
        assert oks == {
            "ntt/bit_identical", "ntt/products",
            "ntt/weight_mults.transforms", "ntt/weight_mults.realized",
            "ntt/weight_mults.dense", "ntt/weight_mults.model",
            "ntt/batched_ms", "ntt/cluster_recoveries",
            "sparse/bit_identical", "sparse/products",
            "sparse/weight_mults.transforms", "sparse/weight_mults.realized",
            "sparse/weight_mults.dense", "sparse/weight_mults.model",
            "sparse/realized_vs_model", "sparse/batched_ms",
            "sparse/min_mult_reduction",
            "sparse/cluster_recoveries",
            "tracing/bit_identical", "tracing/disabled_overhead",
            "tracing/enabled_overhead",
        }

    @pytest.mark.parametrize("gate, tamper", [
        ("sparse/bit_identical",
         lambda t: t["modes"]["sparse"].update(bit_identical=False)),
        ("sparse/products",
         lambda t: t["modes"]["sparse"].update(products=9)),
        ("sparse/weight_mults.transforms",
         lambda t: t["modes"]["sparse"]["weight_mults"].update(transforms=3)),
        ("sparse/weight_mults.realized",
         lambda t: t["modes"]["sparse"]["weight_mults"].update(realized=525)),
        ("sparse/weight_mults.dense",
         lambda t: t["modes"]["sparse"]["weight_mults"].update(dense=897)),
        ("sparse/weight_mults.model",
         lambda t: t["modes"]["sparse"]["weight_mults"].update(model=523)),
        ("ntt/cluster_recoveries",
         lambda t: t["modes"]["ntt"]["cluster"].update(recoveries=1)),
        ("tracing/bit_identical",
         lambda t: t["tracing"].update(bit_identical=False)),
    ])
    def test_exact_gate_fails_alone(self, tmp_path, capsys, gate, tamper):
        from repro.cli import EXIT_FAIL

        current = self.trajectory()
        tamper(current)
        code, fails, _ = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == EXIT_FAIL
        assert fails == {gate}

    @pytest.mark.parametrize("gap, ok", [(0.019, True), (0.021, False)])
    def test_realized_vs_model_tolerance(self, tmp_path, capsys, gap, ok):
        current = self.trajectory()
        current["modes"]["sparse"]["weight_mults"]["realized_reduction"] = (
            0.4152 + gap
        )
        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == (0 if ok else 1)
        assert "sparse/realized_vs_model" in (oks if ok else fails)
        assert fails == (set() if ok else {"sparse/realized_vs_model"})

    @pytest.mark.parametrize("mode, batched_ms, ok", [
        ("ntt", 5.0, True), ("ntt", 5.01, False),
        ("sparse", 5.9, True), ("sparse", 6.1, False),
    ])
    def test_per_mode_batched_ms_ceiling(
        self, tmp_path, capsys, mode, batched_ms, ok
    ):
        current = self.trajectory()
        current["modes"][mode]["batched_ms"] = batched_ms
        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == (0 if ok else 1)
        assert fails == (set() if ok else {f"{mode}/batched_ms"})
        assert f"{mode}/batched_ms" in (oks if ok else fails)

    def test_mode_without_ceiling_is_not_timed(self, tmp_path, capsys):
        baseline = self.baseline(max_batched_ms={"sparse": 6.0})
        current = self.trajectory()
        current["modes"]["ntt"]["batched_ms"] = 1e9
        code, fails, oks = self.run_check(
            tmp_path, capsys, baseline, current
        )
        assert code == 0
        assert "ntt/batched_ms" not in oks | fails

    @pytest.mark.parametrize("reduction, ok", [(0.41, True), (0.39, False)])
    def test_min_mult_reduction(self, tmp_path, capsys, reduction, ok):
        current = self.trajectory()
        current["modes"]["sparse"]["weight_mults"].update(
            realized_reduction=reduction, model_reduction=reduction
        )
        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == (0 if ok else 1)
        assert fails == (set() if ok else {"sparse/min_mult_reduction"})
        assert "sparse/min_mult_reduction" in (oks if ok else fails)

    def test_missing_mode_fails(self, tmp_path, capsys):
        from repro.cli import EXIT_FAIL

        current = self.trajectory()
        del current["modes"]["ntt"]
        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == EXIT_FAIL
        assert fails == {"ntt/present"}
        assert not any(label.startswith("ntt/") for label in oks)

    @pytest.mark.parametrize("key, gate, value, ok", [
        ("disabled_overhead_frac", "tracing/disabled_overhead", 0.029, True),
        ("disabled_overhead_frac", "tracing/disabled_overhead", 0.031, False),
        ("enabled_overhead_frac", "tracing/enabled_overhead", 0.09, True),
        ("enabled_overhead_frac", "tracing/enabled_overhead", 0.11, False),
    ])
    def test_tracing_overhead_ceilings(
        self, tmp_path, capsys, key, gate, value, ok
    ):
        current = self.trajectory()
        current["tracing"][key] = value
        code, fails, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == (0 if ok else 1)
        assert fails == (set() if ok else {gate})
        assert gate in (oks if ok else fails)

    def test_no_tracing_section_skips_tracing_gates(self, tmp_path, capsys):
        current = self.trajectory()
        del current["tracing"]
        code, _, oks = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == 0
        assert not any(label.startswith("tracing/") for label in oks)

    def test_params_mismatch_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        current = self.trajectory()
        current["params"]["batch"] = 99
        code, _, _ = self.run_check(
            tmp_path, capsys, self.baseline(), current
        )
        assert code == EXIT_USAGE
