"""Loadgen campaigns: verdict accounting, flood shedding, chaos recovery.

These are small end-to-end campaigns against an in-process server; each
one asserts the loadgen's own verdict machinery (no silent drops,
bit-identical serial replay) on top of scenario-specific behaviour.
"""

import numpy as np
import pytest

from repro.serve import LoadgenConfig, run_loadgen


def small_config(**overrides):
    defaults = dict(
        seed=0,
        clients=2,
        requests_per_client=6,
        tenants=2,
        mode="sparse",
        n=64,
        size=4,
        think_ms=0.5,
        slo_ms=2000.0,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(clients=0)
        with pytest.raises(ValueError):
            LoadgenConfig(slow_client_rate=1.5)
        with pytest.raises(ValueError):
            # Worker SIGKILL chaos needs workers to kill.
            LoadgenConfig(chaos_kill_rate=0.5, cluster_workers=0)

    def test_tenant_rate_must_be_positive(self):
        # Polite clients pace themselves from it.
        with pytest.raises(ValueError):
            LoadgenConfig(tenant_rate=0.0)


class TestCleanRun:
    def test_verdict_ok_and_books_balance(self):
        report = run_loadgen(small_config())
        verdict = report["verdict"]
        assert verdict["ok"]
        assert verdict["sent"] == 12
        assert verdict["replies"] == verdict["sent"]
        assert verdict["silent_drops"] == 0
        assert verdict["replay_mismatches"] == 0
        assert verdict["replay_checked"] == verdict["completed"] > 0
        assert verdict["breaker_trips"] == 0
        assert report["serve"]["accounting"]["unaccounted"] == 0
        assert report["schema"] == "serve-loadgen/v1"

    def test_campaigns_are_seeded(self):
        # Same seed, same request tensors: replay counts line up exactly
        # across two runs (timings differ, the workload does not).
        a = run_loadgen(small_config(seed=7))
        b = run_loadgen(small_config(seed=7))
        assert a["verdict"]["sent"] == b["verdict"]["sent"]
        assert a["params"] == b["params"]

    def test_polite_clients_keep_to_their_tenant_rate(self):
        # Two zero-think clients on one tenant would outrun a 200/s
        # bucket by far against a millisecond server; paced to 100/s
        # each, they are never shed however fast the server answers.
        report = run_loadgen(small_config(
            clients=2,
            tenants=1,
            requests_per_client=20,
            think_ms=0.0,
            tenant_rate=200.0,
            tenant_burst=4,
        ))
        verdict = report["verdict"]
        assert verdict["ok"]
        assert verdict["completed"] == verdict["sent"] == 40
        assert verdict["shed"] == 0
        # 19 gaps of 2 / 200 s each per client.
        assert verdict["elapsed_s"] >= 19 * 2 / 200.0

    def test_report_params_round_trip_config(self):
        config = small_config(mode="ntt")
        report = run_loadgen(config)
        assert report["params"]["mode"] == "ntt"
        assert report["params"]["requests_per_client"] == 6


class TestFlood:
    def test_flood_tenant_is_rate_shed_without_starving_polite(self):
        report = run_loadgen(small_config(
            clients=2,
            requests_per_client=8,
            flood_clients=2,
            tenant_rate=25.0,
            tenant_burst=4,
        ))
        verdict = report["verdict"]
        serve = report["serve"]
        assert verdict["ok"]  # sheds are explicit, never a failure
        assert verdict["silent_drops"] == 0
        assert serve["shed"]["rate"] > 0
        flood = serve["per_tenant"]["flood"]
        assert flood["shed"] > 0
        # Every polite tenant still completed work during the flood.
        for name, row in serve["per_tenant"].items():
            if name != "flood":
                assert row["completed"] > 0


class TestSlowClients:
    def test_stale_deadlines_terminate_explicitly(self):
        report = run_loadgen(small_config(
            requests_per_client=8,
            slow_client_rate=0.5,
            slo_ms=150.0,
            think_ms=0.0,
        ))
        verdict = report["verdict"]
        serve = report["serve"]
        assert verdict["silent_drops"] == 0
        assert verdict["replay_mismatches"] == 0
        # Every request ends in exactly one named terminal reply: slow
        # clients' stale arrivals become infeasible sheds or deadline
        # notices, never silence.
        assert verdict["replies"] == verdict["sent"]
        assert (
            verdict["completed"] + verdict["shed"]
            + verdict["deadline"] + verdict["errors"]
        ) == verdict["replies"]
        assert serve["accounting"]["unaccounted"] == 0


class TestChaos:
    def test_worker_sigkill_chaos_trips_and_recovers(self):
        # The acceptance scenario: tenant flood + mid-request worker
        # SIGKILLs against a real 2-process cluster.  Zero silent drops,
        # bit-identical replay of every completed result, and the breaker
        # must both trip and recover with transitions in the stats.
        report = run_loadgen(LoadgenConfig(
            seed=3,
            clients=4,
            requests_per_client=20,
            tenants=2,
            mode="sparse",
            n=64,
            size=4,
            think_ms=1.0,
            slo_ms=2000.0,
            flood_clients=2,
            slow_client_rate=0.1,
            chaos_kill_rate=0.35,
            cluster_workers=2,
            tenant_rate=60.0,
            tenant_burst=8,
            breaker_failures=2,
            breaker_recovery_s=0.2,
        ))
        verdict = report["verdict"]
        serve = report["serve"]
        assert verdict["silent_drops"] == 0
        assert verdict["replay_mismatches"] == 0
        assert verdict["completed"] > 0
        assert verdict["chaos_requested"]
        assert verdict["chaos_ok"]
        assert verdict["breaker_trips"] >= 1
        assert verdict["breaker_recoveries"] >= 1
        transitions = serve["breaker"]["transitions"]
        assert any(t["to"] == "open" for t in transitions)
        assert any(t["to"] == "closed" for t in transitions)
        assert serve["cluster_recoveries"] >= 1
        assert serve["accounting"]["unaccounted"] == 0
        assert verdict["ok"]


class TestReplayOracle:
    def test_external_server_path(self):
        # run_loadgen accepts a caller-owned server (and must not close it).
        from repro.serve import InferenceServer, ServeConfig

        server = InferenceServer(ServeConfig())
        try:
            report = run_loadgen(
                small_config(clients=1, requests_per_client=2), server=server
            )
            assert report["verdict"]["ok"]
            assert server.ready()  # still alive: the campaign did not close it
        finally:
            server.close()

    def test_replay_detects_a_corrupted_result(self):
        # The verdict's replay stage is itself load-bearing: a record with
        # a wrong output tensor must be counted and must fail the verdict.
        from repro.cluster.jobs import config_to_wire, shape_to_wire
        from repro.serve import InferenceServer, ServeConfig
        from repro.serve.loadgen import _ClientTally, _conv_shape, _verdict
        from repro.serve.messages import REP_RESULT

        config = small_config(clients=1, requests_per_client=1, mode="ntt")
        server = InferenceServer(ServeConfig())
        try:
            rng = np.random.default_rng(0)
            w = rng.integers(-8, 8, size=(1, 1, 3, 3))
            tally = _ClientTally(sent=1)
            tally.records.append({
                "tenant": "t",
                "reply": REP_RESULT,
                "x": rng.integers(-8, 8, size=(1, 4, 4)),
                "body": {
                    "mode": "ntt",
                    "out": np.full((1, 4, 4), 12345, dtype=np.int64),
                },
            })
            report = _verdict(
                config, server, [tally],
                server.stats.accounting(in_flight=0), 0.0,
                config_to_wire(None), shape_to_wire(_conv_shape(config)),
                w, lambda *_args: None,
            )
        finally:
            server.close()
        assert report["verdict"]["replay_mismatches"] == 1
        assert not report["verdict"]["ok"]
