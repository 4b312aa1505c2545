"""CLI smoke tests (capsys-based)."""

import pytest

from repro.cli import build_circuit, main


class TestBuildCircuit:
    def test_simple_spec(self):
        nl = build_circuit("ripple_adder:3")
        assert nl.name == "adder3"

    def test_multi_arg_spec(self):
        nl = build_circuit("serial_crc:8,0x07")
        assert nl.name.startswith("crc8")

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            build_circuit("warp_core:4")

    def test_bad_args(self):
        with pytest.raises(SystemExit):
            build_circuit("ripple_adder:1,2,3,4")


class TestCommands:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "VF12" in out and "full download" in out

    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "ripple_adder" in out and "serial_crc" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E19" in out
        assert "non-preemptable FPGA forces FIFO" in out and "§4" in out

    def test_compile_with_verify(self, capsys):
        rc = main(["compile", "parity_tree:4", "--family", "VF8",
                   "--effort", "greedy", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matches the gate-level golden model" in out
        assert "clock" in out

    def test_compile_load_time_is_the_port_price(self, capsys):
        """The printed load time is what the config port charges when
        the simulator loads the bitstream."""
        from repro.analysis import fmt_time
        from repro.cad import compile_netlist
        from repro.device import ConfigPort, get_family

        assert main(["compile", "ripple_adder:4", "--family", "VF10",
                     "--seed", "3"]) == 0
        arch = get_family("VF10")
        bs = compile_netlist(build_circuit("ripple_adder:4"), arch,
                             seed=3).bitstream
        load = fmt_time(ConfigPort(arch).load_time(bs).seconds)
        assert f"load {load}," in capsys.readouterr().out

    def test_compile_has_no_engine_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "ripple_adder:4", "--engine", "vector"])
        assert exc.value.code == 2

    def test_simulate(self, capsys):
        rc = main([
            "simulate", "--family", "VF10",
            "--circuits", "parity_tree:4,counter:3",
            "--policy", "variable", "--tasks", "3", "--ops", "2",
            "--cycles", "20000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "useful FPGA" in out

    def test_trace_chrome(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main([
            "trace", "--family", "VF10",
            "--circuits", "parity_tree:4,counter:3",
            "--policy", "dynamic", "--tasks", "3", "--ops", "2",
            "--cycles", "20000", "-o", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perfetto" in out and "makespan" in out
        import json
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert {"X", "i"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_trace_jsonl_to_stdout(self, capsys):
        rc = main([
            "trace", "--family", "VF10",
            "--circuits", "parity_tree:4",
            "--policy", "dynamic", "--tasks", "2", "--ops", "1",
            "--cycles", "10000", "--format", "jsonl", "-o", "-",
        ])
        assert rc == 0
        import json
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        recs = [json.loads(line) for line in lines]
        assert all("event" in r and "time" in r for r in recs)

    def test_trace_max_events_ring(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main([
            "trace", "--family", "VF10",
            "--circuits", "parity_tree:4,counter:3",
            "--policy", "dynamic", "--tasks", "3", "--ops", "2",
            "--cycles", "20000", "--max-events", "10", "-o", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 10 events" in out and "dropped" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


SMALL_RUN = [
    "--family", "VF10", "--circuits", "parity_tree:4,counter:3",
    "--policy", "dynamic", "--tasks", "3", "--ops", "2",
    "--cycles", "20000",
]


class TestReport:
    def test_live_report_tables(self, capsys):
        assert main(["report", *SMALL_RUN]) == 0
        out = capsys.readouterr().out
        # latency percentiles...
        assert "p50" in out and "p95" in out and "p99" in out
        assert "reconfiguration" in out and "operation (req" in out
        # ...utilization gauges...
        assert "CLB occupancy" in out and "config-port busy" in out
        # ...and the per-task phase breakdown.
        assert "task0" in out and "task2" in out

    def test_json_summary(self, capsys):
        import json
        assert main(["report", *SMALL_RUN, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"latency", "utilization", "spans"}
        assert summary["latency"]["reconfig"]["count"] > 0
        assert summary["latency"]["op"]["p99"] > 0
        assert summary["utilization"]["clb_occupancy_mean"] > 0
        assert summary["spans"]["n_spans"] == 3 * 2

    def test_report_from_recorded_jsonl(self, capsys, tmp_path):
        """Recording then reporting must match reporting live."""
        import json
        events = tmp_path / "events.jsonl"
        assert main(["trace", *SMALL_RUN, "--format", "jsonl",
                     "-o", str(events)]) == 0
        capsys.readouterr()
        assert main(["report", "-i", str(events), "--json"]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert main(["report", *SMALL_RUN, "--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        assert recorded["latency"] == live["latency"]
        assert recorded["spans"] == live["spans"]

    def test_prometheus_and_csv_exports(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        csv_path = tmp_path / "spans.csv"
        assert main(["report", *SMALL_RUN, "--prometheus", str(prom),
                     "--csv", str(csv_path)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_reconfig_latency_seconds histogram" in text
        assert 'repro_reconfig_latency_seconds_bucket{le="+Inf"}' in text
        assert "repro_clb_occupancy_mean" in text
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("task,config,op_id")
        assert len(rows) == 1 + 3 * 2  # header + one row per operation
        err = capsys.readouterr().err
        assert "Prometheus" in err and "span rows" in err

    def test_truncated_stream_warns(self, capsys):
        assert main(["report", *SMALL_RUN, "--max-events", "10"]) == 0
        captured = capsys.readouterr()
        assert "dropped" in captured.err and "partial" in captured.err
        assert "(truncated)" in captured.out


class TestAudit:
    def test_live_audit_clean(self, capsys):
        assert main(["audit", *SMALL_RUN]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out

    def test_pagination_policy_audits_clean(self, capsys):
        """The acceptance case: demand paging under the online monitors."""
        rc = main(["audit", "--policy", "pagination", "--tasks", "2",
                   "--ops", "2", "--cycles", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paged" in out and "no violations" in out

    def test_json_report(self, capsys):
        import json
        assert main(["audit", *SMALL_RUN, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_violations"] == 0
        assert summary["n_events"] > 0

    def test_replay_of_recording_is_clean(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(["trace", *SMALL_RUN, "--format", "jsonl",
                     "-o", str(events)]) == 0
        capsys.readouterr()
        assert main(["audit", "-i", str(events)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_corrupted_recording_fails(self, capsys, tmp_path):
        """Dropping an eviction from the recording makes the next load of
        that area a double allocation: exit code 1 + violation table."""
        events = tmp_path / "events.jsonl"
        assert main(["trace", *SMALL_RUN, "--format", "jsonl",
                     "-o", str(events)]) == 0
        lines = events.read_text().splitlines()
        import json
        kept, dropped = [], 0
        for line in lines:
            if not dropped and json.loads(line)["event"] == "Evict":
                dropped += 1
                continue
            kept.append(line)
        assert dropped == 1
        events.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert main(["audit", "-i", str(events)]) == 1
        out = capsys.readouterr().out
        assert "double-allocation" in out

    def test_strict_live_audit_passes_clean_run(self, capsys):
        assert main(["audit", *SMALL_RUN, "--strict"]) == 0


class TestSlo:
    def test_live_run_within_objective(self, capsys):
        assert main(["slo", *SMALL_RUN, "--slo", "p99<=10"]) == 0
        out = capsys.readouterr().out
        assert "objectives" in out and "ok" in out
        assert "stage decomposition" in out

    def test_breach_exits_nonzero(self, capsys):
        """The acceptance case: a violated objective is a failing exit."""
        assert main(["slo", *SMALL_RUN,
                     "--slo", "tight:p99<=1e-6"]) == 1
        out = capsys.readouterr().out
        assert "BREACHED" in out and "tight" in out
        assert "breach @" in out

    def test_report_only_without_objectives(self, capsys):
        assert main(["slo", *SMALL_RUN]) == 0
        out = capsys.readouterr().out
        assert "stage decomposition" in out
        assert "queue" in out and "reconfig" in out and "service" in out

    def test_json_summary(self, capsys):
        import json
        assert main(["slo", *SMALL_RUN, "--slo", "p99<=10",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"slo", "stages", "utilization"}
        assert doc["slo"]["breached"] is False
        assert doc["stages"]["n_spans"] == 3 * 2
        assert doc["utilization"]["queue_depth_max"] >= 0

    def test_recorded_matches_live(self, capsys, tmp_path):
        """The engine is a pure fold: evaluating the recording prints
        the same verdicts as evaluating the live run."""
        import json
        events = tmp_path / "events.jsonl"
        assert main(["trace", *SMALL_RUN, "--format", "jsonl",
                     "-o", str(events)]) == 0
        capsys.readouterr()
        spec = "gold:p95<=5e-3,availability>=0.999"
        assert main(["slo", "-i", str(events), "--slo", spec,
                     "--json"]) in (0, 1)
        recorded = json.loads(capsys.readouterr().out)
        main(["slo", *SMALL_RUN, "--slo", spec, "--json"])
        live = json.loads(capsys.readouterr().out)
        assert recorded["slo"] == live["slo"]

        def strip_sources(stages):
            # Source labels are minted per process (Svc#1 vs Svc#2 for
            # the second service this test builds); the decomposition
            # itself must be identical.
            return {**stages, "per_source": [
                {k: v for k, v in row.items() if k != "source"}
                for row in stages["per_source"]
            ]}
        assert strip_sources(recorded["stages"]) == \
            strip_sources(live["stages"])

    def test_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["slo", *SMALL_RUN, "--slo", "frobnicate<=1"])

    def test_exports(self, capsys, tmp_path):
        prom = tmp_path / "slo.prom"
        csv_path = tmp_path / "stages.csv"
        assert main(["slo", *SMALL_RUN, "--slo", "p99<=10",
                     "--prometheus", str(prom),
                     "--csv", str(csv_path)]) == 0
        text = prom.read_text()
        assert "repro_queue_depth_max" in text
        assert "repro_slo_error_budget_remaining" in text
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("source,ops")
        assert len(rows) >= 2


class TestBenchDiff:
    def make_bench(self, tmp_path, name, wall, events=1000, makespan=0.5):
        import json
        doc = {
            "experiment": "demo",
            "runs": [{
                "policy": "dynamic", "policy_kw": {},
                "wall_seconds": wall, "makespan": makespan,
                "mean_turnaround": 0.1, "useful_fraction": 0.4,
                "telemetry": {"n_events": events},
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_artifacts_pass(self, capsys, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.0)
        assert main(["bench-diff", a, b]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_25pct_wall_regression_fails(self, capsys, tmp_path):
        """The acceptance case: a synthetic 25% wall-clock regression
        must exit non-zero at the default 20% threshold."""
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.25)
        assert main(["bench-diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "+25.0%" in out

    def test_wall_improvement_passes(self, capsys, tmp_path):
        """Wall-clock gates on growth only — getting faster is fine."""
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=0.5)
        assert main(["bench-diff", a, b]) == 0

    def test_event_count_drift_fails_both_ways(self, tmp_path, capsys):
        """Event counts are deterministic: shrinking is drift too."""
        a = self.make_bench(tmp_path, "a.json", wall=1.0, events=1000)
        b = self.make_bench(tmp_path, "b.json", wall=1.0, events=700)
        assert main(["bench-diff", a, b]) == 1
        assert "telemetry.n_events" in capsys.readouterr().out

    def test_headline_drift_fails_at_zero(self, tmp_path, capsys):
        """Seeded simulation results gate like event counts: a moved
        makespan fails even when every event count is unchanged."""
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.0, makespan=0.49)
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "makespan" in out and "REGRESSED" in out

    def test_fail_on_threshold(self, tmp_path, capsys):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.25)
        assert main(["bench-diff", a, b, "--fail-on", "30"]) == 0

    def test_json_output(self, tmp_path, capsys):
        import json
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.25)
        assert main(["bench-diff", a, b, "--json"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is False
        assert summary["n_regressions"] == 1

    def test_per_metric_override_tolerates_wall_noise(self, tmp_path,
                                                      capsys):
        """--fail-on wall_seconds=300 relaxes only the wall clock; the
        deterministic metrics stay at the global threshold."""
        a = self.make_bench(tmp_path, "a.json", wall=1.0, events=1000)
        b = self.make_bench(tmp_path, "b.json", wall=3.0, events=1000)
        assert main(["bench-diff", a, b,
                     "--fail-on", "wall_seconds=300"]) == 0
        assert "gate >300%" in capsys.readouterr().out
        c = self.make_bench(tmp_path, "c.json", wall=3.0, events=700)
        assert main(["bench-diff", a, c,
                     "--fail-on", "wall_seconds=300"]) == 1
        assert "telemetry.n_events" in capsys.readouterr().out

    def test_override_can_tighten_one_metric(self, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.1)
        assert main(["bench-diff", a, b]) == 0
        assert main(["bench-diff", a, b,
                     "--fail-on", "wall_seconds=5"]) == 1

    def test_global_and_override_combine(self, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        b = self.make_bench(tmp_path, "b.json", wall=1.25)
        assert main(["bench-diff", a, b, "--fail-on", "30",
                     "--fail-on", "wall_seconds=10"]) == 1
        assert main(["bench-diff", a, b, "--fail-on", "10",
                     "--fail-on", "wall_seconds=30"]) == 0

    def test_unknown_override_metric_errors(self, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["bench-diff", a, a, "--fail-on", "bogus.metric=5"])

    def test_unparseable_fail_on_exits(self, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        with pytest.raises(SystemExit):
            main(["bench-diff", a, a, "--fail-on", "not-a-number"])

    def test_missing_file_errors(self, tmp_path):
        a = self.make_bench(tmp_path, "a.json", wall=1.0)
        with pytest.raises(SystemExit):
            main(["bench-diff", a, str(tmp_path / "nope.json")])

    def make_compile_bench(self, tmp_path, name, place, sa_steps=20):
        import json
        doc = {
            "experiment": "demo",
            "runs": [{
                "policy": "compile:adder4", "policy_kw": {},
                "wall_seconds": 0.05,
                "compile": {
                    "total_seconds": 0.05,
                    "phase_seconds": {"place": place, "route": 0.01},
                    "peak_rrg_nodes": 400, "sa_steps": sa_steps,
                    "final_cost": 60.0, "route_iterations": 2,
                    "final_overuse": 0,
                },
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compile_phase_growth_fails(self, capsys, tmp_path):
        a = self.make_compile_bench(tmp_path, "a.json", place=0.020)
        b = self.make_compile_bench(tmp_path, "b.json", place=0.030)
        assert main(["bench-diff", a, b]) == 1
        assert "compile.phase_seconds.place" in capsys.readouterr().out

    def test_compile_wall_floor_never_gates_tiny_phases(self, capsys,
                                                        tmp_path):
        """A 70 µs phase tripling is timer noise, not a regression —
        growth gates on compile wall clocks only fire above the floor."""
        a = self.make_compile_bench(tmp_path, "a.json", place=70e-6)
        b = self.make_compile_bench(tmp_path, "b.json", place=210e-6)
        assert main(["bench-diff", a, b]) == 0
        assert "below gate floor" in capsys.readouterr().out

    def test_compile_convergence_drift_fails(self, capsys, tmp_path):
        """SA step counts are deterministic: drifting means the flow
        changed, whichever direction."""
        a = self.make_compile_bench(tmp_path, "a.json", place=0.02,
                                    sa_steps=20)
        b = self.make_compile_bench(tmp_path, "b.json", place=0.02,
                                    sa_steps=10)
        assert main(["bench-diff", a, b]) == 1
        assert "compile.sa_steps" in capsys.readouterr().out

    def make_e13d_bench(self, tmp_path, name, speedup, warm=0.002):
        import json
        doc = {
            "experiment": "demo",
            "runs": [{
                "policy": "e13d:fir8x4", "policy_kw": {},
                "e13d": {
                    "cold_seconds": 1.2, "warm_seconds": warm,
                    "warm_reduction": round(1 - warm / 1.2, 4),
                    "sa_speedup": speedup,
                },
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_speedup_erosion_fails_shrink_gate(self, capsys, tmp_path):
        """Won metrics gate on *shrink*: losing the vectorization win
        past the threshold fails, even though nothing grew."""
        a = self.make_e13d_bench(tmp_path, "a.json", speedup=2.0)
        b = self.make_e13d_bench(tmp_path, "b.json", speedup=1.2)
        assert main(["bench-diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "e13d.sa_speedup" in out and "REGRESSED" in out

    def test_speedup_improvement_passes_shrink_gate(self, tmp_path):
        """Shrink gates are one-sided: winning harder is always fine."""
        a = self.make_e13d_bench(tmp_path, "a.json", speedup=2.0)
        b = self.make_e13d_bench(tmp_path, "b.json", speedup=3.5)
        assert main(["bench-diff", a, b]) == 0

    def test_warm_seconds_below_floor_never_gates(self, capsys, tmp_path):
        """A warm compile is a ~2 ms dictionary lookup; its growth gate
        sits under the compile wall floor like any tiny phase."""
        a = self.make_e13d_bench(tmp_path, "a.json", speedup=2.0,
                                 warm=0.0004)
        b = self.make_e13d_bench(tmp_path, "b.json", speedup=2.0,
                                 warm=0.0009)
        assert main(["bench-diff", a, b]) == 0
        assert "below gate floor" in capsys.readouterr().out

    def make_scrub_bench(self, tmp_path, name, repairs):
        import json
        doc = {
            "experiment": "e19_scrubbing",
            "runs": [{
                "policy": "scrub:period_ms=2",
                "scrub": {
                    "upsets_on_circuits": 58, "repairs": repairs,
                    "mean_exposure_ms": 10.37, "scrub_overhead": 0.647,
                },
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scrub_outputs_gate_exactly_at_zero(self, capsys, tmp_path):
        """E19's scrub rows are deterministic and gated at 0%: identical
        artifacts pass, a single extra repair fails."""
        a = self.make_scrub_bench(tmp_path, "a.json", repairs=48)
        b = self.make_scrub_bench(tmp_path, "b.json", repairs=48)
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 0
        capsys.readouterr()
        c = self.make_scrub_bench(tmp_path, "c.json", repairs=49)
        assert main(["bench-diff", a, c, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "scrub.repairs" in out and "REGRESSED" in out

    def make_alloc_bench(self, tmp_path, name, failures):
        import json
        doc = {
            "experiment": "e16_fit_policies",
            "runs": [{
                "policy": "fit:first",
                "alloc": {"failures": failures, "fail_rate": 0.1067,
                          "mean_fragmentation": 0.7281},
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_alloc_outputs_gate_exactly_at_zero(self, capsys, tmp_path):
        """E16's fit-rule rows are seeded and gated at 0%: identical
        artifacts pass, a single extra allocation failure fails."""
        a = self.make_alloc_bench(tmp_path, "a.json", failures=1764)
        b = self.make_alloc_bench(tmp_path, "b.json", failures=1764)
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 0
        capsys.readouterr()
        c = self.make_alloc_bench(tmp_path, "c.json", failures=1765)
        assert main(["bench-diff", a, c, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "alloc.failures" in out and "REGRESSED" in out

    def make_mux_bench(self, tmp_path, name, factor):
        import json
        doc = {
            "experiment": "e9_io_mux",
            "runs": [{
                "policy": "mux", "policy_kw": {"ratio": 2.0},
                "mux": {"factor": factor, "transfer_ms": 5.0,
                        "per_pin_bw": 0.5},
            }],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_static_model_outputs_gate_exactly_at_zero(self, capsys,
                                                       tmp_path):
        """E9's pin-multiplexing rows (and E15's delay rows) are pure
        model outputs gated at 0%: identical rows pass, a moved
        ``mux.factor`` fails."""
        a = self.make_mux_bench(tmp_path, "a.json", factor=2.0)
        b = self.make_mux_bench(tmp_path, "b.json", factor=2.0)
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 0
        capsys.readouterr()
        c = self.make_mux_bench(tmp_path, "c.json", factor=2.5)
        assert main(["bench-diff", a, c, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "mux.factor" in out and "REGRESSED" in out

    def write_runs(self, tmp_path, name, runs, experiment="e3_nonpreemptable"):
        import json
        path = tmp_path / name
        path.write_text(json.dumps({"experiment": experiment, "runs": runs}))
        return str(path)

    def e3_run(self, policy, makespan=0.129584):
        return {"policy": policy, "policy_kw": {}, "makespan": makespan,
                "telemetry": {"n_events": 75}}

    def test_dropped_run_fails(self, capsys, tmp_path):
        """Removing an experiment arm must not silently stop gating it."""
        a = self.write_runs(tmp_path, "a.json", [
            self.e3_run("nonpreemptable"), self.e3_run("dynamic")])
        b = self.write_runs(tmp_path, "b.json", [
            self.e3_run("nonpreemptable")])
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "run count" in out and "REGRESSED" in out

    def test_renamed_run_fails(self, capsys, tmp_path):
        a = self.write_runs(tmp_path, "a.json", [
            self.e3_run("nonpreemptable"), self.e3_run("dynamic")])
        b = self.write_runs(tmp_path, "b.json", [
            self.e3_run("nonpreemptable"), self.e3_run("variable")])
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        assert "run label" in out and "REGRESSED" in out

    def test_regression_names_the_claim(self, capsys, tmp_path):
        """The diff names the experiment, its claim and its paper
        section, in the title and in the regression line."""
        a = self.write_runs(tmp_path, "a.json", [self.e3_run("dynamic")])
        b = self.write_runs(tmp_path, "b.json", [
            self.e3_run("dynamic", makespan=0.13)])
        assert main(["bench-diff", a, b, "--fail-on", "0"]) == 1
        out = capsys.readouterr().out
        claim = "E3 (§4): non-preemptable FPGA forces FIFO"
        assert out.splitlines()[0].count(claim) == 1
        assert f"the claim that moved is {claim}" in out


class TestCompileReport:
    def test_live_report(self, capsys):
        rc = main(["compile-report", "ripple_adder:4", "--family", "VF10",
                   "--effort", "sa", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compiled ripple_adder:4" in out
        assert "per-phase wall clock" in out
        assert "SA cost curve" in out
        assert "PathFinder convergence" in out

    def test_requires_circuit_or_input(self):
        with pytest.raises(SystemExit):
            main(["compile-report"])

    def test_live_vs_recorded_parity(self, capsys, tmp_path):
        """The profile is a pure function of the event stream: reducing
        a recorded JSONL must print byte-identical --json output."""
        jsonl = str(tmp_path / "cad.jsonl")
        assert main(["compile-report", "alu:3", "--family", "VF10",
                     "--effort", "sa", "--seed", "3",
                     "--jsonl", jsonl, "--json"]) == 0
        live = capsys.readouterr().out
        live_profile = live[live.index("{"):]
        assert main(["compile-report", "-i", jsonl, "--json"]) == 0
        recorded = capsys.readouterr().out
        assert recorded[recorded.index("{"):] == live_profile

    def test_trace_export_is_valid_json(self, tmp_path):
        import json
        trace = str(tmp_path / "cad-trace.json")
        assert main(["compile-report", "counter:3", "--family", "VF10",
                     "--effort", "greedy", "--trace", trace]) == 0
        doc = json.load(open(trace))
        names = {ev.get("name") for ev in doc["traceEvents"]}
        assert any(n and n.startswith("CadPhaseEnd") for n in names)

    def test_failed_compile_reports_partial_profile(self, capsys):
        """A compile that cannot fit exits 1 but still shows the phases
        that ran — the whole point of instrumenting failures."""
        rc = main(["compile-report", "alu:6", "--family", "VF4",
                   "--effort", "greedy", "--seed", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "per-phase wall clock" in captured.out
        assert "compile failed" in captured.err
        # techmap and pack ran; placement is where it died.
        assert "techmap" in captured.out

    def test_compile_cache_summary(self, capsys):
        """--compile-cache compiles cold+warm through one cache and the
        report shows a flow hit with bytes served."""
        rc = main(["compile-report", "ripple_adder:4", "--family", "VF10",
                   "--seed", "3", "--compile-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compile cache" in out
        assert "1 flow hits" in out
        assert "bytes served" in out
        # The cache table has one row: the cold run's one flow miss and
        # the warm run's flow hit.
        rows = [[cell.strip() for cell in line.split("|")]
                for line in out.splitlines() if "|" in line]
        cache_rows = rows[rows.index(["stage", "hits", "misses",
                                      "bytes_served"]) + 1:]
        assert [row[:3] for row in cache_rows] == [["flow", "1", "1"]]

    def test_no_cache_flag_means_no_cache_table(self, capsys):
        assert main(["compile-report", "ripple_adder:4", "--family",
                     "VF10", "--seed", "3"]) == 0
        assert "compile cache" not in capsys.readouterr().out
