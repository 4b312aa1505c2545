"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the whole stack without writing Python:

* ``families``    — the device catalog with derived limits;
* ``circuits``    — the available circuit generators;
* ``compile``     — run a generator through the CAD flow and report
  region/timing/wirelength (optionally functionally verify);
* ``simulate``    — run a multitasking workload under a chosen VFPGA
  policy and print the run statistics;
* ``trace``       — the same run, but export the full telemetry event
  stream (Chrome ``trace_event`` JSON for Perfetto, or JSONL);
* ``report``      — latency percentiles (p50/p95/p99), utilization
  gauges (CLB occupancy, config-port busy) and the per-task phase
  breakdown of a run — live, or aggregated from a recorded JSONL
  stream; optionally exported as Prometheus text / per-span CSV;
* ``audit``       — run the online invariant monitors
  (:class:`repro.telemetry.Auditor`) over a live workload or a recorded
  JSONL stream and print the violation report (exit 1 on any
  error-severity violation);
* ``slo``         — evaluate declarative per-source service-level
  objectives (latency percentile, deadline-miss rate, availability)
  with error budgets, plus the queue / reconfig / service stage
  decomposition of every operation — live or from a recorded JSONL
  stream (exit 1 on any breached objective);
* ``bench-diff``  — compare two ``BENCH_*.json`` benchmark artifacts
  run by run and fail on wall-clock / event-count regressions past a
  threshold (global or per-metric);
* ``experiments`` — the experiment index (E1–E20) with the command that
  regenerates each table.

Examples
--------
::

    python -m repro families
    python -m repro compile ripple_adder:4 --family VF10 --verify
    python -m repro simulate --family VF12 --policy variable \
        --circuits ripple_adder:4,counter:4 --tasks 6 --ops 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import fmt_pct, fmt_time, format_table
from .netlist import CIRCUIT_GENERATORS

__all__ = ["main", "build_circuit"]


def build_circuit(spec: str):
    """``name:arg,arg,...`` → generated netlist (ints parsed, 0x ok)."""
    name, _, argstr = spec.partition(":")
    if name not in CIRCUIT_GENERATORS:
        raise SystemExit(
            f"unknown circuit {name!r}; available: "
            + ", ".join(sorted(CIRCUIT_GENERATORS))
        )
    args = []
    if argstr:
        for a in argstr.split(","):
            args.append(int(a, 0))
    try:
        return CIRCUIT_GENERATORS[name](*args)
    except TypeError as exc:
        raise SystemExit(f"bad arguments for {name}: {exc}") from None


def cmd_families(_args) -> int:
    from .device import FAMILIES

    rows = []
    for fam in FAMILIES.values():
        rows.append({
            "name": fam.name,
            "CLBs": f"{fam.width}x{fam.height}",
            "pins": fam.n_pins,
            "gates~": fam.equivalent_gates,
            "config bits": fam.total_config_bits,
            "full download": fmt_time(fam.full_config_time),
            "partial": "yes" if fam.supports_partial else "no",
        })
    print(format_table(rows, title="device catalog"))
    return 0


def cmd_circuits(_args) -> int:
    import inspect

    rows = []
    for name, fn in sorted(CIRCUIT_GENERATORS.items()):
        sig = str(inspect.signature(fn))
        doc = (inspect.getdoc(fn) or "").splitlines()[0]
        rows.append({"generator": name, "args": sig, "summary": doc[:64]})
    print(format_table(rows, title="circuit generators (spec: name:arg,arg)"))
    return 0


def _compile_kwargs(args) -> dict:
    """``compile_netlist`` options from the shared compile arguments."""
    return {
        "mode": "dedicated" if args.dedicated else "relocatable",
        "seed": args.seed,
        "effort": args.effort,
        "shape": args.shape,
    }


def cmd_compile(args) -> int:
    from .cad import compile_netlist, verify_bitstream
    from .device import ConfigPort, get_family
    from .netlist import netlist_stats

    arch = get_family(args.family)
    nl = build_circuit(args.circuit)
    st = netlist_stats(nl)
    print(f"source: {st}")
    res = compile_netlist(nl, arch, **_compile_kwargs(args))
    bs = res.bitstream
    print(f"target: {arch.name}  region {bs.region}  "
          f"{res.design.n_clbs} CLBs used")
    print(f"timing: clock {fmt_time(res.critical_path)} "
          f"({res.timing.fmax / 1e6:.1f} MHz, {res.timing.critical_kind})")
    print(f"routing: {res.n_nets} nets, wirelength {res.wirelength}")
    print(f"config: {len(bs.frames_touched(arch))} frames, "
          f"load {fmt_time(ConfigPort(arch).load_time(bs).seconds)}"
          f", {bs.n_state_bits} state bits")
    if args.verify:
        verify_bitstream(nl, bs, arch)
        print("verify: device simulation matches the gate-level golden model")
    return 0


def cmd_compile_report(args) -> int:
    """Per-phase wall-clock, SA cost curve, PathFinder convergence and
    compile-cache summary of one compile — live (instrumented flow) or
    from a recorded JSONL stream of CAD events."""
    import json

    from .cad import (
        CadInstrumentation,
        CompileCache,
        CompileError,
        CompileProfile,
        PlacementError,
        RoutingError,
        compile_netlist,
    )
    from .telemetry import read_jsonl, to_chrome_trace, to_jsonl

    failure: Optional[Exception] = None
    if args.input is not None:
        # Reduce a recorded stream exactly as if it were live: the
        # profile is a pure function of the events.
        events = read_jsonl(args.input)
        profile = CompileProfile.from_events(events)
        title = f"compile profile of {args.input}"
    else:
        if args.circuit is None:
            raise SystemExit(
                "compile-report: give a circuit spec or -i EVENTS.jsonl"
            )
        from .device import get_family

        arch = get_family(args.family)
        nl = build_circuit(args.circuit)
        instr = CadInstrumentation()
        cache = CompileCache() if args.compile_cache else None
        kwargs = _compile_kwargs(args)
        try:
            res = compile_netlist(nl, arch, instrument=instr, cache=cache,
                                  **kwargs)
            if cache is not None:
                # Cold + warm through one cache in one event stream: the
                # phase table shows the cold compile, the cache table the
                # warm flow hit.
                res = compile_netlist(nl, arch, instrument=instr,
                                      cache=cache, **kwargs)
        except (CompileError, PlacementError, RoutingError) as exc:
            # The phases that did run are exactly what one wants to see
            # when a compile fails — report them, then exit nonzero.
            failure = exc
            res = None
        events = instr.events
        profile = instr.profile()
        title = f"{args.circuit}@{args.family} " \
                f"(effort={args.effort}, seed={args.seed})"
        if res is not None:
            bs = res.bitstream
            print(f"compiled {args.circuit} for {arch.name}: region "
                  f"{bs.region}, clock {fmt_time(res.critical_path)}, "
                  f"wirelength {res.wirelength}")
    if args.jsonl:
        to_jsonl(events, args.jsonl)
        print(f"wrote {len(events)} CAD events to {args.jsonl}",
              file=sys.stderr)
    if args.trace:
        to_chrome_trace(events, args.trace, run_name=title)
        print(f"wrote Chrome trace to {args.trace} "
              f"(open in https://ui.perfetto.dev)", file=sys.stderr)
    if args.json:
        print(json.dumps(profile.as_dict(), indent=2, sort_keys=True))
    else:
        print(profile.render(title))
    if failure is not None:
        print(f"compile failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _make_scheduler(args):
    """The CPU scheduling engine selected by ``--cpu-sched``."""
    from .osim import make_cpu_scheduler

    return make_cpu_scheduler(args.cpu_sched)


def _build_workload(args):
    """Shared setup of ``simulate``/``trace``: facade, tasks, policy kwargs."""
    from .core import VirtualFpga, make_paged_circuit
    from .osim import uniform_workload

    if args.policy == "pagination":  # friendly alias for the paper's term
        args.policy = "paged"
    vf = VirtualFpga(args.family)
    for spec in args.circuits.split(","):
        vf.add_circuit(build_circuit(spec), seed=args.seed,
                       effort=args.effort, state_accessible=True)
    policy_kw = {"load_mode": args.load_mode}
    task_circuits = vf.circuits
    if args.policy in ("fixed", "variable", "overlay", "paged"):
        # The pluggable victim-selection engine (seeded for "random").
        policy_kw["replacement"] = args.replacement
        policy_kw["replacement_seed"] = args.seed
    if args.policy == "fixed":
        policy_kw["n_partitions"] = args.partitions
    if args.policy == "variable":
        policy_kw["gc"] = args.gc
        policy_kw["layout"] = args.layout
        if args.placement is not None:
            policy_kw["placement"] = args.placement
    if args.policy == "overlay":
        policy_kw["resident_names"] = vf.circuits[:1]
    if args.policy == "multi":
        policy_kw["n_devices"] = args.devices
        policy_kw["dispatch"] = args.board_dispatch
    if args.policy == "dynamic":
        # The fabric scheduling engine (priced preemption) only has
        # decisions to make when the fabric is time-sliced.
        policy_kw["fabric_sched"] = args.fabric_sched
        if args.fpga_slice_ms is not None:
            policy_kw["fpga_time_slice"] = args.fpga_slice_ms * 1e-3
    if args.policy == "paged":
        # Demand paging runs one synthetic virtual circuit wider than the
        # device; every task pages through it (see experiment E8).
        circ = make_paged_circuit(
            vf.registry, "virt", n_pages=args.pages,
            page_width=args.page_width, pattern="zipf", seed=args.seed,
        )
        policy_kw["circuits"] = [circ]
        policy_kw["frame_width"] = args.page_width
        task_circuits = ["virt"]
    tasks = uniform_workload(
        task_circuits, n_tasks=args.tasks, ops_per_task=args.ops,
        cpu_burst=args.cpu_ms * 1e-3, cycles=args.cycles, seed=args.seed,
    )
    return vf, tasks, policy_kw


def cmd_simulate(args) -> int:
    vf, tasks, policy_kw = _build_workload(args)
    stats = vf.simulate(tasks, policy=args.policy,
                        scheduler=_make_scheduler(args), **policy_kw)
    m = vf.last_service.metrics
    print(format_table([{
        "policy": args.policy,
        "tasks": stats.n_tasks,
        "makespan": fmt_time(stats.makespan),
        "mean turnaround": fmt_time(stats.mean_turnaround),
        "reconfigs": m.n_loads,
        "hit rate": fmt_pct(m.hit_rate),
        "useful FPGA": fmt_pct(stats.useful_fraction),
    }], title=f"{args.tasks} tasks on {args.family}"))
    return 0


def _warn_dropped(dropped: int, bound_name: str, bound: int,
                  what: str) -> None:
    """Stderr warning when a ring-buffer bound truncated the stream —
    exported artifacts must never be silently partial."""
    if dropped:
        print(f"warning: {dropped} events were dropped by the "
              f"{bound_name}={bound} ring buffer; {what} is partial",
              file=sys.stderr)


def cmd_trace(args) -> int:
    from .telemetry import (
        EventBus,
        EventLog,
        Profiler,
        to_chrome_trace,
        to_jsonl,
    )

    vf, tasks, policy_kw = _build_workload(args)
    bus = EventBus()
    log = EventLog(bus, max_events=args.max_events)
    profiler = Profiler(bus)
    stats = vf.simulate(tasks, policy=args.policy, bus=bus,
                        scheduler=_make_scheduler(args),
                        telemetry_steps=args.steps, **policy_kw)
    run_name = f"{args.policy}@{args.family}"
    if args.output == "-":
        import io

        buf = io.StringIO()
        if args.format == "chrome":
            to_chrome_trace(log.events, buf, run_name=run_name)
        else:
            to_jsonl(log.events, buf)
        print(buf.getvalue(), end="")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            if args.format == "chrome":
                to_chrome_trace(log.events, fh, run_name=run_name)
            else:
                to_jsonl(log.events, fh)
        summary = profiler.summary()
        dropped = f" ({log.dropped} dropped)" if log.dropped else ""
        print(f"wrote {len(log.events)} events{dropped} to {args.output} "
              f"({args.format}); makespan {fmt_time(stats.makespan)}, "
              f"{summary['n_events']} events published")
        if args.format == "chrome":
            print("open in https://ui.perfetto.dev or chrome://tracing")
    _warn_dropped(log.dropped, "--max-events", args.max_events or 0,
                  "the exported stream")
    return 0


def cmd_report(args) -> int:
    from .telemetry import (
        EventBus,
        EventLog,
        MetricsAggregator,
        SpanBuilder,
        aggregate_events,
        build_spans,
        read_jsonl,
        render_report,
        run_summary,
        spans_to_csv,
        to_prometheus,
    )

    if args.input is not None:
        # Aggregate a recorded stream exactly as if it were live.
        events = read_jsonl(args.input)
        agg = aggregate_events(events)
        spans = build_spans(events)
        title = f"report of {args.input}"
    elif args.max_events is not None:
        # Bounded recording: aggregate whatever the ring retained, and
        # say loudly that the numbers cover a truncated stream.
        vf, tasks, policy_kw = _build_workload(args)
        bus = EventBus()
        log = EventLog(bus, max_events=args.max_events)
        vf.simulate(tasks, policy=args.policy, bus=bus,
                    scheduler=_make_scheduler(args), **policy_kw)
        _warn_dropped(log.dropped, "--max-events", args.max_events,
                      "the report")
        agg = aggregate_events(log.events, clb_capacity=vf.arch.n_clbs)
        spans = build_spans(log.events)
        title = f"{args.policy}@{args.family} (truncated)" \
            if log.dropped else f"{args.policy}@{args.family}"
    else:
        # Live streaming aggregation: O(1) memory, no event retention.
        vf, tasks, policy_kw = _build_workload(args)
        bus = EventBus()
        agg = MetricsAggregator(bus, clb_capacity=vf.arch.n_clbs)
        spans = SpanBuilder(bus)
        vf.simulate(tasks, policy=args.policy, bus=bus,
                    scheduler=_make_scheduler(args), **policy_kw)
        title = f"{args.policy}@{args.family}"

    if args.json:
        import json

        print(json.dumps(run_summary(agg, spans), indent=2, sort_keys=True))
    else:
        print(render_report(agg, spans, title=title))
    if args.prometheus:
        to_prometheus(agg, args.prometheus)
        print(f"wrote Prometheus metrics to {args.prometheus}",
              file=sys.stderr)
    if args.csv:
        spans_to_csv(spans, args.csv)
        print(f"wrote {len(spans.spans)} span rows to {args.csv}",
              file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    from .telemetry import Auditor, AuditError, EventBus, audit_events, read_jsonl

    aborted = None
    if args.input is not None:
        # Replay a recording through the monitors — same verdicts as live.
        auditor = audit_events(
            read_jsonl(args.input), deadline=args.deadline,
            device_port=args.device_port,
        )
        title = f"audit of {args.input}"
    else:
        vf, tasks, policy_kw = _build_workload(args)
        # Subscribed before the system boots, so boot downloads are
        # audited too.
        bus = EventBus()
        auditor = Auditor(bus, mode="strict" if args.strict else "lenient",
                          deadline=args.deadline,
                          clb_capacity=vf.arch.n_clbs)
        try:
            vf.simulate(tasks, policy=args.policy, bus=bus,
                        scheduler=_make_scheduler(args), **policy_kw)
        except AuditError as exc:
            aborted = exc
        auditor.finish()
        title = f"audit of {args.policy}@{args.family}"

    if args.json:
        import json

        print(json.dumps(auditor.summary(), indent=2, sort_keys=True))
    else:
        if auditor.ok:
            print(f"{title}: {auditor.n_events} events, no violations")
        else:
            rows = [
                {
                    "time": f"{v.time:.9g}",
                    "invariant": v.invariant,
                    "severity": v.severity,
                    "message": v.message,
                }
                for v in auditor.violations
            ]
            print(format_table(rows, title=title))
    if aborted is not None:
        print(f"strict audit aborted the run: {aborted}", file=sys.stderr)
    return 1 if auditor.n_errors else 0


def cmd_slo(args) -> int:
    """Evaluate SLO objectives and the per-source stage decomposition
    over a live run or a recorded JSONL stream; exit 1 on breach."""
    from .telemetry import (
        EventBus,
        MetricsAggregator,
        QueueingDecomposition,
        SloEngine,
        aggregate_events,
        decompose_events,
        evaluate_slo,
        parse_slo_spec,
        read_jsonl,
        stages_to_csv,
        to_prometheus,
    )

    try:
        objectives = [parse_slo_spec(spec) for spec in (args.slo or [])]
    except ValueError as exc:
        raise SystemExit(f"slo: {exc}") from None

    if args.input is not None:
        # Evaluate a recorded stream exactly as if it were live: the
        # engine and the decomposition are pure functions of the events.
        events = read_jsonl(args.input)
        agg = aggregate_events(events)
        decomp = decompose_events(events)
        engine = evaluate_slo(events, objectives)
        title = f"slo report of {args.input}"
    else:
        vf, tasks, policy_kw = _build_workload(args)
        bus = EventBus()
        agg = MetricsAggregator(bus, clb_capacity=vf.arch.n_clbs)
        decomp = QueueingDecomposition(bus)
        engine = SloEngine(objectives, bus)
        vf.simulate(tasks, policy=args.policy, bus=bus,
                    scheduler=_make_scheduler(args), **policy_kw)
        engine.finish()
        title = f"{args.policy}@{args.family}"

    if args.json:
        import json

        print(json.dumps({
            "slo": engine.summary(),
            "stages": decomp.summary(),
            "utilization": agg.utilization_summary(),
        }, indent=2, sort_keys=True))
    else:
        stage_rows = [
            {
                "source": r["source"],
                "ops": r["ops"],
                "queue": f"{fmt_time(r['queue'])} "
                         f"({fmt_pct(r['queue_share'])})",
                "reconfig": f"{fmt_time(r['reconfig'])} "
                            f"({fmt_pct(r['reconfig_share'])})",
                "service": f"{fmt_time(r['service'])} "
                           f"({fmt_pct(r['service_share'])})",
                "port": fmt_time(r["port_seconds"]),
                "decisions": r["sched_decisions"],
                "preempts": r["preempts"],
            }
            for r in decomp.rows()
        ]
        parts = []
        if stage_rows:
            parts.append(format_table(
                stage_rows,
                title=f"{title} — stage decomposition "
                      f"(share of operation turnaround)",
            ))
        if objectives:
            obj_rows = [
                {
                    "objective": r["objective"],
                    "selector": r["selector"],
                    "target": f"{r['metric']} {r['sense']} {r['threshold']:g}",
                    "observed": "-" if r["observed"] is None
                    else f"{r['observed']:.4g}",
                    "samples": r["samples"],
                    "budget left": fmt_pct(
                        max(0.0, min(1.0, float(r["budget_remaining"])))),
                    "verdict": "BREACHED" if r["breached"] else "ok",
                }
                for r in engine.status()
            ]
            parts.append(format_table(obj_rows,
                                      title=f"{title} — objectives"))
            for b in engine.breaches:
                parts.append(f"breach @ {b.time:.9g}s [{b.severity}] "
                             f"{b.detail} (window {b.window:g}s, budget "
                             f"{b.budget_remaining:+.2%})")
        else:
            parts.append(f"{title}: no objectives given (report-only); "
                         f"declare them with --slo, e.g. "
                         f"--slo 'gold:p99<=5e-3,availability>=0.99'")
        print("\n\n".join(parts))
    if args.prometheus:
        to_prometheus(agg, args.prometheus,
                      slo=engine if objectives else None)
        print(f"wrote Prometheus metrics to {args.prometheus}",
              file=sys.stderr)
    if args.csv:
        stages_to_csv(decomp, args.csv)
        print(f"wrote {len(decomp.rows())} stage rows to {args.csv}",
              file=sys.stderr)
    return 1 if engine.breached else 0


def _parse_fail_on(specs):
    """``--fail-on`` values → (global threshold, per-metric overrides)."""
    fail_on = 20.0
    overrides = {}
    for spec in specs or []:
        metric, sep, pct = spec.rpartition("=")
        try:
            if sep:
                overrides[metric.strip()] = float(pct)
            else:
                fail_on = float(spec)
        except ValueError:
            raise SystemExit(
                f"bench-diff: bad --fail-on {spec!r} "
                f"(expected PCT or METRIC=PCT)"
            ) from None
    return fail_on, overrides


def cmd_bench_diff(args) -> int:
    from .telemetry import diff_benches

    fail_on, overrides = _parse_fail_on(args.fail_on)
    try:
        diff = diff_benches(args.base, args.new, fail_on=fail_on,
                            fail_on_overrides=overrides)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench-diff: {exc}") from None
    if args.json:
        import json

        print(json.dumps(diff.summary(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.ok else 1


def cmd_experiments(_args) -> int:
    from .telemetry.benchdiff import EXPERIMENTS

    rows = [
        {"id": eid, "claim": claim, "section": section,
         "regenerate": f"pytest benchmarks/{test} --benchmark-only -s"}
        for eid, claim, section, test in EXPERIMENTS
    ]
    print(format_table(rows, title="experiment index (details: EXPERIMENTS.md)"))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="Virtual FPGA reproduction toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list the device catalog")
    sub.add_parser("circuits", help="list circuit generators")
    sub.add_parser("experiments", help="list the experiment index")

    def add_compile_args(sp) -> None:
        sp.add_argument("--family", default="VF12")
        sp.add_argument("--effort", default="sa", choices=["greedy", "sa"])
        sp.add_argument("--shape", default="square",
                        choices=["square", "columns"])
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--dedicated", action="store_true",
                        help="bind primary I/O to physical pads")

    c = sub.add_parser("compile", help="compile a circuit through the CAD flow")
    c.add_argument("circuit", help="generator spec, e.g. ripple_adder:4")
    add_compile_args(c)
    c.add_argument("--verify", action="store_true",
                   help="functionally verify the bitstream on the device")

    cr = sub.add_parser(
        "compile-report",
        help="per-phase wall-clock, SA cost curve and PathFinder "
             "convergence of one compile (live, or from a recorded "
             "JSONL stream of CAD events)",
    )
    cr.add_argument("circuit", nargs="?", default=None,
                    help="generator spec, e.g. ripple_adder:4 "
                         "(omit when using -i)")
    add_compile_args(cr)
    cr.add_argument("--compile-cache", action="store_true",
                    help="compile twice through one fresh CompileCache "
                         "and report the cold-miss/warm-hit cache summary")
    cr.add_argument("-i", "--input", default=None, metavar="EVENTS.jsonl",
                    help="reduce this recorded CAD event stream instead "
                         "of compiling")
    cr.add_argument("--jsonl", default=None, metavar="OUT.jsonl",
                    help="also record the CAD event stream as JSONL "
                         "(re-readable with -i)")
    cr.add_argument("--trace", default=None, metavar="OUT.json",
                    help="also write the Chrome trace_event timeline "
                         "(Perfetto/chrome://tracing)")
    cr.add_argument("--json", action="store_true",
                    help="print the machine-readable profile (the "
                         "'compile' block BENCH_*.json embeds)")

    def add_workload_args(sp) -> None:
        sp.add_argument("--family", default="VF12")
        sp.add_argument("--circuits", default="ripple_adder:4,counter:4",
                        help="comma-separated generator specs")
        sp.add_argument("--policy", default="variable",
                        choices=["merged", "software", "nonpreemptable",
                                 "dynamic", "fixed", "variable", "overlay",
                                 "paged", "pagination", "multi"],
                        help="management policy (pagination = paged)")
        sp.add_argument("--tasks", type=int, default=6)
        sp.add_argument("--ops", type=int, default=4)
        sp.add_argument("--cycles", type=int, default=100_000)
        sp.add_argument("--cpu-ms", type=float, default=1.0)
        sp.add_argument("--partitions", type=int, default=2)
        sp.add_argument("--devices", type=int, default=2)
        sp.add_argument("--pages", type=_positive_int, default=6,
                        help="paged policy: pages of the virtual circuit")
        sp.add_argument("--page-width", type=_positive_int, default=3,
                        help="paged policy: columns per page/frame")
        sp.add_argument("--gc", default="compact",
                        choices=["none", "merge", "compact"])
        sp.add_argument("--layout", default="columns",
                        choices=["columns", "rect"])
        sp.add_argument("--placement", default=None,
                        choices=["bottom-left", "best-fit", "skyline",
                                 "column-first-fit", "column-best-fit",
                                 "column-worst-fit"],
                        help="placement engine (variable policy; default: "
                             "the layout's native strategy)")
        sp.add_argument("--replacement", default="lru",
                        choices=["lru", "mru", "fifo", "clock", "random"],
                        help="victim-selection engine (fixed/variable/"
                             "overlay/paged; random is seeded by --seed)")
        sp.add_argument("--board-dispatch", default="affinity",
                        choices=["affinity", "least-busy", "round-robin",
                                 "least-occupancy"],
                        help="board-selection engine (multi policy)")
        sp.add_argument("--load-mode", default="full",
                        choices=["full", "delta", "auto"],
                        help="reconfiguration engine: full rewrites every "
                             "touched frame, delta writes only differing "
                             "frames (+ per-frame address header), auto "
                             "picks the cheaper per load")
        sp.add_argument("--cpu-sched", default="rr",
                        choices=["fifo", "rr", "priority", "edf",
                                 "aged-priority"],
                        help="CPU scheduling engine for the kernel's ready "
                             "queue (edf needs task deadlines; "
                             "aged-priority never starves)")
        sp.add_argument("--fabric-sched", default="fixed-quantum",
                        choices=["fixed-quantum", "cost-aware"],
                        help="fabric scheduling engine (dynamic policy): "
                             "cost-aware skips a preemption when the "
                             "reconfiguration + state bill exceeds the "
                             "slack it buys")
        sp.add_argument("--fpga-slice-ms", type=float, default=None,
                        help="fabric time slice in ms (dynamic policy; "
                             "default: no fabric preemption)")
        sp.add_argument("--effort", default="greedy", choices=["greedy", "sa"])
        sp.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("simulate", help="run a workload under a VFPGA policy")
    add_workload_args(s)

    t = sub.add_parser(
        "trace",
        help="run a workload and export its telemetry event stream",
    )
    add_workload_args(t)
    t.add_argument("--format", default="chrome", choices=["chrome", "jsonl"],
                   help="chrome = trace_event JSON (Perfetto/chrome://tracing)"
                        "; jsonl = one event per line")
    t.add_argument("-o", "--output", default="trace.json",
                   help="output path ('-' = stdout)")
    t.add_argument("--steps", action="store_true",
                   help="also record one event per simulator step")
    t.add_argument("--max-events", type=_positive_int, default=None,
                   help="ring-buffer bound on recorded events (default: all)")

    r = sub.add_parser(
        "report",
        help="latency percentiles, utilization gauges and per-task "
             "breakdown of a run (live or from a recorded JSONL stream)",
    )
    add_workload_args(r)
    r.add_argument("-i", "--input", default=None, metavar="EVENTS.jsonl",
                   help="aggregate this recorded JSONL stream instead of "
                        "running a workload (workload options are ignored)")
    r.add_argument("--json", action="store_true",
                   help="print the machine-readable summary (the same "
                        "block BENCH_*.json embeds) instead of tables")
    r.add_argument("--prometheus", default=None, metavar="OUT.prom",
                   help="also write the metrics in Prometheus text format")
    r.add_argument("--csv", default=None, metavar="OUT.csv",
                   help="also write one CSV row per causal span")
    r.add_argument("--max-events", type=_positive_int, default=None,
                   help="ring-buffer bound on the recorded stream the "
                        "report aggregates (warns when events are dropped)")

    a = sub.add_parser(
        "audit",
        help="verify stream invariants (double allocation, save/restore "
             "pairing, port serialization, liveness, occupancy) over a "
             "live run or a recorded JSONL stream",
    )
    add_workload_args(a)
    a.add_argument("-i", "--input", default=None, metavar="EVENTS.jsonl",
                   help="audit this recorded JSONL stream instead of "
                        "running a workload (workload options are ignored)")
    a.add_argument("--strict", action="store_true",
                   help="abort the live run at the first error-severity "
                        "violation (replay audits are always lenient)")
    a.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="liveness bound: flag FPGA operations still open "
                        "this long (sim time) after their request")
    a.add_argument("--device-port", action="store_true",
                   help="also serialize device-level ConfigPortOp events "
                        "(bare-device streams, e.g. the scrubbing "
                        "experiment)")
    a.add_argument("--json", action="store_true",
                   help="print the machine-readable violation report")

    sl = sub.add_parser(
        "slo",
        help="evaluate per-source service-level objectives (latency "
             "percentile / miss rate / availability, with error budgets "
             "and burn-rate alerts) and the queue/reconfig/service stage "
             "decomposition, over a live run or a recorded JSONL stream; "
             "exit 1 on any breached objective",
    )
    add_workload_args(sl)
    sl.add_argument("-i", "--input", default=None, metavar="EVENTS.jsonl",
                    help="evaluate this recorded JSONL stream instead of "
                         "running a workload (workload options are ignored)")
    sl.add_argument("--slo", action="append", default=None, metavar="SPEC",
                    help="objective spec (repeatable): "
                         "'[NAME:]pXX<=SECONDS[,miss-rate<=FRAC]"
                         "[,availability>=FRAC][,task=GLOB][,source=GLOB]"
                         "[,window=SECONDS][,min-samples=N][,burn=FACTOR]'"
                         " — e.g. --slo 'gold:p99<=5e-3,availability>=0.99'"
                         "; no specs = report-only (stage decomposition, "
                         "exit 0)")
    sl.add_argument("--json", action="store_true",
                    help="print the machine-readable evaluation "
                         "(objectives, breaches, stage decomposition)")
    sl.add_argument("--prometheus", default=None, metavar="OUT.prom",
                    help="also write the metrics (plus per-objective "
                         "error-budget gauges) in Prometheus text format")
    sl.add_argument("--csv", default=None, metavar="OUT.csv",
                    help="also write one CSV row per source with stage "
                         "totals/shares/p99s")

    b = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json artifacts; exit 1 on wall-clock "
             "or event-count regressions past the threshold",
    )
    b.add_argument("base", help="baseline BENCH_*.json")
    b.add_argument("new", help="candidate BENCH_*.json")
    b.add_argument("--fail-on", action="append", default=None,
                   metavar="PCT|METRIC=PCT",
                   help="regression threshold in percent: a bare PCT sets "
                        "the global threshold (default 20), METRIC=PCT "
                        "overrides one metric path (repeatable) — e.g. "
                        "--fail-on 20 --fail-on wall_seconds=300 keeps "
                        "deterministic metrics tight while tolerating "
                        "CI-runner wall-clock noise.  Growth-gated "
                        "compile.* wall clocks whose *baseline* is below "
                        "1 ms (COMPILE_WALL_FLOOR) never fail regardless "
                        "of threshold: sub-millisecond phases measure "
                        "timer/scheduler noise, not the flow, so those "
                        "rows are demoted to informational")
    b.add_argument("--json", action="store_true",
                   help="print the machine-readable diff")
    return p


_COMMANDS = {
    "families": cmd_families,
    "circuits": cmd_circuits,
    "compile": cmd_compile,
    "compile-report": cmd_compile_report,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "report": cmd_report,
    "audit": cmd_audit,
    "slo": cmd_slo,
    "bench-diff": cmd_bench_diff,
    "experiments": cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
