"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``color``
    Generate a workload, run the pipeline, print the stage table.
``baselines``
    Same workload through every comparator, one table.
``sketch``
    Fingerprint-estimator demo (Lemma 5.2): estimate a hidden count.
``workloads``
    List the available instance generators (``--json`` for machines).
``stream``
    Drive a churn workload through the streaming update engine
    (optionally racing the recolor-from-scratch baseline).
``serve``
    Replay an open-loop update trace through the always-on coloring
    service: final latency percentiles and the SLO report (report-only
    unless ``--strict``).
``sweep``
    Run a named scenario suite in parallel, write a JSONL artifact
    (``--trace`` attaches span trees to traceable cells).
``report``
    Summarize a sweep artifact (mean/p50/p95 per cell group, CSV export).
``compare``
    Gate one sweep artifact against a baseline; exit 1 on regression.
``trace``
    Run one workload under an enabled tracer and print the per-stage
    wall/rounds/bits table, slowest first.
``netsim``
    Run one workload on a sampled heterogeneous fabric
    (docs/NETWORK.md) and print the simulated-clock makespan with its
    critical stage and critical link.
``fuzz``
    Cost-guided pathological-instance fuzzing (docs/FUZZING.md):
    ``run`` a time-boxed campaign (report-only), ``list`` the corpus,
    ``replay`` entries bitwise (exit 1 on mismatch), ``promote`` finds
    into the pinned ``pathology`` suite.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import color_cluster_graph
from repro.metrics import format_table
from repro.params import paper, scaled
from repro.workloads import GENERATORS, STREAMS


def _build_workload(args) -> object:
    maker = GENERATORS[args.workload]
    return maker(np.random.default_rng(args.instance_seed))


def _cmd_color(args) -> int:
    w = _build_workload(args)
    params = paper() if args.params == "paper" else scaled()
    result = color_cluster_graph(
        w.graph, params=params, seed=args.seed, regime=args.regime
    )
    print(f"workload: {w.name}  ({w.notes})")
    print(
        f"machines={w.graph.n_machines} vertices={w.graph.n_vertices} "
        f"Delta={w.graph.max_degree} dilation={w.graph.dilation}"
    )
    print(
        f"regime={result.stats.regime} proper={result.proper} "
        f"rounds_h={result.rounds_h} rounds_g={result.rounds_g} "
        f"colors={len(set(result.colors.tolist()))}/{result.num_colors}"
    )
    rows = [
        {"stage": stage, "rounds_h": rounds}
        for stage, rounds in sorted(result.stats.stage_rounds.items())
    ]
    print(format_table(rows))
    if result.stats.fallbacks:
        print(f"fallbacks: {dict(result.stats.fallbacks)}")
    if result.stats.retries:
        print(f"retries:   {dict(result.stats.retries)}")
    for note in result.stats.notes:
        print(f"note: {note}")
    return 0 if result.proper else 1


def _cmd_baselines(args) -> int:
    from repro.baselines import (
        greedy_color_count,
        local_gather_coloring,
        luby_coloring,
        palette_sparsification_coloring,
    )

    w = _build_workload(args)
    ours = color_cluster_graph(w.graph, seed=args.seed)
    rows = [
        {
            "algorithm": "this paper",
            "rounds_h": ours.rounds_h,
            "bits": ours.ledger_summary["total_message_bits"],
            "proper": ours.proper,
        }
    ]
    for name, fn in (
        ("luby (cluster)", luby_coloring),
        ("palette sparsification", palette_sparsification_coloring),
        ("local gather", local_gather_coloring),
    ):
        r = fn(w.graph, seed=args.seed)
        rows.append(
            {
                "algorithm": name,
                "rounds_h": r.rounds_h,
                "bits": r.total_message_bits,
                "proper": r.proper,
            }
        )
    print(f"workload: {w.name}  Delta={w.graph.max_degree}")
    print(format_table(rows))
    print(f"greedy would use {greedy_color_count(w.graph)} colors "
          f"(budget {w.graph.max_degree + 1})")
    return 0


def _cmd_sketch(args) -> int:
    from repro.sketch import direct_count_fingerprint, failure_probability_bound

    rng = np.random.default_rng(args.seed)
    fp = direct_count_fingerprint(rng, args.d, args.t)
    estimate = fp.estimate()
    print(f"hidden count d = {args.d}, trials t = {args.t}")
    print(f"estimate d_hat = {estimate:.1f}  (error {estimate / args.d - 1:+.1%})")
    print(f"encoded size: {fp.encoded_bits()} bits "
          f"({fp.encoded_bits() / args.t:.2f} bits/trial; Lemma 5.6)")
    print(f"Lemma 5.2 bound at xi=0.5: "
          f"fail w.p. <= {failure_probability_bound(0.5, args.t):.3g}")
    return 0


def _cmd_workloads(args) -> int:
    rows = []
    for name, maker in GENERATORS.items():
        w = maker(np.random.default_rng(0))
        rows.append(
            {
                "name": name,
                "machines": w.graph.n_machines,
                "vertices": w.graph.n_vertices,
                "Delta": w.graph.max_degree,
                "dilation": w.graph.dilation,
                "notes": w.notes if args.json else w.notes[:60],
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows))
    return 0


def _cmd_stream(args) -> int:
    from repro.dynamic import run_stream

    maker = GENERATORS[args.workload]
    params = paper() if args.params == "paper" else scaled()
    modes = ("repair", "scratch") if args.mode == "both" else (args.mode,)
    summaries = {}
    for mode in modes:
        # regenerate per mode: both sides must see the identical stream
        w = maker(np.random.default_rng(args.instance_seed))
        _engine, result, metrics = run_stream(
            w, params=params, seed=args.seed, mode=mode
        )
        summaries[mode] = metrics
        print(f"workload: {w.name}  ({w.notes})")
        print(
            f"mode={mode} machines={metrics['machines']} "
            f"vertices={metrics['vertices']} Delta={metrics['delta']} "
            f"batches={metrics['batches']} updates={metrics['stream_updates']}"
        )
        if not args.quiet:
            rows = [
                {
                    "batch": r.batch_index,
                    "events": ",".join(f"{k}={v}" for k, v in r.events.items()),
                    "dirty": r.dirty,
                    "repaired": r.repaired,
                    "recolor%": f"{100 * r.recolor_fraction:.2f}",
                    "rounds_h": r.rounds_h,
                    "bits": r.message_bits,
                    "wall_s": f"{r.wall_time_s:.4f}",
                }
                for r in result.reports
            ]
            print(format_table(rows))
        print(
            f"proper={metrics['proper']} "
            f"recolor_fraction mean={metrics['recolor_fraction_mean']:.4f} "
            f"max={metrics['recolor_fraction_max']:.4f} "
            f"escalations={metrics['escalations']} "
            f"rebuilds={metrics['delta_rebuilds']} "
            f"rounds_h={metrics['rounds_h']} bits={metrics['total_message_bits']} "
            f"stream_wall={metrics['stream_wall_time_s']:.3f}s"
        )
        if "repair_ms_p50" in metrics:
            print(
                f"repair latency: p50={metrics['repair_ms_p50']:.3f}ms "
                f"p95={metrics['repair_ms_p95']:.3f}ms "
                f"p99={metrics['repair_ms_p99']:.3f}ms  "
                f"throughput={metrics['updates_per_sec']:.1f} updates/s"
            )
    if len(summaries) == 2:
        repair, scratch = summaries["repair"], summaries["scratch"]
        advantage = scratch["stream_wall_time_s"] / max(
            repair["stream_wall_time_s"], 1e-9
        )
        print(
            f"wall-time advantage (scratch/repair): {advantage:.1f}x  "
            f"(repair {repair['stream_wall_time_s']:.3f}s vs "
            f"scratch {scratch['stream_wall_time_s']:.3f}s)"
        )
    return 0 if all(m["proper"] for m in summaries.values()) else 1


def _cmd_serve(args) -> int:
    """Run the always-on coloring service over a replayed trace."""
    from repro.serve import (
        ColoringService,
        DEFAULT_SLOS,
        parse_slo,
        render_slo_report,
        evaluate_slos,
    )

    maker = GENERATORS[args.workload]
    kwargs: dict = {
        "batches": args.batches,
        "arrival_profile": args.profile,
        "arrival_rate": args.rate,
    }
    if args.vertices is not None:
        kwargs["n_vertices"] = args.vertices
    w = maker(np.random.default_rng(args.instance_seed), **kwargs)
    try:
        slos = (
            tuple(parse_slo(s) for s in args.slo) if args.slo else DEFAULT_SLOS
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc
    params = paper() if args.params == "paper" else scaled()
    service = ColoringService(
        w,
        params=params,
        seed=args.seed,
        slos=slos,
    )
    print(f"workload: {w.name}  ({w.notes})")
    print(
        f"trace: {len(w.batches)} batches, {w.total_updates} updates, "
        f"profile={args.profile} rate={args.rate:g}/s"
    )
    service.start()
    print(f"bootstrap: {service.bootstrap_wall_time_s:.3f}s "
          f"({service.engine.num_colors} colors)")
    service.run()
    metrics = service.collect()
    print(
        f"final: proper={metrics['proper']} "
        f"violations={metrics['violation_batches']} "
        f"escalations={metrics['escalations']} "
        f"recolor_fraction mean={metrics['recolor_fraction_mean']:.4f}"
    )
    print(
        f"repair latency (exact): p50={metrics['repair_ms_p50']:.3f}ms "
        f"p95={metrics['repair_ms_p95']:.3f}ms p99={metrics['repair_ms_p99']:.3f}ms"
    )
    print(
        f"end-to-end latency: p50={metrics['latency_ms_p50']:.3f}ms "
        f"p99={metrics['latency_ms_p99']:.3f}ms  "
        f"queueing p99={metrics['queue_ms_p99']:.3f}ms"
    )
    print(
        f"sustained throughput: {metrics['updates_per_sec']:.1f} updates/s "
        f"over {metrics['trace_duration_s']:.2f} trace-seconds"
    )
    report = evaluate_slos(metrics, slos)
    print(render_slo_report(report))
    if metrics["violation_batches"]:
        return 1
    if args.strict and not report.passed:
        return 1
    return 0


# ---- experiment orchestration (repro.experiments) ---------------------------


def _cmd_sweep(args) -> int:
    from repro.experiments import SUITES, read_artifact, run_sweep, summarize

    spec = SUITES[args.suite]
    cells = spec.cells()
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    if not args.quiet:
        print(
            f"suite {spec.name!r}: {len(cells)} cells, jobs={args.jobs} "
            f"({spec.description})",
            file=sys.stderr,
        )
    path, records = run_sweep(
        spec,
        jobs=args.jobs,
        timeout_s=args.timeout,
        out_path=args.out,
        progress=progress,
        trace=args.trace,
    )
    print(format_table(summarize(read_artifact(path))))
    failed = [r for r in records if r["status"] != "ok"]
    print(f"artifact: {path}  ({len(records)} cells, {len(failed)} failed)")
    from repro.experiments.runner import error_summary

    for record in failed:
        print(f"  {record['status']}: {record['cell']['workload']} -- "
              f"{error_summary(record['error'])}")
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    """Run one workload under an enabled tracer; print the stage table."""
    from repro.observe import Tracer, aggregate_stage_rows, stage_rows

    maker = GENERATORS[args.workload]
    w = maker(np.random.default_rng(args.instance_seed))
    params = paper() if args.params == "paper" else scaled()
    tracer = Tracer()
    if args.workload in STREAMS:
        from repro.dynamic import run_stream

        _engine, _result, metrics = run_stream(
            w, params=params, seed=args.seed, mode=args.mode, tracer=tracer
        )
        proper = bool(metrics["proper"])
        ledger_rounds = metrics["rounds_h"]
        ledger_bits = metrics["total_message_bits"]
        # the bootstrap runs on its own runtime ledger (wall time only), so
        # the span-sum invariant covers the batch spans alone
        charged = lambda r: r["stage"] != "stream.bootstrap"  # noqa: E731
    else:
        result = color_cluster_graph(
            w.graph, params=params, seed=args.seed, regime=args.regime,
            tracer=tracer,
        )
        proper = bool(result.proper)
        ledger_rounds = result.rounds_h
        ledger_bits = result.ledger_summary["total_message_bits"]
        charged = lambda r: True  # noqa: E731
    if args.json:
        print(json.dumps(tracer.to_dict(), indent=2))
        return 0 if proper else 1
    rows = aggregate_stage_rows(stage_rows(tracer))
    rows.sort(key=lambda r: r["wall_s"], reverse=True)
    print(f"workload: {w.name}  ({w.notes})")
    print(
        f"machines={w.graph.n_machines} vertices={w.graph.n_vertices} "
        f"Delta={w.graph.max_degree} proper={proper}"
    )
    print(format_table(
        [
            {
                "stage": r["stage"],
                "spans": r["spans"],
                "wall_s": f"{r['wall_s']:.4f}",
                "rounds_h": r["rounds_h"],
                "rounds_g": r["rounds_g"],
                "bits": r["bits"],
                "max_bits": r["max_bits"],
            }
            for r in rows
        ]
    ))
    sum_rounds = sum(r["rounds_h"] for r in rows if charged(r))
    sum_bits = sum(r["bits"] for r in rows if charged(r))
    matches = sum_rounds == ledger_rounds and sum_bits == ledger_bits
    print(
        f"stage sums: rounds_h={sum_rounds} bits={sum_bits}  "
        f"ledger totals: rounds_h={ledger_rounds} bits={ledger_bits}  "
        f"({'match' if matches else 'MISMATCH'})"
    )
    return 0 if proper and matches else 1


def _cmd_netsim(args) -> int:
    """Run one workload on a sampled heterogeneous fabric; print the
    simulated-clock makespan with per-stage and per-link attribution."""
    from repro.observe import Tracer, aggregate_stage_rows, stage_rows

    maker = GENERATORS[args.workload]
    w = maker(
        np.random.default_rng(args.instance_seed),
        net_skew=args.skew,
        net_fill=args.fill,
    )
    model = w.netmodel
    params = paper() if args.params == "paper" else scaled()
    tracer = Tracer()
    if args.workload in STREAMS:
        from repro.dynamic import run_stream

        _engine, _result, metrics = run_stream(
            w, params=params, seed=args.seed, mode=args.mode, tracer=tracer
        )
        proper = bool(metrics["proper"])
        makespan = metrics["makespan_ms"]
        rounds = metrics["rounds_h"]
    else:
        result = color_cluster_graph(
            w.graph, params=params, seed=args.seed, regime=args.regime,
            tracer=tracer, netmodel=model,
        )
        proper = bool(result.proper)
        makespan = result.ledger_summary["makespan_ms"]
        rounds = result.rounds_h
    rows = aggregate_stage_rows(stage_rows(tracer))
    rows.sort(key=lambda r: r["makespan_ms"], reverse=True)
    critical_stage = rows[0]["stage"] if rows else "(none)"
    critical_link, critical_ms = model.critical_element()
    if args.json:
        print(json.dumps(
            {
                "workload": w.name,
                "skew": args.skew,
                "fill": args.fill,
                "machines": w.graph.n_machines,
                "slow_machines": model.n_slow_machines,
                "proper": proper,
                "rounds_h": rounds,
                "makespan_ms": makespan,
                "critical_stage": critical_stage,
                "critical_link": critical_link,
            },
            indent=2,
        ))
        return 0 if proper else 1
    print(f"workload: {w.name}  ({w.notes})")
    print(
        f"fabric: {w.graph.n_machines} machines, "
        f"{model.n_slow_machines} slow (fill={args.fill:g}), "
        f"bandwidth skew {args.skew:g}:1"
    )
    print(f"proper={proper} rounds_h={rounds} makespan={makespan:.3f}ms")
    print(format_table(
        [
            {
                "stage": r["stage"],
                "spans": r["spans"],
                "rounds_h": r["rounds_h"],
                "bits": r["bits"],
                "makespan_ms": f"{r['makespan_ms']:.3f}",
            }
            for r in rows
        ]
    ))
    print(f"critical stage: {critical_stage}")
    print(f"critical link:  {critical_link}  ({critical_ms:.3f}ms on the clock)")
    slowest = model.element_times(top=5)
    if slowest:
        print("slowest elements:")
        for name, ms in slowest:
            print(f"  {ms:10.3f}ms  {name}")
    return 0 if proper else 1


def _read_artifact_or_exit(path: str):
    from repro.experiments import read_artifact

    try:
        return read_artifact(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: cannot read artifact {path}: {exc}") from exc


def _cmd_report(args) -> int:
    from repro.experiments import summarize, to_csv

    artifact = _read_artifact_or_exit(args.artifact)
    header = artifact.header
    print(
        f"suite={artifact.suite} spec_hash={artifact.spec_hash} "
        f"git_rev={header.get('git_rev')} created={header.get('created_utc')} "
        f"cells={len(artifact.records)}"
    )
    if args.group_by:
        valid = {"suite", "workload", "workload_kwargs", "params", "regime",
                 "algorithm", "seed", "instance_seed"}
        group_by = tuple(f.strip() for f in args.group_by.split(",") if f.strip())
        unknown = [f for f in group_by if f not in valid]
        if unknown:
            raise SystemExit(
                f"repro: unknown group-by field(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(valid))}"
            )
        rows = summarize(artifact, group_by)
    else:
        rows = summarize(artifact)
    print(format_table(rows))
    if args.csv:
        path = to_csv(artifact, args.csv)
        print(f"csv: {path}")
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments import (
        compare_artifacts,
        parse_tolerance_overrides,
        render_report,
    )

    baseline = _read_artifact_or_exit(args.baseline)
    candidate = _read_artifact_or_exit(args.candidate)
    if baseline.spec_hash != candidate.spec_hash:
        print(
            f"warning: spec hashes differ ({baseline.spec_hash} vs "
            f"{candidate.spec_hash}); only overlapping cells are gated",
            file=sys.stderr,
        )
    try:
        tolerances = parse_tolerance_overrides(args.tolerance)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc
    report = compare_artifacts(baseline, candidate, tolerances)
    print(render_report(report))
    return report.exit_code


def _fuzz_entry_row(entry: dict) -> dict:
    return {
        "id": entry["id"],
        "generator": entry["generator"],
        "objective": entry["objective"],
        "score": entry["score"],
        "norm": "inf" if entry["norm"] is None else round(entry["norm"], 2),
        "minimized": entry["minimized"],
        "digest": entry.get("metrics", {}).get("coloring_digest", "-"),
    }


def _fuzz_dirs(args) -> object:
    """The corpus directory a fuzz subcommand operates on."""
    from repro.experiments.spec import PATHOLOGY_DIR
    from repro.fuzz import CORPUS_DIR

    if getattr(args, "pathologies", False):
        return PATHOLOGY_DIR
    return args.corpus or CORPUS_DIR


def _cmd_fuzz_run(args) -> int:
    from repro.fuzz import FuzzConfig, make_entry, run_fuzz, save_entry

    if args.iters is None and args.budget is None:
        raise SystemExit("repro: fuzz run needs --budget or --iters")
    generators = tuple(
        g.strip() for g in (args.generators or "").split(",") if g.strip()
    )
    config = FuzzConfig(
        objective=args.objective,
        generators=generators,
        root_seed=args.seed,
        iters=args.iters,
        budget_s=args.budget,
        margin=args.margin,
        cell_timeout_s=args.timeout,
        minimize=not args.no_minimize,
    )
    emit = (lambda _line: None) if args.quiet else print
    try:
        report = run_fuzz(config, progress=emit)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc
    paths = []
    for find in report.finds:
        entry = make_entry(find, report.objective, report.root_seed)
        paths.append(save_entry(entry, args.corpus))
    if args.json:
        payload = report.to_dict()
        for find in payload["finds"]:
            find.pop("record", None)  # bulky; the corpus entry has the snapshot
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"fuzz: objective={report.objective} seed={report.root_seed} "
        f"iterations={report.iterations} evaluations={report.evaluations} "
        f"finds={len(report.finds)}"
    )
    if report.skipped_generators:
        print(f"skipped (unscorable): {', '.join(report.skipped_generators)}")
    if report.finds:
        rows = []
        for find, path in zip(report.finds, paths):
            norm = find["norm"]
            rows.append(
                {
                    "generator": find["generator"],
                    "norm": "inf" if norm is None else round(norm, 2),
                    "score": find["score"],
                    "baseline": find["baseline_score"],
                    "weight": find["weight"],
                    "entry": path.name,
                }
            )
        print(format_table(rows))
        print(f"corpus: {paths[0].parent}")
    # report-only by design: finds are discoveries, not failures
    return 0


def _cmd_fuzz_list(args) -> int:
    from repro.fuzz import load_entries

    try:
        entries = load_entries(_fuzz_dirs(args))
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc
    if args.json:
        print(json.dumps([e for _, e in entries], indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"no corpus entries under {_fuzz_dirs(args)}")
        return 0
    print(format_table([_fuzz_entry_row(e) for _, e in entries]))
    return 0


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz import load_entries, replay_entry, resolve_entry

    directory = _fuzz_dirs(args)
    if not (args.all or args.entries):
        raise SystemExit("repro: fuzz replay needs entry ids or --all")
    try:
        if args.all:
            targets = load_entries(directory)
        else:
            targets = [resolve_entry(ref, directory) for ref in args.entries]
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc
    if not targets:
        raise SystemExit(f"repro: no corpus entries under {directory}")
    failures = 0
    for path, entry in targets:
        verdict = replay_entry(entry, timeout_s=args.timeout)
        status = "ok" if verdict["ok"] else "MISMATCH"
        detail = (
            f"score_ok={verdict['score_ok']} digest_ok={verdict['digest_ok']}"
        )
        print(f"{entry['id']}: {status}  score={verdict['score']} {detail}")
        if not verdict["ok"]:
            failures += 1
    if failures:
        print(f"{failures}/{len(targets)} entries failed to reproduce")
    return 1 if failures else 0


def _cmd_fuzz_promote(args) -> int:
    from repro.fuzz import promote_entry, resolve_entry

    for ref in args.entries:
        try:
            _path, entry = resolve_entry(ref, args.corpus)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}") from exc
        dest = promote_entry(entry, args.dest)
        print(f"promoted {entry['id']} -> {dest}")
    print("promoted cells join the 'pathology' suite on next import")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(Delta+1)-coloring of cluster graphs (PODC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument(
            "--workload", choices=sorted(GENERATORS), default="planted_acd"
        )
        p.add_argument("--instance-seed", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)

    p_color = sub.add_parser("color", help="run the coloring pipeline")
    add_workload_args(p_color)
    p_color.add_argument(
        "--regime", choices=["auto", "high_degree", "polylog", "low_degree"],
        default="auto",
    )
    p_color.add_argument("--params", choices=["scaled", "paper"], default="scaled")
    p_color.set_defaults(func=_cmd_color)

    p_base = sub.add_parser("baselines", help="compare against the baselines")
    add_workload_args(p_base)
    p_base.set_defaults(func=_cmd_baselines)

    p_sketch = sub.add_parser("sketch", help="fingerprint estimator demo")
    p_sketch.add_argument("--d", type=int, default=1000)
    p_sketch.add_argument("--t", type=int, default=800)
    p_sketch.add_argument("--seed", type=int, default=0)
    p_sketch.set_defaults(func=_cmd_sketch)

    p_stream = sub.add_parser(
        "stream", help="drive a churn workload through the streaming engine"
    )
    p_stream.add_argument(
        "--workload", choices=sorted(STREAMS), default="sliding_window"
    )
    p_stream.add_argument("--instance-seed", type=int, default=0)
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument(
        "--mode", choices=["repair", "scratch", "both"], default="repair",
        help="incremental repair, recolor-from-scratch, or race both",
    )
    p_stream.add_argument("--params", choices=["scaled", "paper"], default="scaled")
    p_stream.add_argument(
        "--quiet", action="store_true", help="summary only, no per-batch table"
    )
    p_stream.set_defaults(func=_cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="replay an open-loop trace through the always-on coloring service",
    )
    p_serve.add_argument(
        "--workload", choices=sorted(STREAMS), default="sliding_window"
    )
    p_serve.add_argument("--instance-seed", type=int, default=0)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--vertices", type=int, default=None,
        help="initial graph size (default: the generator's own)",
    )
    p_serve.add_argument(
        "--batches", type=int, default=50, help="trace length in update batches"
    )
    p_serve.add_argument(
        "--profile", choices=["constant", "diurnal", "spiky"], default="diurnal",
        help="arrival-rate shape of the open-loop trace",
    )
    p_serve.add_argument(
        "--rate", type=float, default=1000.0,
        help="base offered load in updates/second",
    )
    p_serve.add_argument(
        "--slo", action="append", default=[], metavar="METRIC<=BOUND",
        help="objective override, e.g. repair_ms_p99<=250 or "
        "updates_per_sec>=500 (repeatable; default: the built-in targets)",
    )
    p_serve.add_argument(
        "--strict", action="store_true",
        help="exit 1 when an SLO misses (default: report-only)",
    )
    p_serve.add_argument("--params", choices=["scaled", "paper"], default="scaled")
    p_serve.set_defaults(func=_cmd_serve)

    p_list = sub.add_parser("workloads", help="list instance generators")
    p_list.add_argument(
        "--json", action="store_true", help="machine-readable JSON instead of a table"
    )
    p_list.set_defaults(func=_cmd_workloads)

    from repro.experiments.spec import SUITES

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario suite, write a JSONL artifact"
    )
    p_sweep.add_argument("--suite", choices=sorted(SUITES), default="smoke")
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (<=1 runs serially in-process)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds (0 disables; "
        "default: the suite's own budget)",
    )
    p_sweep.add_argument(
        "--out", default=None,
        help="artifact path (default: benchmarks/results/sweep-<suite>-<ts>.jsonl)",
    )
    p_sweep.add_argument("--quiet", action="store_true", help="no progress stream")
    p_sweep.add_argument(
        "--trace", action="store_true",
        help="attach span trees to traceable cells (bitwise-invisible)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="summarize a sweep artifact")
    p_report.add_argument("artifact")
    p_report.add_argument("--csv", default=None, help="also export raw cells as CSV")
    p_report.add_argument(
        "--group-by", default=None,
        help="comma-separated cell fields to group on "
        "(default: workload,workload_kwargs,params,regime,algorithm)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_compare = sub.add_parser(
        "compare", help="gate a candidate artifact against a baseline"
    )
    p_compare.add_argument("baseline")
    p_compare.add_argument("candidate")
    p_compare.add_argument(
        "--tolerance", action="append", default=[], metavar="METRIC=FRACTION",
        help="override a relative tolerance (repeatable), e.g. rounds_h=0.1",
    )
    p_compare.set_defaults(func=_cmd_compare)

    p_trace = sub.add_parser(
        "trace", help="run one workload under a tracer, print the stage table"
    )
    p_trace.add_argument("workload", choices=sorted(GENERATORS))
    p_trace.add_argument("--instance-seed", type=int, default=0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--regime", choices=["auto", "high_degree", "polylog", "low_degree"],
        default="auto", help="static pipeline regime (ignored for streams)",
    )
    p_trace.add_argument(
        "--mode", choices=["repair", "scratch"], default="repair",
        help="stream engine mode (ignored for static workloads)",
    )
    p_trace.add_argument("--params", choices=["scaled", "paper"], default="scaled")
    p_trace.add_argument(
        "--json", action="store_true", help="dump the full span tree as JSON"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_netsim = sub.add_parser(
        "netsim",
        help="simulate a workload on a heterogeneous fabric, print the makespan",
    )
    p_netsim.add_argument("workload", choices=sorted(GENERATORS))
    p_netsim.add_argument("--instance-seed", type=int, default=0)
    p_netsim.add_argument("--seed", type=int, default=0)
    p_netsim.add_argument(
        "--skew", type=float, default=10.0,
        help="slow/standard bandwidth ratio (>= 1; 1 = homogeneous speeds)",
    )
    p_netsim.add_argument(
        "--fill", type=float, default=0.1,
        help="fraction of machines drawn slow (0..1)",
    )
    p_netsim.add_argument(
        "--regime", choices=["auto", "high_degree", "polylog", "low_degree"],
        default="auto", help="static pipeline regime (ignored for streams)",
    )
    p_netsim.add_argument(
        "--mode", choices=["repair", "scratch"], default="repair",
        help="stream engine mode (ignored for static workloads)",
    )
    p_netsim.add_argument("--params", choices=["scaled", "paper"], default="scaled")
    p_netsim.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p_netsim.set_defaults(func=_cmd_netsim)

    p_fuzz = sub.add_parser(
        "fuzz", help="cost-guided pathological-instance fuzzing"
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    def add_corpus_arg(p):
        p.add_argument(
            "--corpus", default=None,
            help="corpus directory (default: benchmarks/fuzz_corpus)",
        )

    p_frun = fuzz_sub.add_parser(
        "run", help="time-boxed fuzz campaign (report-only, always exit 0)"
    )
    p_frun.add_argument(
        "--objective", default="rounds",
        help="cost to maximize: rounds, bits, recolor, escalations, wall, "
        "or trace:<section>[:bits|rounds|wall] (e.g. trace:acd.buddy:bits)",
    )
    p_frun.add_argument(
        "--generators", default=None, metavar="G1,G2",
        help="comma-separated generator subset (default: all fuzzable)",
    )
    p_frun.add_argument("--seed", type=int, default=0, help="root seed")
    p_frun.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; iteration k is deterministic in the root "
        "seed, the budget only decides how many run",
    )
    p_frun.add_argument(
        "--iters", type=int, default=None,
        help="exact iteration count (overrides --budget; fully deterministic)",
    )
    p_frun.add_argument(
        "--margin", type=float, default=1.25,
        help="normalized-score threshold for a find (times the baseline)",
    )
    p_frun.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-candidate cell budget in seconds",
    )
    p_frun.add_argument(
        "--no-minimize", action="store_true",
        help="record finds as discovered, skip the greedy shrink",
    )
    p_frun.add_argument("--json", action="store_true")
    p_frun.add_argument("--quiet", action="store_true", help="no progress stream")
    add_corpus_arg(p_frun)
    p_frun.set_defaults(func=_cmd_fuzz_run)

    p_flist = fuzz_sub.add_parser("list", help="list corpus entries")
    p_flist.add_argument(
        "--pathologies", action="store_true",
        help="list the pinned pathology suite instead of the working corpus",
    )
    p_flist.add_argument("--json", action="store_true")
    add_corpus_arg(p_flist)
    p_flist.set_defaults(func=_cmd_fuzz_list)

    p_freplay = fuzz_sub.add_parser(
        "replay", help="re-run entries, gate score + coloring digest (exit 1 on mismatch)"
    )
    p_freplay.add_argument(
        "entries", nargs="*", help="entry ids, id prefixes, or paths"
    )
    p_freplay.add_argument("--all", action="store_true", help="replay every entry")
    p_freplay.add_argument(
        "--pathologies", action="store_true",
        help="replay the pinned pathology entries instead of the working corpus",
    )
    p_freplay.add_argument(
        "--timeout", type=float, default=60.0, help="per-entry cell budget"
    )
    add_corpus_arg(p_freplay)
    p_freplay.set_defaults(func=_cmd_fuzz_replay)

    p_fpromote = fuzz_sub.add_parser(
        "promote", help="pin corpus entries into the pathology suite"
    )
    p_fpromote.add_argument("entries", nargs="+", help="entry ids or paths")
    p_fpromote.add_argument(
        "--dest", default=None,
        help="target directory (default: benchmarks/pathologies)",
    )
    add_corpus_arg(p_fpromote)
    p_fpromote.set_defaults(func=_cmd_fuzz_promote)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
