"""Command-line interface of the ZOOM reproduction.

Subcommands::

    zoom demo                         walk through the paper's running example
    zoom generate ...                 emit a synthetic workflow spec as JSON
    zoom load ...                     simulate runs and load a SQLite warehouse
    zoom view ...                     build (and optionally store) a user view
    zoom prov ...                     answer a provenance query through a view
    zoom dot ...                      render a run or spec as Graphviz DOT
    zoom opm ...                      export a run's provenance as OPM JSON
    zoom plan ...                     re-execution plan after an input change
    zoom diff ...                     compare two runs through a view
    zoom stats ...                    aggregate warehouse statistics
    zoom index ...                    manage the reachability-label index
    zoom ingest ...                   load a foreign JSON Lines trace
    zoom lint ...                     statically analyse specs/warehouses
    zoom serve ...                    answer a concurrent query load
    zoom dump / zoom restore          archive a warehouse to/from JSON

Every subcommand works against a SQLite warehouse file, so a shell
session can reproduce the paper's workflow end to end without writing
Python.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.builder import build_user_view
from ..core.spec import WorkflowSpec
from ..core.view import UserView
from ..warehouse.sqlite import SqliteWarehouse
from ..workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from ..workloads.generator import generate_workflow
from ..workloads.phylogenomic import (
    JOE_RELEVANT,
    MARY_RELEVANT,
    phylogenomic_run,
    phylogenomic_spec,
)
from ..workloads.runs import generate_run
from .dot import run_to_dot, spec_to_dot
from .session import Session

if TYPE_CHECKING:  # pragma: no cover — annotation-only
    from ..serve import QueryService

#: One ``zoom serve`` request: (query kind, run id, data id, view).
_Request = Tuple[str, str, Optional[str], Optional[UserView]]


def _cmd_demo(_args: argparse.Namespace) -> int:
    """Run the paper's Section II walkthrough and print what each user sees."""
    spec = phylogenomic_spec()
    run = phylogenomic_run(spec)
    warehouse = SqliteWarehouse()
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)

    print("Phylogenomic workflow: %d modules, run of %d steps, %d data objects"
          % (len(spec), run.num_steps(), len(run.data_ids())))
    for user, relevant in (("Joe", JOE_RELEVANT), ("Mary", MARY_RELEVANT)):
        session = Session(warehouse, spec_id, user=user)
        session.set_relevant(relevant)
        print("\n%s flags %s as relevant -> view of size %d:"
              % (user, sorted(relevant), session.view.size()))
        for composite in sorted(session.view.composites):
            print("  %-8s = %s" % (composite, sorted(session.view.members(composite))))
        answer = session.deep_provenance(run_id, "d447")
        print("%s's deep provenance of d447: %d tuples, %d steps, %d data objects"
              % (user, answer.num_tuples(), len(answer.steps()), len(answer.data())))
        visible = "d411" in session.visible_data(run_id)
        print("  d411 (rectified alignment) visible to %s: %s" % (user, visible))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic workflow and print/write it as JSON."""
    workflow_class = WORKFLOW_CLASSES[args.workflow_class]
    rng = random.Random(args.seed)
    generated = generate_workflow(
        workflow_class, rng, target_size=args.size, name=args.name
    )
    payload = generated.spec.to_dict()
    payload["suggested_relevant"] = sorted(generated.suggested_relevant)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print("wrote %s (%d modules)" % (args.out, len(generated.spec)))
    else:
        print(text)
    return 0


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, not %d" % value)
    return value


def _read_spec(path: str) -> WorkflowSpec:
    with open(path) as handle:
        return WorkflowSpec.from_dict(json.load(handle))


def _cmd_load(args: argparse.Namespace) -> int:
    """Simulate runs of a spec and load everything into a warehouse file.

    With ``--batch`` the runs go through the batched ingestion pipeline
    (identical warehouse contents, single-transaction bulk writes); the
    default remains the serial run-at-a-time loop.
    ``--resume`` (continue a crashed load) and ``--on-error quarantine``
    (divert failing runs) always use the pipeline — the crash-safety
    machinery lives there.
    """
    spec = _read_spec(args.spec)
    run_class = RUN_CLASSES[args.run_class]
    rng = random.Random(args.seed)
    use_pipeline = args.batch > 0 or args.resume or args.on_error != "abort"
    with SqliteWarehouse(args.db) as warehouse:
        if use_pipeline:
            from ..warehouse.pipeline import DEFAULT_BATCH_SIZE, ingest_dataset

            simulations = [
                generate_run(
                    spec, run_class, rng,
                    run_id="%s/run%d" % (spec.name, number),
                )
                for number in range(1, args.runs + 1)
            ]
            record = ingest_dataset(
                warehouse, [(spec, simulations)],
                batch_size=args.batch or DEFAULT_BATCH_SIZE,
                with_standard_views=False,
                resume=args.resume, on_error=args.on_error,
            )[0]
            spec_id = record.spec_id
            by_id = {
                "%s/run%d" % (spec_id, number): result
                for number, result in enumerate(simulations, start=1)
            }
            for run_id in record.run_ids:
                result = by_id.get(run_id)
                if result is not None:
                    print("stored %s: %d steps, %d data objects"
                          % (run_id, result.run.num_steps(),
                             len(result.run.data_ids())))
                else:
                    print("stored %s" % run_id)
            quarantined = warehouse.quarantine_list()
            if quarantined:
                print("%d run(s) quarantined (inspect with"
                      " 'zoom quarantine list'):" % len(quarantined))
                for run_id in quarantined:
                    record = warehouse.quarantine_get(run_id)
                    print("  %s: %s" % (run_id, record.reason))
        else:
            spec_id = warehouse.store_spec(spec)
            for number in range(1, args.runs + 1):
                result = generate_run(
                    spec, run_class, rng, run_id="%s/run%d" % (spec_id, number)
                )
                run_id = warehouse.store_run(result.run, spec_id)
                print("stored %s: %d steps, %d data objects"
                      % (run_id, result.run.num_steps(),
                         len(result.run.data_ids())))
    print("spec %r and %d run(s) loaded into %s" % (spec_id, args.runs, args.db))
    return 0


def _cmd_view(args: argparse.Namespace) -> int:
    """Build a user view from relevant modules; optionally store it."""
    with SqliteWarehouse(args.db) as warehouse:
        session = Session(warehouse, args.spec_id, user=args.user)
        session.set_relevant(args.relevant)
        view = session.view
        if args.optimize:
            from ..core.optimize import local_search_minimize

            optimised = local_search_minimize(
                session.spec, args.relevant, start=view,
                name="%s-view" % args.user,
            )
            if optimised.size() < view.size():
                print("local search shrank the view: %d -> %d composites"
                      % (view.size(), optimised.size()))
                view = optimised
                session.use_view(view)
        print("view of size %d for relevant=%s" % (view.size(), sorted(args.relevant)))
        for composite in sorted(view.composites):
            print("  %-10s = %s" % (composite, sorted(view.members(composite))))
        if args.save:
            view_id = session.save_view(args.view_id)
            print("stored as view %r" % view_id)
    return 0


def _cmd_prov(args: argparse.Namespace) -> int:
    """Answer a deep-provenance query through a view."""
    with SqliteWarehouse(args.db) as warehouse:
        spec_id = warehouse.run_spec_id(args.run_id)
        session = Session(
            warehouse, spec_id, user=args.user, strategy=args.strategy
        )
        if args.view_id:
            session.use_view(warehouse.get_view(args.view_id))
        elif args.relevant:
            session.set_relevant(args.relevant)
        data_id = args.data
        if data_id is None:
            data_id = sorted(warehouse.final_outputs(args.run_id))[0]
        answer = session.deep_provenance(args.run_id, data_id)
        if args.format == "report":
            from .report import provenance_report

            composite = session.reasoner.composite_run(
                args.run_id, session.view
            )
            print(provenance_report(answer, composite))
        else:
            print("deep provenance of %s under view %r: %d tuples"
                  % (data_id, answer.view_name, answer.num_tuples()))
            for row in answer.sorted_rows():
                print("  %-12s %-16s reads %s"
                      % (row.step_id, row.module, row.data_in))
            if answer.user_inputs:
                print("  user inputs: %s"
                      % ", ".join(sorted(answer.user_inputs)))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    """Emit a DOT rendering of a stored spec or run."""
    with SqliteWarehouse(args.db) as warehouse:
        if args.run_id:
            print(run_to_dot(warehouse.get_run(args.run_id)))
        else:
            print(spec_to_dot(warehouse.get_spec(args.spec_id)))
    return 0


def _views_for_run(warehouse, args) -> list:
    """Resolve the views named by --view-id/--relevant for one run."""
    from ..core.composite import CompositeRun
    from ..core.view import admin_view

    run = warehouse.get_run(args.run_id)
    views = []
    if args.view_id:
        for view_id in args.view_id:
            views.append(warehouse.get_view(view_id))
    elif args.relevant:
        views.append(build_user_view(run.spec, args.relevant, name="UView"))
    else:
        views.append(admin_view(run.spec))
    return [CompositeRun(run, view) for view in views]


def _cmd_opm(args: argparse.Namespace) -> int:
    """Export a run's provenance as an OPM document (one account/view)."""
    from ..provenance.opm import export_opm, to_json

    with SqliteWarehouse(args.db) as warehouse:
        composite_runs = _views_for_run(warehouse, args)
        document = export_opm(composite_runs, run_id=args.run_id)
        text = to_json(document)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print("wrote %s (%d account(s))" % (args.out, len(composite_runs)))
        else:
            print(text)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Print the re-execution plan after changing some user inputs."""
    from ..provenance.invalidation import ReexecutionPlanner

    with SqliteWarehouse(args.db) as warehouse:
        planner = ReexecutionPlanner(warehouse)
        if args.relevant:
            spec = warehouse.get_spec(warehouse.run_spec_id(args.run_id))
            view = build_user_view(spec, args.relevant, name="UView")
            plan = planner.plan_through_view(args.run_id, args.changed, view)
        else:
            plan = planner.plan(args.run_id, args.changed)
        print("changed inputs: %s" % ", ".join(sorted(plan.changed_inputs)))
        print("stale steps (%d, re-execute in order):" % len(plan.stale_steps))
        for step in plan.stale_steps:
            print("  %s" % step)
        print("fresh steps reusable: %d" % len(plan.fresh_steps))
        print("final outputs to re-derive: %s"
              % (", ".join(sorted(plan.stale_outputs)) or "none"))
        print("work fraction: %.0f%%" % (100 * plan.work_fraction()))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two runs of the same specification through a view."""
    from ..core.view import admin_view
    from ..provenance.rundiff import diff_runs

    with SqliteWarehouse(args.db) as warehouse:
        run_a = warehouse.get_run(args.run_a)
        run_b = warehouse.get_run(args.run_b)
        if args.relevant:
            view = build_user_view(run_a.spec, args.relevant, name="UView")
        elif args.view_id:
            view = warehouse.get_view(args.view_id)
        else:
            view = admin_view(run_a.spec)
        report = diff_runs(run_a, run_b, view)
        if report.identical():
            print("runs are identical at view %r granularity" % view.name)
            return 0
        print("differences at view %r granularity:" % view.name)
        for delta in report.changed_modules():
            print("  %-16s executions %d -> %d"
                  % (delta.composite, delta.executions_a, delta.executions_b))
        for delta in report.changed_edges():
            print("  %-16s data volume %d -> %d"
                  % ("%s->%s" % (delta.src, delta.dst),
                     delta.volume_a, delta.volume_b))
        if report.user_inputs[0] != report.user_inputs[1]:
            print("  user inputs %d -> %d" % report.user_inputs)
    return 0


def _probe_caches(warehouse, run_id: str, relevant: Optional[List[str]]) -> None:
    """Exercise a session against one run and print cache/timing stats.

    Runs the showcase query cold, switches to UAdmin and back (the paper's
    interactive pattern), and prints the session's per-cache counters plus
    the hot-path timers — the quickest way to see hit rates on real data.
    """
    from ..obs import format_stats, get_registry

    spec_id = warehouse.run_spec_id(run_id)
    session = Session(warehouse, spec_id)
    if relevant:
        session.set_relevant(relevant)
    session.final_output_provenance(run_id)   # cold: closure + materialise
    session.final_output_provenance(run_id)   # warm: pure cache hits
    modules = sorted(session.spec.modules)
    session.flag(modules[0])                  # switch granularity ...
    session.final_output_provenance(run_id)
    session.unflag(modules[0])                # ... and back
    session.final_output_provenance(run_id)
    session.flag(modules[0])                  # back again: memoised view
    session.final_output_provenance(run_id)
    print(format_stats(session.stats(), title="session caches after probe"))
    print(format_stats(get_registry().snapshot(), title="hot-path metrics"))


def _cmd_stats(args: argparse.Namespace) -> int:
    """Print aggregate statistics of a warehouse."""
    from ..warehouse.stats import hottest_modules, warehouse_report

    with SqliteWarehouse(args.db, timing=args.probe_run is not None) as warehouse:
        report = warehouse_report(warehouse)
        print("warehouse %s" % args.db)
        print("  specs: %d, views: %d, runs: %d"
              % (report.specs, report.views, report.runs))
        print("  total steps: %d, io rows: %d, data objects: %d"
              % (report.total_steps, report.total_io_rows,
                 report.total_data_objects))
        if report.largest_run is not None:
            largest = report.largest_run
            print("  largest run: %s (%d steps, %d data objects)"
                  % (largest.run_id, largest.steps, largest.data_objects))
        for spec_id in warehouse.list_specs():
            if not warehouse.list_runs(spec_id):
                continue
            hottest = hottest_modules(warehouse, spec_id, top=3)
            print("  %s hottest modules: %s"
                  % (spec_id,
                     ", ".join("%s (%d)" % pair for pair in hottest)))
        if args.probe_run:
            _probe_caches(warehouse, args.probe_run, args.relevant)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """Manage the compact reachability-label index of a warehouse."""
    with SqliteWarehouse(args.db) as warehouse:
        run_ids = (
            warehouse.list_runs() if args.all
            else args.run_id or warehouse.list_runs()
        )
        if args.action == "build":
            for run_id in run_ids:
                rows = warehouse.build_label_index(run_id, rebuild=args.rebuild)
                print("labeled %s: %d label rows" % (run_id, rows))
        elif args.action == "drop":
            dropped = []
            for run_id in run_ids:
                dropped.extend(warehouse.drop_label_index(run_id))
            print("dropped label index of %d run(s)%s"
                  % (len(dropped),
                     ": %s" % ", ".join(dropped) if dropped else ""))
        else:  # status
            status = warehouse.label_index_status()
            indexed = sum(1 for rows in status.values() if rows is not None)
            print("label index: %d of %d run(s) indexed"
                  % (indexed, len(status)))
            for run_id in run_ids:
                rows = status.get(run_id)
                print("  %-24s %s"
                      % (run_id,
                         "not indexed" if rows is None
                         else "%d rows" % rows))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Load a foreign trace file (JSON Lines) into the warehouse."""
    from ..run.trace import read_trace

    with SqliteWarehouse(args.db) as warehouse:
        log = read_trace(args.trace)
        run_id = warehouse.store_log(log, args.spec_id, run_id=args.run_id)
        print("ingested trace as run %r (%d events)" % (run_id, len(log)))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyse a spec file and/or a warehouse (provlint)."""
    from ..lint import RULES, LintReport, Linter, RuleConfig

    if args.rules:
        for rule in RULES.all_rules():
            print("%-8s %-9s %-10s %s"
                  % (rule.rule_id, rule.severity, rule.layer, rule.summary))
        return 0
    if not args.spec and not args.db and not args.source:
        print("zoom lint: provide --spec, --db and/or --source (or --rules)",
              file=sys.stderr)
        return 2
    try:
        config = RuleConfig.build(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print("zoom lint: %s" % exc.args[0], file=sys.stderr)
        return 2
    linter = Linter(config=config, check_minimality=args.minimality)
    if args.open_run_age is not None:
        linter.open_run_age = args.open_run_age
    report = LintReport()
    if args.spec:
        with open(args.spec) as handle:
            report.merge(linter.lint_spec(json.load(handle)))
    if args.db:
        with SqliteWarehouse(args.db) as warehouse:
            report.merge(linter.lint_warehouse(
                warehouse,
                spec_ids=args.spec_id or None,
                run_ids=args.run_id or None,
            ))
    if args.source:
        report.merge(linter.lint_source(args.source))
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    failed = args.strict and report.has_errors
    if args.max_warnings is not None:
        failed = failed or len(report.warnings()) > args.max_warnings
    return 1 if failed else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Repair a warehouse after a crashed load (journal + integrity)."""
    from ..warehouse.recovery import recover

    with SqliteWarehouse(args.db) as warehouse:
        report = recover(warehouse)
        print(report.summary())
        return 0 if report.integrity_ok else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    """Inspect runs open for streaming appends."""
    with SqliteWarehouse(args.db) as warehouse:
        states = warehouse.stream_states()
        if not states:
            print("no open streams")
            return 0
        now = time.time()
        for run_id, state in sorted(states.items()):
            age = ("?" if state.opened_at is None
                   else "%.0f" % max(now - state.opened_at, 0.0))
            print("%s: spec %s, epoch %d, open %s s"
                  % (run_id, state.spec_id, state.epoch, age))
        return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    """Inspect and retry runs quarantined by ``load --on-error quarantine``."""
    from ..warehouse.recovery import retry_quarantined

    with SqliteWarehouse(args.db) as warehouse:
        if args.action == "list":
            run_ids = warehouse.quarantine_list()
            if not run_ids:
                print("quarantine empty")
                return 0
            for run_id in run_ids:
                record = warehouse.quarantine_get(run_id)
                where = ("" if record.event_index is None
                         else " (event %d)" % record.event_index)
                print("%s: %s%s" % (run_id, record.reason, where))
            return 0
        if args.action == "show":
            if not args.run_id:
                print("zoom quarantine show: --run-id is required",
                      file=sys.stderr)
                return 2
            record = warehouse.quarantine_get(args.run_id)
            print(json.dumps({
                "run_id": record.run_id,
                "spec_id": record.spec_id,
                "source_run_id": record.source_run_id,
                "reason": record.reason,
                "event_index": record.event_index,
                "steps": len(record.step_rows),
                "io_rows": len(record.io_rows),
                "user_inputs": len(record.user_inputs),
                "final_outputs": len(record.final_outputs),
            }, indent=2, sort_keys=True))
            return 0
        outcomes = retry_quarantined(
            warehouse,
            run_ids=[args.run_id] if args.run_id else None,
            force=args.force,
        )
        if not outcomes:
            print("quarantine empty")
            return 0
        for run_id in sorted(outcomes):
            print("%s: %s" % (run_id, outcomes[run_id]))
        return 0 if all(o == "stored" for o in outcomes.values()) else 1


#: How long a ``zoom serve`` client retries an admission rejection.
_RETRY_SECONDS = 5.0


def _drive(
    service: "QueryService", requests: List[_Request], client_threads: int,
) -> Dict[str, Any]:
    """Push every request through the service from ``client_threads`` clients."""
    from ..sanitize import make_lock
    from ..serve import AdmissionError

    cursor_lock = make_lock("serve.cli.cursor")
    collect = make_lock("serve.cli.collect")
    cursor = {"next": 0}             # guarded-by: cursor_lock
    latencies: List[float] = []      # guarded-by: collect
    errors: List[str] = []           # guarded-by: collect
    retried = [0]                    # guarded-by: collect

    def client() -> None:
        local: List[float] = []
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(requests):
                    break
                cursor["next"] = index + 1
            kind, run_id, data_id, view = requests[index]
            started = time.perf_counter()
            deadline = started + _RETRY_SECONDS
            while True:
                try:
                    service.query(kind, run_id, data_id=data_id, view=view)
                except AdmissionError:
                    with collect:
                        retried[0] += 1
                    if time.perf_counter() > deadline:
                        with collect:
                            errors.append("admission retry budget exhausted")
                        break
                    time.sleep(0.001)
                    continue
                except Exception as exc:  # noqa: BLE001 - report, don't hang
                    with collect:
                        errors.append("%s: %s" % (type(exc).__name__, exc))
                    break
                local.append(time.perf_counter() - started)
                break
        with collect:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client, name="serve-client-%d" % i)
        for i in range(client_threads)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "latencies": latencies,
        "errors": errors,
        "admission_retries": retried[0],
        "wall_seconds": time.perf_counter() - wall_start,
    }


def _phase_summary(raw: Dict[str, Any], requests: int) -> Dict[str, Any]:
    """Latency percentiles (nearest rank) and QPS of one :func:`_drive`."""
    ordered = sorted(raw["latencies"])
    wall = raw["wall_seconds"]

    def percentile_ms(q: float) -> float:
        if not ordered:
            return 0.0
        rank = int(round(q / 100.0 * (len(ordered) - 1)))
        return round(ordered[rank] * 1000.0, 3)

    return {
        "requests": requests,
        "completed": len(ordered),
        "errors": len(raw["errors"]),
        "admission_retries": raw["admission_retries"],
        "wall_seconds": round(wall, 4),
        "qps": round(len(ordered) / wall, 2) if wall > 0 else 0.0,
        "mean_ms": round(sum(ordered) / len(ordered) * 1000.0, 3) if ordered else 0.0,
        "p50_ms": percentile_ms(50),
        "p95_ms": percentile_ms(95),
        "p99_ms": percentile_ms(99),
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a mixed query load against an existing warehouse, concurrently."""
    from ..serve import QueryService

    with SqliteWarehouse(args.db) as warehouse:
        run_ids = args.run_id or sorted(warehouse.list_runs())
        if not run_ids:
            print("no runs in %s" % args.db, file=sys.stderr)
            return 1
        requests = []
        views = {}
        for run_id in run_ids:
            view = None
            if args.relevant:
                spec = warehouse.get_spec(warehouse.run_spec_id(run_id))
                view = build_user_view(spec, args.relevant, name="UView")
            views[run_id] = view
            outputs = sorted(warehouse.final_outputs(run_id))
            inputs = sorted(warehouse.user_inputs(run_id))
            if outputs:
                requests.append(("deep", run_id, outputs[0], view))
            if inputs:
                requests.append(("reverse", run_id, inputs[0], view))
            if view is not None:
                requests.append(("zoom", run_id, None, view))
        sequence = [requests[i % len(requests)] for i in range(args.requests)]
        service = QueryService(
            warehouse,
            strategy=args.strategy,
            workers=args.workers,
            queue_size=args.queue_size,
        )
        try:
            for run_id in run_ids:
                view = views[run_id]
                service.warm([run_id], views=[view] if view is not None else [])
            with service:
                raw = _drive(service, sequence, args.clients)
            summary = _phase_summary(raw, len(sequence))
            summary["service"] = {
                "qps": service.stats()["qps"],
                "rejected": service.stats()["rejected"],
            }
        finally:
            service.close()
        print(json.dumps(summary, indent=2))
        return 1 if raw["errors"] else 0


def _cmd_dump(args: argparse.Namespace) -> int:
    """Archive a SQLite warehouse to a JSON file."""
    from ..warehouse.jsonfile import save_warehouse

    with SqliteWarehouse(args.db) as warehouse:
        save_warehouse(warehouse, args.out)
        print("dumped %d spec(s), %d run(s) to %s"
              % (len(warehouse.list_specs()), len(warehouse.list_runs()),
                 args.out))
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    """Rebuild a SQLite warehouse from a JSON archive."""
    from ..warehouse.jsonfile import load_warehouse

    with SqliteWarehouse(args.db) as warehouse:
        load_warehouse(args.archive, into=warehouse)
        print("restored %d spec(s), %d run(s) into %s"
              % (len(warehouse.list_specs()), len(warehouse.list_runs()),
                 args.db))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="zoom",
        description="ZOOM*UserViews reproduction: provenance through user views",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="walk through the paper's running example")

    gen = sub.add_parser("generate", help="generate a synthetic workflow spec")
    gen.add_argument("--class", dest="workflow_class", default="Class2",
                     choices=sorted(WORKFLOW_CLASSES))
    gen.add_argument("--size", type=int, default=None,
                     help="target module count (default: class average)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", default="synthetic")
    gen.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    load = sub.add_parser("load", help="simulate runs into a SQLite warehouse")
    load.add_argument("--db", required=True)
    load.add_argument("--spec", required=True, help="spec JSON (from 'generate')")
    load.add_argument("--run-class", default="small", choices=sorted(RUN_CLASSES))
    load.add_argument("--runs", type=int, default=1)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--batch", type=_non_negative_int, default=0,
                      help="runs committed per bulk transaction (implies"
                           " the batched pipeline; 0: serial reference"
                           " path)")
    load.add_argument("--resume", action="store_true",
                      help="continue a crashed load: recover the ingest"
                           " journal, then skip already-committed runs")
    load.add_argument("--on-error", choices=["abort", "quarantine"],
                      default="abort",
                      help="what to do when a run fails ingestion:"
                           " abort the load (default) or quarantine the"
                           " run and continue")

    view = sub.add_parser("view", help="build a user view from relevant modules")
    view.add_argument("--db", required=True)
    view.add_argument("--spec-id", required=True)
    view.add_argument("--relevant", nargs="+", required=True)
    view.add_argument("--user", default="user")
    view.add_argument("--save", action="store_true")
    view.add_argument("--view-id", default=None)
    view.add_argument("--optimize", action="store_true",
                      help="run local search toward a minimum view")

    prov = sub.add_parser("prov", help="deep provenance through a view")
    prov.add_argument("--db", required=True)
    prov.add_argument("--run-id", required=True)
    prov.add_argument("--data", default=None,
                      help="data id (default: the run's first final output)")
    prov.add_argument("--relevant", nargs="*", default=None)
    prov.add_argument("--view-id", default=None)
    prov.add_argument("--user", default="user")
    prov.add_argument("--format", choices=["rows", "report"], default="rows")
    prov.add_argument("--strategy", default="cached",
                      choices=["cached", "uncached", "labeled"],
                      help="reasoner strategy; 'labeled' serves from (and"
                           " lazily builds) the compact reachability"
                           " labels")

    dot = sub.add_parser("dot", help="render a stored spec or run as DOT")
    dot.add_argument("--db", required=True)
    dot.add_argument("--spec-id", default=None)
    dot.add_argument("--run-id", default=None)

    opm = sub.add_parser("opm", help="export a run's provenance as OPM JSON")
    opm.add_argument("--db", required=True)
    opm.add_argument("--run-id", required=True)
    opm.add_argument("--view-id", nargs="*", default=None,
                     help="stored views to export (one OPM account each)")
    opm.add_argument("--relevant", nargs="*", default=None)
    opm.add_argument("--out", default=None)

    plan = sub.add_parser("plan", help="re-execution plan after input change")
    plan.add_argument("--db", required=True)
    plan.add_argument("--run-id", required=True)
    plan.add_argument("--changed", nargs="+", required=True,
                      help="user-input data ids declared stale")
    plan.add_argument("--relevant", nargs="*", default=None,
                      help="present the plan at this view's granularity")

    diff = sub.add_parser("diff", help="compare two runs through a view")
    diff.add_argument("--db", required=True)
    diff.add_argument("--run-a", required=True)
    diff.add_argument("--run-b", required=True)
    diff.add_argument("--relevant", nargs="*", default=None)
    diff.add_argument("--view-id", default=None)

    stats = sub.add_parser("stats", help="aggregate warehouse statistics")
    stats.add_argument("--db", required=True)
    stats.add_argument("--probe-run", default=None,
                       help="run id: exercise a session against it and"
                            " print cache hit rates and hot-path timings")
    stats.add_argument("--relevant", nargs="*", default=None,
                       help="modules flagged relevant during the probe")

    index = sub.add_parser(
        "index",
        help="build, inspect or drop the compact reachability labels",
    )
    index.add_argument("action", choices=["build", "status", "drop"])
    index.add_argument("--db", required=True)
    index.add_argument("--run-id", nargs="*", default=None,
                       help="restrict to these runs (default: every run)")
    index.add_argument("--all", action="store_true",
                       help="explicitly target every stored run (overrides"
                            " --run-id)")
    index.add_argument("--rebuild", action="store_true",
                       help="recompute even when an index already exists")

    ingest = sub.add_parser("ingest",
                            help="load a JSON Lines trace into the warehouse")
    ingest.add_argument("--db", required=True)
    ingest.add_argument("--spec-id", required=True)
    ingest.add_argument("--trace", required=True)
    ingest.add_argument("--run-id", default=None)

    lint = sub.add_parser(
        "lint",
        help="static analysis of specs, runs, views and warehouses",
    )
    lint.add_argument("--spec", default=None,
                      help="spec JSON file (from 'generate') to lint")
    lint.add_argument("--db", default=None,
                      help="SQLite warehouse to audit at rest")
    lint.add_argument("--spec-id", nargs="*", default=None,
                      help="restrict the warehouse audit to these specs")
    lint.add_argument("--run-id", nargs="*", default=None,
                      help="restrict the warehouse audit to these runs")
    lint.add_argument("--source", nargs="*", default=None, metavar="PATH",
                      help="Python files/directories to check with the"
                           " SRC0xx concurrency rules (e.g. src/repro)")
    lint.add_argument("--open-run-age", type=float, default=None,
                      metavar="SECONDS",
                      help="WH046 threshold: flag streaming runs open for"
                           " at least this many seconds (default 0 — every"
                           " open run; raise it when producers are live)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero when error-severity findings exist")
    lint.add_argument("--max-warnings", type=int, default=None, metavar="N",
                      help="exit nonzero when more than N warning-severity"
                           " findings exist (0 = none tolerated)")
    lint.add_argument("--select", nargs="*", default=None,
                      help="enable only these rule ids")
    lint.add_argument("--ignore", nargs="*", default=None,
                      help="disable these rule ids")
    lint.add_argument("--minimality", action="store_true",
                      help="also run the quadratic minimality oracle")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalogue and exit")

    recov = sub.add_parser(
        "recover",
        help="repair a warehouse after a crashed load (journal + indexes)",
    )
    recov.add_argument("--db", required=True)

    stream = sub.add_parser(
        "stream",
        help="inspect runs open for streaming appends",
    )
    stream.add_argument("action", choices=["status"])
    stream.add_argument("--db", required=True)

    quarantine = sub.add_parser(
        "quarantine",
        help="inspect and retry runs quarantined during ingestion",
    )
    quarantine.add_argument("action", choices=["list", "show", "retry"])
    quarantine.add_argument("--db", required=True)
    quarantine.add_argument("--run-id", default=None,
                            help="restrict to one quarantined run"
                                 " (required for 'show')")
    quarantine.add_argument("--force", action="store_true",
                            help="store on retry even when the lint gate"
                                 " still finds errors")

    serve = sub.add_parser(
        "serve",
        help="answer a concurrent mixed query load from a warehouse",
    )
    serve.add_argument("--db", required=True)
    serve.add_argument("--run-id", action="append", default=None,
                       help="serve only these runs (default: all)")
    serve.add_argument("--relevant", nargs="*", default=None,
                       help="build a user view from these modules and mix"
                            " view queries into the load")
    serve.add_argument("--strategy", default="cached",
                       choices=["cached", "uncached", "labeled"])
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--clients", type=int, default=8)
    serve.add_argument("--queue-size", type=int, default=64)
    serve.add_argument("--requests", type=int, default=100)

    dump = sub.add_parser("dump", help="archive a warehouse to JSON")
    dump.add_argument("--db", required=True)
    dump.add_argument("--out", required=True)

    restore = sub.add_parser("restore", help="rebuild a warehouse from JSON")
    restore.add_argument("--db", required=True)
    restore.add_argument("--archive", required=True)

    return parser


_COMMANDS = {
    "demo": _cmd_demo,
    "generate": _cmd_generate,
    "load": _cmd_load,
    "view": _cmd_view,
    "prov": _cmd_prov,
    "dot": _cmd_dot,
    "opm": _cmd_opm,
    "plan": _cmd_plan,
    "diff": _cmd_diff,
    "stats": _cmd_stats,
    "index": _cmd_index,
    "ingest": _cmd_ingest,
    "lint": _cmd_lint,
    "recover": _cmd_recover,
    "stream": _cmd_stream,
    "quarantine": _cmd_quarantine,
    "serve": _cmd_serve,
    "dump": _cmd_dump,
    "restore": _cmd_restore,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
