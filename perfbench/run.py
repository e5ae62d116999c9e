"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists): ``gateway-mnist``,
``serve-open-small``, ``pool-flash-small``, ``gate-sim`` and, on
request only, ``pool-flash-mnist``.  Inputs come
from ``--seed``; each run sets up several times (``setup_s`` is the
median), measures for ``--seconds`` and then checks every answer
against serial ``forward_rows`` (or the event engine) outside the timed
region.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper
installed.  With ``--trace 1`` the run measures half its time untraced
and half with span wrappers installed around each layer's calls, and
reports the per-layer metrics, a self-time table and the tracing
overhead (traced minus untraced).

A human-readable report goes first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The run also
writes ``perfbench/out/result-<workload>.json`` (with the host
fingerprint) and, traced, ``perfbench/out/spans-<workload>.jsonl``.
Exit status: 0 when every check passed, 1 on a wrong answer, 2 when the
program sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import (
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    REPORT_ONLY,
    ensure_src_on_path,
    host_fingerprint,
    stop_child_processes,
)

#: workload -> (module, leading arguments of its ``run``).  The first
#: four are the ones ``BENCHMARK.json`` lists; ``pool-flash-mnist`` runs
#: on request only (README.md, "Steadiness").
WORKLOADS = {
    "gateway-mnist": ("gateway_mnist", ()),
    "serve-open-small": ("serve_open_small", ()),
    "pool-flash-small": ("pool_flash", ("pool-flash-small",)),
    "gate-sim": ("gate_sim", ()),
    "pool-flash-mnist": ("pool_flash", ("pool-flash-mnist",)),
}
LISTED = tuple(WORKLOADS)[:4]


def result_line(result, trace: bool) -> dict:
    """The driver-facing JSON object: every metric of the mode's set."""
    names = PER_LAYER if trace else END_TO_END
    values = result.layer if trace else result.e2e
    return {
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit} for name, unit in names},
    }


def render(workload, args, result, fingerprint) -> str:
    units = dict(END_TO_END + REPORT_ONLY + PER_LAYER)
    lines = [f"== perfbench {workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "host: " + json.dumps(fingerprint, sort_keys=True)]
    for check in result.checks:
        mark = "ok  " if check.ok else "FAIL"
        lines.append(f"check {mark} {check.name}"
                     + (f" ({check.detail})" if check.detail else ""))
    lines.extend(f"note {note}" for note in result.notes)
    lines.append(f"attempted={result.attempted} failed={result.failed} "
                 f"samples={json.dumps(result.counts, sort_keys=True)}")
    lines.append("end-to-end (untraced):")
    for name, value in list(result.e2e.items()) + list(
            result.report.items()):
        lines.append(f"  {name:<30} {value:>14.6g} {units.get(name, '')}")
    if args.trace:
        lines.append("per-layer (traced):")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<30} "
                         f"{result.layer.get(name, 0.0):>14.6g} {unit}")
        lines.append("self time per span (traced; share = self p50 / "
                     "base):")
        lines.append(f"  {'span':<22} {'calls':>7} {'self p50 ms':>12} "
                     f"{'self sum ms':>12}  {'base':<16} {'base value':>10}"
                     f" {'share':>8}")
        for span, calls, self_ms, self_sum, base, base_value, share \
                in result.self_table:
            lines.append(f"  {span:<22} {calls:>7} {self_ms:>12.4f} "
                         f"{self_sum:>12.1f}  {base:<16} {base_value:>10.4f}"
                         f" {share:>8.2%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    ensure_src_on_path()

    module, leading = WORKLOADS[args.workload]
    fingerprint = host_fingerprint()
    try:
        result = importlib.import_module(module).run(
            *leading, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    line = result_line(result, bool(args.trace))
    print(render(args.workload, args, result, fingerprint))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": fingerprint, "e2e": result.e2e,
              "report": result.report, "layer": result.layer,
              "counts": result.counts,
              "checks": [vars(c) for c in result.checks], "result": line}
    (OUT_DIR / f"result-{args.workload}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
