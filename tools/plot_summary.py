#!/usr/bin/env python3
"""Render rsep benchmark outputs as figure images.

Two input formats are auto-detected:

1. `rsep_merge --summary` CSV (stat_merge.cc, writeFigureSummary):

    # per-benchmark speedup bars over '<baseline>' (percent)
    benchmark,scenario,config_hash,ipc_hmean,speedup_pct
    mcf,rsep,2ca460ee67616cb1,0.139027,8.67
    ...
    gmean,rsep,2ca460ee67616cb1,,3.12

   drawn as the Fig. 4/6/7-style grouped speedup bars (one group per
   benchmark, one bar per scenario arm) with the gmean rows as a
   legend annotation.

2. Time-series sample CSV (`rsep_samples dump`/`merge` over the `.rts`
   files a `--sample-every` run writes; detected by the
   `benchmark,scenario,config_hash,phase,cycle,...` header):
   per-window IPC timelines, one panel per (benchmark, phase) cell with
   one line per scenario arm — the phase-behaviour view of the paper's
   speedup bars.

Both modes need matplotlib, which is deliberately NOT a build
dependency: when matplotlib is missing the script exits with status 2
and a clear message, so CI can treat the image as an optional artifact.

    rsep_merge --summary bars.csv shard*.csv
    tools/plot_summary.py bars.csv -o bars.png
    rsep_samples merge --csv timeline.csv samples/*.rts
    tools/plot_summary.py timeline.csv -o timeline.png
"""

import argparse
import csv
import sys


def parse_summary(path):
    """Return (rows, gmeans): per-benchmark bars and per-arm gmean %."""
    rows = []  # (benchmark, scenario, speedup_pct)
    gmeans = {}  # scenario -> speedup_pct
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        expect = ["benchmark", "scenario", "config_hash", "ipc_hmean",
                  "speedup_pct"]
        if header != expect:
            sys.exit(f"{path}: not an rsep_merge --summary file "
                     f"(header {header!r}, expected {expect!r})")
        for rec in reader:
            if len(rec) != len(expect):
                sys.exit(f"{path}: malformed row {rec!r}")
            bench, scenario, _, _, pct = rec
            try:
                pct = float(pct)
            except ValueError:
                sys.exit(f"{path}: bad speedup_pct in row {rec!r}")
            if bench == "gmean":
                gmeans[scenario] = pct
            else:
                rows.append((bench, scenario, pct))
    if not rows:
        sys.exit(f"{path}: no per-benchmark rows found")
    return rows, gmeans


def load_matplotlib():
    try:
        import matplotlib
        matplotlib.use("Agg")  # headless: no display needed in CI.
        import matplotlib.pyplot as plt
        return plt
    except ImportError:
        sys.stderr.write(
            "plot_summary: matplotlib is not available; skipping figure "
            "rendering (pip install matplotlib to enable)\n")
        sys.exit(2)


# The identity-column prefix of a sample CSV (sim/sample_io.hh,
# sampleCsvIdColumns + the leading sample field).
SAMPLE_CSV_PREFIX = "benchmark,scenario,config_hash,phase,cycle"


def parse_samples(path):
    """Return {(benchmark, phase): {scenario: [(cycle, window_ipc)]}}.

    Window IPC is the committed-inst delta of each row (the columns are
    already deltas) over the row's cycle-axis width; the final row is
    usually a partial window and is plotted as-is at its true width.
    """
    cells = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"benchmark", "scenario", "phase", "cycle",
                "committed_insts"}
        missing = need - set(reader.fieldnames or [])
        if missing:
            sys.exit(f"{path}: not a sample CSV (missing columns "
                     f"{sorted(missing)!r})")
        prev_cycle = {}  # (benchmark, scenario, phase) -> last cycle.
        for rec in reader:
            try:
                cycle = int(rec["cycle"])
                insts = int(rec["committed_insts"])
                phase = int(rec["phase"])
            except ValueError:
                sys.exit(f"{path}: malformed sample row {rec!r}")
            key = (rec["benchmark"], rec["scenario"], phase)
            width = cycle - prev_cycle.get(key, 0)
            prev_cycle[key] = cycle
            ipc = insts / width if width > 0 else 0.0
            panel = cells.setdefault((rec["benchmark"], phase), {})
            panel.setdefault(rec["scenario"], []).append((cycle, ipc))
    if not cells:
        sys.exit(f"{path}: no sample rows found")
    return cells


def plot_samples(path, args):
    """Render a sample CSV as per-cell window-IPC timelines."""
    cells = parse_samples(path)
    plt = load_matplotlib()

    panels = sorted(cells)  # (benchmark, phase), canonical order.
    fig, axes = plt.subplots(len(panels), 1,
                             figsize=(8.0, 2.2 * len(panels) + 1.0),
                             sharex=False, squeeze=False)
    total_series = 0
    for ax, key in zip((a[0] for a in axes), panels):
        bench, phase = key
        for scenario in sorted(cells[key]):
            points = cells[key][scenario]
            ax.plot([c for c, _ in points], [i for _, i in points],
                    linewidth=1.0, label=scenario)
            total_series += 1
        ax.set_title(f"{bench} (phase {phase})", fontsize=9, loc="left")
        ax.set_ylabel("window IPC", fontsize=8)
        ax.tick_params(labelsize=7)
        ax.legend(fontsize=7, ncol=2)
        ax.margins(x=0.01)
    axes[-1][0].set_xlabel("measurement cycle", fontsize=8)
    title = args.title
    if title == DEFAULT_TITLE:
        title = "Per-window IPC timelines (--sample-every)"
    fig.suptitle(title, fontsize=10)
    fig.tight_layout(rect=(0, 0, 1, 0.97))
    fig.savefig(args.output, dpi=args.dpi)
    print(f"plot_summary: wrote {args.output} "
          f"({len(panels)} panel(s), {total_series} series)")


DEFAULT_TITLE = "Speedup over baseline (percent)"


def main():
    ap = argparse.ArgumentParser(
        description="Turn rsep_merge --summary CSV or rsep_samples "
                    "sample CSV into figure images.")
    ap.add_argument("summary", help="summary CSV from rsep_merge --summary "
                                    "or a sample CSV from rsep_samples "
                                    "dump/merge")
    ap.add_argument("-o", "--output", default="summary.png",
                    help="output image path (default: %(default)s; the "
                         "extension picks the format)")
    ap.add_argument("--title", default=DEFAULT_TITLE, help="figure title")
    ap.add_argument("--dpi", type=int, default=150)
    args = ap.parse_args()

    # A sample CSV declares itself by its identity-column header;
    # everything else is the merge summary.
    with open(args.summary) as fh:
        first = fh.read(128).lstrip()
    if first.startswith(SAMPLE_CSV_PREFIX):
        plot_samples(args.summary, args)
        return

    rows, gmeans = parse_summary(args.summary)
    plt = load_matplotlib()

    benchmarks = []
    for bench, _, _ in rows:
        if bench not in benchmarks:
            benchmarks.append(bench)
    scenarios = []
    for _, scenario, _ in rows:
        if scenario not in scenarios:
            scenarios.append(scenario)
    values = {(b, s): None for b in benchmarks for s in scenarios}
    for bench, scenario, pct in rows:
        values[(bench, scenario)] = pct

    width = 0.8 / max(1, len(scenarios))
    fig_w = max(7.0, 0.38 * len(benchmarks) * max(1, len(scenarios)))
    fig, ax = plt.subplots(figsize=(fig_w, 4.5))
    for si, scenario in enumerate(scenarios):
        xs, ys = [], []
        for bi, bench in enumerate(benchmarks):
            pct = values[(bench, scenario)]
            if pct is None:
                continue
            xs.append(bi + (si - (len(scenarios) - 1) / 2) * width)
            ys.append(pct)
        label = scenario
        if scenario in gmeans:
            label += f" (gmean {gmeans[scenario]:+.2f}%)"
        ax.bar(xs, ys, width=width, label=label)

    ax.set_xticks(range(len(benchmarks)))
    ax.set_xticklabels(benchmarks, rotation=60, ha="right", fontsize=8)
    ax.set_ylabel("speedup over baseline (%)")
    ax.set_title(args.title)
    ax.axhline(0.0, color="black", linewidth=0.8)
    ax.legend(fontsize=8)
    ax.margins(x=0.01)
    fig.tight_layout()
    fig.savefig(args.output, dpi=args.dpi)
    print(f"plot_summary: wrote {args.output} "
          f"({len(benchmarks)} benchmarks x {len(scenarios)} arms)")


if __name__ == "__main__":
    main()
