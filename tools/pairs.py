"""Run the benchmark as alternating parent/change pairs and summarise them.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs N] [--seed K]

Each pair runs `python3 bench/run.py --workload W --seed K --seconds S
--trace 0` once in each checkout, one run after the other, where S is the
`run_seconds` of CHANGE_DIR's `BENCHMARK.json`, so both sides run for the
benchmark's own length. Which side runs first alternates from pair to pair,
so a drift in the host's speed favours neither side. A run's result is the
JSON object on the last line of its standard output.

For every end-to-end metric that CHANGE_DIR's `BENCHMARK.json` declares, the
summary gives each side's median and quartiles, and the number of pairs the
change won by the metric's `better` direction; a tie counts for neither
side. Below those rows, one verdict line per metric reads, first match wins:

- `gain`: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile distance;
- `regression`: the change's median is worse than the parent's by more than
  the metric's `bound`, a fraction of the parent's median;
- `unresolved`: the parent's quartile distance is wider than the bound, and
  not every change run is better than every parent run;
- `within bound`: none of these.

The exit status is 1, naming the pair and side, when a run exits
non-zero, prints no JSON last line, or reports failed ops. Each run writes
its result files under `bench/out/` in its own checkout, as `bench/run.py`
always does.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


class RunError(Exception):
    """A benchmark run failed or printed no usable result."""


def parse_run(returncode: int, stdout: str, label: str) -> dict:
    """The JSON summary on a run's last stdout line; RunError names `label`."""
    if returncode != 0:
        raise RunError(f"{label}: bench/run.py exited with code {returncode}")
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = None
    if not isinstance(summary, dict) or not isinstance(summary.get("metrics"), dict):
        raise RunError(f"{label}: no JSON summary on the last line of output")
    if summary.get("failed", 0) > 0:
        raise RunError(f"{label}: {summary['failed']} of {summary.get('attempted')} ops failed")
    return summary


def run_once(checkout: Path, bench: dict, args, label: str) -> dict:
    argv = [*bench["command"], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return parse_run(done.returncode, done.stdout, label)


def compare(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Per metric: each side's (q1, median, q3), the change's wins and ties,
    the metric's bound, and whether every change run beat every parent run."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in side_runs]
                  for side, side_runs in zip(SIDES, zip(*pairs))}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        margins = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            **{side: tuple(float(q) for q in np.percentile(values[side], (25, 50, 75)))
               for side in SIDES},
            "wins": sum(m > 0 for m in margins),
            "ties": sum(m == 0 for m in margins),
            "pairs": len(pairs),
            # Every change run better than every parent run.
            "separated": min(sign * (p - c) for p in values["parent"]
                             for c in values["change"]) > 0,
        })
    return rows


def verdict(row: dict) -> str:
    """One line: the metric's verdict (see the module docstring) and why."""
    sign = 1.0 if row["better"] == "lower" else -1.0
    (p_q1, p_med, p_q3), c_med = row["parent"], row["change"][1]
    gap, spread, bound = sign * (p_med - c_med), p_q3 - p_q1, row["bound"]
    won = f"change won {row['wins']} of {row['pairs']} pairs"
    if 10 * row["wins"] >= 9 * row["pairs"] and gap > spread:
        return (f"{row['name']}: gain ({won}; median gap {gap:.6g} > "
                f"parent quartile distance {spread:.6g})")
    if -gap > bound * abs(p_med):
        return (f"{row['name']}: regression (change median worse by {-gap:.6g}, "
                f"{-gap / abs(p_med):.1%} of the parent median > bound {bound:.0%})")
    if spread > bound * abs(p_med) and not row["separated"]:
        return (f"{row['name']}: unresolved (parent quartile distance {spread:.6g}, "
                f"{spread / abs(p_med):.1%} of its median > bound {bound:.0%})")
    return (f"{row['name']}: within bound ({won}; change median "
            f"{(c_med - p_med) / abs(p_med):+.1%} against the parent's, bound {bound:.0%})")


def format_rows(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        sides = "; ".join(
            f"{side} median {row[side][1]:.6g} [q1 {row[side][0]:.6g}, q3 {row[side][2]:.6g}]"
            for side in SIDES
        )
        lines.append(
            f"{row['name']} ({row['unit']}, {row['better']} is better): {sides}; "
            f"change won {row['wins']} of {row['pairs']} pairs ({row['ties']} tied)"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    try:
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 else SIDES[::-1]
            runs = {side: run_once(checkouts[side], bench, args, f"pair {k} {side}")
                    for side in order}
            pairs.append((runs["parent"], runs["change"]))
            values = ", ".join(
                f"{m['name']} {runs['parent']['metrics'][m['name']]['value']:.6g}"
                f" -> {runs['change']['metrics'][m['name']]['value']:.6g}"
                for m in bench["end_to_end"]
            )
            print(f"pair {k} ({order[0]} first): {values}", flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, {len(pairs)} alternating pairs, seed {args.seed}, "
          f"{bench['run_seconds']:g} s per run:")
    rows = compare(bench["end_to_end"], pairs)
    for line in format_rows(rows):
        print(line)
    for row in rows:
        print(f"verdict {verdict(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
