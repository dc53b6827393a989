"""Run the benchmark as alternating parent/change pairs and summarise them.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs N] [--seed K]

Each pair runs `python3 bench/run.py --workload W --seed K --seconds S
--trace 0` once in each checkout, one run after the other, where S is the
`run_seconds` of CHANGE_DIR's `BENCHMARK.json`, so both sides run for the
benchmark's own length; W must be one of that file's `workloads`. Which
side runs first alternates from pair to pair, so a drift in the host's
speed favours neither side. A run's result is the JSON object on the last
line of its standard output.

For every end-to-end metric that CHANGE_DIR's `BENCHMARK.json` declares, the
summary gives each side's median and quartiles, and the number of pairs the
change won by the metric's `better` direction; a tie counts for neither
side. Below those rows, one verdict line per metric reads, first match wins:

- `gain`: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile distance
  and by more than `GAIN_FLOOR` of the parent's median;
- `regression`: the change's median is worse than the parent's by more than
  the metric's `bound`, a fraction of the parent's median;
- `unresolved`: the parent's quartile distance is wider than the bound, and
  not every change run is better than every parent run;
- `within bound`: none of these.

Below each verdict, a `ratio` line gives the median of the per-pair
change/parent ratios and a 95% percentile-bootstrap interval for it: 2,000
resamples of the pairs, drawn from a fixed seed, so the same runs always
print the same interval. It is reported beside the verdict, not used by it.

Below the ratio line, a `process-moded` line names each side whose sorted
values split into two clusters, at their widest gap between neighbours,
farther apart than the metric's `bound` times that side's median: a metric
whose value a run's process draws from one of two modes (a set-up time, say)
is then read with that in mind. It too leaves the verdict as it is.

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
RESAMPLES = 2000
GAIN_FLOOR = 0.02
"""2%: the least median gap, as a fraction of the parent's median, that can
read `gain`. A/A runs of identical code read `gain` twice without it:
gradcheck-tiny's `op_rel_p50` at seed 2 won 9 of 10 pairs at -1.2%, and
`peak_rss_mb` a 0.15 MB gap past a 0.012 MB quartile distance. 2% is the
ROADMAP's reading of gradcheck-tiny's noise (item 17)."""


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


def ratio_interval(parent: list[float], change: list[float]) -> tuple[float, float, float]:
    """The median of the per-pair change/parent ratios, and the 2.5th and
    97.5th percentiles of that median over `RESAMPLES` bootstrap resamples
    of the pairs, drawn from seed 0."""
    ratios = np.asarray(change, dtype=float) / np.asarray(parent, dtype=float)
    draws = np.random.default_rng(0).integers(len(ratios), size=(RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[draws], axis=1), (2.5, 97.5))
    return float(np.median(ratios)), float(low), float(high)


def mode_gap(values: list[float], bound: float | None) -> float | None:
    """The widest gap between neighbouring sorted values, if it is wider than
    `bound` times their median: the gap between two clusters. Else None."""
    if bound is None or len(values) < 2:
        return None
    gap = float(np.max(np.diff(np.sort(values))))
    return gap if gap > bound * abs(float(np.median(values))) else None


def compare(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Per metric: each side's (q1, median, q3), the change's wins and ties,
    the metric's bound, whether every change run beat every parent run, the
    paired change/parent ratio with its bootstrap interval, and each side's
    gap between two clusters (`mode_gap`), where it has one."""
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
            "ratio": ratio_interval(values["parent"], values["change"]),
            "modes": {side: gap for side in SIDES
                      if (gap := mode_gap(values[side], metric.get("bound"))) is not None},
        })
    return rows


def verdict(row: dict) -> str:
    """One line: the metric's verdict (see the module docstring) and why."""
    sign = 1.0 if row["better"] == "lower" else -1.0
    (p_q1, p_med, p_q3), c_med = row["parent"], row["change"][1]
    gap, spread, bound = sign * (p_med - c_med), p_q3 - p_q1, row["bound"]
    won = f"change won {row['wins']} of {row['pairs']} pairs"
    if 10 * row["wins"] >= 9 * row["pairs"] and gap > max(spread, GAIN_FLOOR * abs(p_med)):
        return (f"{row['name']}: gain ({won}; median gap {gap:.6g} > "
                f"parent quartile distance {spread:.6g} and {GAIN_FLOOR:.0%} of its median)")
    if -gap > bound * abs(p_med):
        return (f"{row['name']}: regression (change median worse by {-gap:.6g}, "
                f"{-gap / abs(p_med):.1%} of the parent median > bound {bound:.0%})")
    if spread > bound * abs(p_med) and not row["separated"]:
        return (f"{row['name']}: unresolved (parent quartile distance {spread:.6g}, "
                f"{spread / abs(p_med):.1%} of its median > bound {bound:.0%})")
    return (f"{row['name']}: within bound ({won}; change median "
            f"{(c_med - p_med) / abs(p_med):+.1%} against the parent's, bound {bound:.0%})")


def mode_lines(row: dict) -> list[str]:
    """One `process-moded` line per side whose values split into two clusters."""
    return [f"process-moded {row['name']}: {side} values split into two clusters "
            f"{gap:.6g} apart, {gap / abs(row[side][1]):.1%} of its median > bound "
            f"{row['bound']:.0%}" for side, gap in row["modes"].items()]


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
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}, got {args.workload!r}")
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
        median, low, high = row["ratio"]
        print(f"ratio {row['name']}: change/parent median {median:.4f}, "
              f"95% bootstrap interval [{low:.4f}, {high:.4f}] over {row['pairs']} pairs")
        for line in mode_lines(row):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
