"""Compare a change with its parent from alternated pairs of runs.

This host's speed drifts by up to 3x over minutes, so two sets of runs
taken one after the other can differ more than any change does.  The
comparison therefore runs the two checkouts in pairs, back to back on the
same seed, alternating which side goes first, and judges each pair's ratio
change / parent.  From the root of the change's checkout::

    python3 perfbench/compare.py run --base ../parent --new . \\
        --workload decode-lockstep --workload prefill-bulk --out ab.jsonl
    python3 perfbench/compare.py report ab.jsonl

``run`` runs ``perfbench/run.py --trace 0`` in each checkout (pair ``i``
uses seed ``--seed + i`` on both sides; odd pairs run the change first) and
appends one JSON line per run, tagged with its side and pair, to ``--out``.
Both checkouts must hold the same benchmark.

``report`` labels every workload x end-to-end metric against its bound in
``BENCHMARK.json`` (signs follow the metric's ``better``):

* ``unresolved`` -- fewer than :data:`MIN_PAIRS` complete pairs; or the pair
  ratios spread (IQR / median) wider than the bound and not every change
  run reads better than every parent run;
* ``worse``      -- the median pair ratio is worse than 1 by more than the
  bound;
* ``improved``   -- the change wins at least 9 in 10 pairs (ties count for
  neither) and the two sides' medians differ by more than the parent runs'
  own IQR;
* ``unchanged``  -- otherwise.

It exits 1 when any pair is labelled ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from measure import relative_iqr

#: Fewer complete pairs than this are not enough to judge by.
MIN_PAIRS = 10
#: Share of pairs the change must win to count as an improvement.
WIN_SHARE = 0.9

Pairs = Dict[str, Dict[str, List[Tuple[float, float]]]]  # workload -> metric -> (base, new)


# -- run -----------------------------------------------------------------------


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of the benchmark in ``checkout``."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "notes": [line for line in lines if line.startswith("# ")],
        "result": json.loads(lines[-1]),
    }


def run_pairs(
    base: str, new: str, workloads: Sequence[str], pairs: int, seed: int,
    seconds: float, out_path: str,
) -> None:
    with open(out_path, "a") as out:
        for pair in range(pairs):
            sides = [("base", base), ("new", new)]
            if pair % 2:
                sides.reverse()
            for workload in workloads:
                for side, checkout in sides:
                    record = run_once(checkout, workload, seed + pair, seconds)
                    record.update(side=side, pair=pair)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    result = record["result"]
                    print(f"pair {pair} {workload} {side}: correct={result['correct']}",
                          flush=True)


# -- report --------------------------------------------------------------------


def load_pairs(path: str) -> Pairs:
    """Complete ``(base, new)`` value pairs per workload and metric."""
    sides: Dict[Tuple[str, int], Dict[str, dict]] = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                metrics = record["result"]["metrics"]
                sides[(record["workload"], record["pair"])][record["side"]] = metrics
    pairs: Pairs = defaultdict(lambda: defaultdict(list))
    for (workload, _pair), both in sorted(sides.items()):
        if set(both) != {"base", "new"}:
            continue
        for name in both["base"].keys() & both["new"].keys():
            pairs[workload][name].append(
                (both["base"][name]["value"], both["new"][name]["value"])
            )
    return pairs


def label(pairs: Sequence[Tuple[float, float]], bound: float, lower_is_better: bool) -> str:
    """The verdict for one workload x metric (see the module docstring)."""
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    sign = -1.0 if lower_is_better else 1.0
    ratios = [n / b for b, n in pairs]
    change = sign * (statistics.median(ratios) - 1.0)
    if change < -bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    base_median = statistics.median(base)
    gap = sign * (statistics.median(new) - base_median) / base_median
    if wins >= WIN_SHARE * len(pairs) and gap > relative_iqr(base):
        return "improved"
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if relative_iqr(ratios) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def report(pairs: Pairs, spec: dict) -> List[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in sorted(pairs):
            values = pairs[workload].get(name, [])
            if not values:
                continue
            sign = -1.0 if metric["better"] == "lower" else 1.0
            ratios = [n / b for b, n in values]
            rows.append({
                "workload": workload,
                "metric": name,
                "base_median": statistics.median(b for b, _ in values),
                "new_median": statistics.median(n for _, n in values),
                "ratio": statistics.median(ratios),
                "ratio_spread": relative_iqr(ratios),
                "wins": sum(1 for b, n in values if sign * (n - b) > 0),
                "pairs": len(values),
                "bound": metric["bound"],
                "label": label(values, metric["bound"], metric["better"] == "lower"),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternated pairs, append them to --out")
    run.add_argument("--base", required=True, help="checkout of the parent")
    run.add_argument("--new", required=True, help="checkout of the change")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="per run (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--out", required=True)
    rep = commands.add_parser("report", help="label every workload x metric")
    rep.add_argument("results")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        spec = json.load(handle)

    if args.command == "run":
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        run_pairs(args.base, args.new, args.workload, args.pairs, args.seed, seconds, args.out)
        return 0

    rows = report(load_pairs(args.results), spec)
    print(f"{'workload':<18} {'metric':<24} {'base':>11} {'new':>11} {'ratio':>7} "
          f"{'spread':>7} {'wins':>6} {'bound':>6}  label")
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<24} {row['base_median']:>11.5g} "
              f"{row['new_median']:>11.5g} {row['ratio']:>7.3f} {row['ratio_spread']:>7.1%} "
              f"{row['wins']:>3}/{row['pairs']:<2} {row['bound']:>6.0%}  {row['label']}")
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
