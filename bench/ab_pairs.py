"""Alternating A/B pairs of the benchmark, for a before/after performance claim.

    python3 bench/ab_pairs.py PARENT CHANGE --workload gd_affine8_m900_n16 --pairs 10 --seconds 5
    python3 bench/ab_pairs.py PARENT CHANGE --pairs 10
    python3 bench/ab_pairs.py PARENT CHANGE --workload gd_affine8_m900_n16 --pairs 10 --trace
    python3 bench/ab_pairs.py . . --workload gd_affine8_m900_n16 --pairs 1 --seconds 0 --quick

PARENT and CHANGE are two checkouts of the repository (the same one twice
gives an A/A control).  ``--workload`` may be given more than once; without
it, every workload of the change's BENCHMARK.json is measured, one after the
other.  For each workload W, pair i runs ``perfbench/run.py --workload W
--seed SEED_BASE+i`` once in each checkout, one process after the other; the
side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both sides alike.  Each end-to-end metric of W is
then printed with each side's median and quartiles, the change of the
medians, and the number of pairs in which the change was better, by the
direction that BENCHMARK.json declares.  A ``# verdict`` line under each
workload's table judges each metric against its bound in BENCHMARK.json:

- gain shown: the change is better in at least nine tenths of the pairs and
  its median is better by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's interquartile range is wider than the bound,
  unless every run of the change is better than every run of the parent;
- no regression: otherwise.

With ``--trace``, the pairs of a workload are followed by one traced run
per side (``perfbench/run.py --trace 1``, seed SEED_BASE, the parent
first), and a second table prints each per-layer metric that
BENCHMARK.json declares with the parent's and the change's value and the
change in %: where in the program a change of the end-to-end metrics lands.
One traced run is no paired measurement; it locates a saving, it does not
show it.

Uses the standard library only.  Exits 1 if a run fails or reports
incorrect outputs, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, quick: bool, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``; its result object, of the per-layer metrics if ``trace``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        argv.append("--quick")
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: perfbench/run.py printed no result: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def count_wins(pairs: list[tuple[float, float]], better: str | None) -> int:
    """Pairs (parent, change) in which the change is better; ties count for neither."""
    sign = -1.0 if better == "lower" else 1.0
    return sum(sign * (b - a) > 0.0 for a, b in pairs)


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """Judge the (parent, change) value pairs of one metric; ``bound`` is relative."""
    sign = -1.0 if better == "lower" else 1.0
    q1, base, q3 = quartiles([a for a, _ in pairs])
    gap = sign * (quartiles([b for _, b in pairs])[1] - base) + 0.0  # no -0 in the detail
    wins = count_wins(pairs, better)
    apart = min(sign * b for _, b in pairs) > max(sign * a for a, _ in pairs)
    detail = f"{wins}/{len(pairs)} wins, median gap {gap:+.6g}, parent IQR {q3 - q1:.6g}"
    if wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return f"gain shown ({detail})"
    detail += f", bound {bound:g}"
    if -gap > bound * abs(base):
        return f"regression ({detail})"
    if q3 - q1 > bound * abs(base) and not apart:
        return f"unresolved ({detail})"
    return f"no regression ({detail})"


def summarize(results: dict[str, list[dict]], declared: dict[str, dict]) -> list[str]:
    """One line per metric: each side's median [Q1, Q3], the change in %, and the change's wins.

    A ``# verdict`` line follows the table for each metric BENCHMARK.json declares.
    """
    lines = [f"{'metric':<26} {'unit':<7} {'parent median [Q1, Q3]':<38} "
             f"{'change median [Q1, Q3]':<38} {'change':>8}  wins"]
    verdicts = []
    for name, spec in results["parent"][0]["metrics"].items():
        pairs = [
            (a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(results["parent"], results["change"])
        ]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if name in declared:
            verdicts.append(f"# verdict {name}: " + (
                verdict(pairs, declared[name]["better"], declared[name]["bound"])
                if pairs else "unresolved (no values)"))
        if not pairs:
            lines.append(f"{name:<26} {spec['unit']:<7} no values")
            continue
        stats = [quartiles([p[i] for p in pairs]) for i in (0, 1)]
        cells = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in stats]
        base, new = stats[0][1], stats[1][1]
        delta = f"{100.0 * (new - base) / base:+.1f}%" if base else "n/a"
        wins = count_wins(pairs, declared.get(name, {}).get("better"))
        lines.append(f"{name:<26} {spec['unit']:<7} {cells[0]:<38} {cells[1]:<38} {delta:>8}  "
                     f"{wins}/{len(pairs)}")
    return lines + verdicts


def trace_table(traced: dict[str, dict], declared: list[dict]) -> list[str]:
    """One line per declared per-layer metric: each side's value in its traced run, and the change in %."""
    lines = [f"{'metric':<44} {'unit':<6} {'parent':>14} {'change':>14} {'change':>8}"]
    for m in declared:
        values = [traced[side]["metrics"].get(m["name"], {}).get("value") for side in SIDES]
        cells = ["n/a" if v is None else f"{v:.6g}" for v in values]
        base, new = values
        delta = f"{100.0 * (new - base) / base:+.1f}%" if base and new is not None else "n/a"
        lines.append(f"{m['name']:<44} {m['unit']:<6} {cells[0]:>14} {cells[1]:>14} {delta:>8}")
    return lines


def measure_pairs(checkouts: dict[str, Path], workload: str, args) -> tuple[dict[str, list[dict]], bool]:
    """The alternating pairs of one workload: each side's results, and whether every run was correct.

    Raises RuntimeError if a run prints no result.
    """
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], workload, seed, args.seconds, args.quick)
            results[side].append(result)
            run_s = result["metrics"].get("run_s", {}).get("value")
            print(f"# pair {i + 1} seed {seed} {side}: run_s {run_s} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            ok = ok and result["correct"] and not result["failed"]
    return results, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/ab_pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the baseline")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", action="append",
                        help="a workload named in BENCHMARK.json; repeatable; default: all of them")
    parser.add_argument("--pairs", type=int, default=10, help="number of alternating pairs")
    parser.add_argument("--seconds", type=float, default=5.0, help="time budget of each run")
    parser.add_argument("--seed-base", type=int, default=41, help="pair i runs seed SEED_BASE+i")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke run")
    parser.add_argument("--trace", action="store_true",
                        help="after each workload's pairs, one traced run per side and its per-layer metrics")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: {path} holds no perfbench/run.py")
    if args.pairs < 1 or args.seed_base < 0:
        parser.error("--pairs must be positive and --seed-base nonnegative")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or []) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)} (BENCHMARK.json has {', '.join(known)})")

    ok = True
    for workload in args.workload or known:
        try:
            results, correct = measure_pairs(checkouts, workload, args)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        ok = ok and correct
        print(f"# {workload}, {args.pairs} pairs, --seconds {args.seconds:g}, seeds {args.seed_base}+")
        for line in summarize(results, declared):
            print(line)
        if args.trace:
            try:
                traced = {side: run_once(checkouts[side], workload, args.seed_base, args.seconds, args.quick, True)
                          for side in SIDES}
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            ok = ok and all(r["correct"] and not r["failed"] for r in traced.values())
            print(f"# {workload}, one traced run per side, --seconds {args.seconds:g}, seed {args.seed_base}")
            for line in trace_table(traced, spec["per_layer"]):
                print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
