"""Compare two benchmark records saved with ``bench/run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

Prints every metric's change from BASE to NEW and marks a change worse
than the bound BENCHMARK.json (read from the working directory) fixes for
that metric.  Warns first when the records come from different
environments or workloads, since their numbers are then not comparable.
Exits 1 when a metric is worse than its bound.
"""

import json
import os
import sys

from run import CODE_FIELDS


def env_differences(a, b):
    """(field, a value, b value) for each machine field that differs."""
    return [(k, a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
            if k not in CODE_FIELDS and a.get(k) != b.get(k)]


def _bounds(path="BENCHMARK.json"):
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base, new, bounds):
    """Report lines and whether any metric got worse than its bound."""
    lines = [f"WARNING: environments differ in {k}: {a!r} vs {b!r}; timings are not comparable"
             for k, a, b in env_differences(base["env"], new["env"])]
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            lines.append(f"WARNING: {key} differs: {base[key]!r} vs {new[key]!r}")
    regressed = False
    for name, (v0, unit) in base["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"  {name:<50} missing from {new['workload']} record")
            continue
        v1 = new["metrics"][name][0]
        better, bound = bounds.get(name, ("lower", None))
        change = (v1 - v0) / abs(v0) if v0 else 0.0
        worse = change if better == "lower" else -change
        flag = ""
        if bound is not None and worse > bound:
            flag, regressed = f"  WORSE THAN BOUND {bound:.0%}", True
        lines.append(f"  {name:<50} {v0:>12.6g} -> {v1:<12.6g} {unit:<6} {change:+8.2%}{flag}")
    return lines, regressed


def main(base_path, new_path):
    with open(base_path, encoding="utf-8") as f:
        base = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    lines, regressed = compare(base, new, _bounds())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
