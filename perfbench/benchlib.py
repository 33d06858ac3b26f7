"""Pure helpers of the repository benchmark: statistics, output checks,
digests, span self time and result comparison. `run.py` does the I/O."""

import hashlib
import math
import statistics


def summarize(values):
    """Sample count, median and quartiles of `values`, the quartiles as
    `statistics.quantiles(values, n=4)` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def spread(summary):
    """Interquartile range as a share of the median (inf for a 0 median)."""
    if summary["median"] == 0:
        return math.inf if summary["q3"] != summary["q1"] else 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def normalize(seconds, ref_s, nominal_s):
    """`seconds` measured while the host-speed reference took `ref_s`,
    scaled to a host on which it takes `nominal_s`."""
    if ref_s <= 0:
        raise ValueError("reference time must be positive")
    return seconds * nominal_s / ref_s


def validate_csv(text, header, rows):
    """Problems with a figure CSV: it must have `header`, exactly `rows`
    data lines, unique row names, and every value finite and positive.
    Returns a list of messages; empty means well-formed."""
    problems = []
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"header is {lines[0] if lines else None!r}, expected {header!r}"]
    columns = len(header.split(","))
    body = lines[1:]
    if len(body) != rows:
        problems.append(f"{len(body)} data rows, expected {rows}")
    names = set()
    for n, line in enumerate(body, start=2):
        fields = line.split(",")
        if len(fields) != columns:
            problems.append(f"line {n}: {len(fields)} fields, expected {columns}")
            continue
        if fields[0] in names:
            problems.append(f"line {n}: duplicate row {fields[0]!r}")
        names.add(fields[0])
        for field in fields[1:]:
            try:
                value = float(field)
            except ValueError:
                problems.append(f"line {n}: {field!r} is not a number")
                continue
            if not math.isfinite(value) or value <= 0:
                problems.append(f"line {n}: {field!r} is not finite and positive")
    return problems


def digest(data):
    """The benchmark's digest of program output: SHA-256, hex."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def fidelity(sim_digest, cells_digest, output, rebuilt):
    """Which way of running the grid the traced run's cells reproduce:
    the first key of `rebuilt` (e.g. "trace-once", "exec") whose output,
    rebuilt from the traced cells run that way, equals the program's
    `output`. "stale" when none does, or when the traced cells do not
    hash to the workload's `sim_digest`."""
    if cells_digest != sim_digest:
        return "stale"
    return next((way for way, text in rebuilt.items() if text == output), "stale")


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Children may overlap (parallel
    cells under one phase); overlapping parts are counted once.

    `spans` is a list of dicts with `index`, `parent`, `start`, `end`.
    Returns {index: self seconds}."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(s["index"], [])):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["index"]] = (hi - lo) - covered
    return out


def self_time_by_name(spans):
    """Total and self seconds per span name, sorted by self time."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["index"]]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def compare(old, new, bound, better):
    """Verdict for one metric between two summaries. `bound` is the share
    of the old median by which the metric may worsen (None: no bound).
    Unresolved when either side's spread is wider than the bound."""
    base = old["median"]
    delta = (new["median"] - base) / abs(base) if base else math.inf
    if bound is None:
        verdict = "-"
    elif spread(old) > bound or spread(new) > bound:
        verdict = "unresolved"
    else:
        worse = delta if better == "lower" else -delta
        verdict = "regressed" if worse > bound else ("improved" if worse < -bound else "same")
    return {"delta": delta, "verdict": verdict}
