"""Statistics of the repository benchmark (unit-tested in test_stats.py).

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it (MIN_BEYOND); asking for a tail percentile
with fewer samples is an error rather than a noisy number. Self time of a
span is its duration minus the part of it covered by its child spans,
with spans nested by time on each thread of a Chrome trace.
"""

import math

MIN_BEYOND = 10
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)


class InsufficientSamples(ValueError):
    pass


def median(xs):
    if not xs:
        raise InsufficientSamples("median of no samples")
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def percentile(xs, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile; q=0.5 is the median and needs no tail."""
    if q == 0.5:
        return median(xs)
    if not 0 < q < 1:
        raise ValueError("percentile q must be in (0, 1)")
    n = len(xs)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise InsufficientSamples(
            "p%g of %d samples has fewer than %d beyond it"
            % (q * 100, n, min_beyond))
    return sorted(xs)[max(1, math.ceil(q * n)) - 1]


def tail_percentile(xs, min_beyond=MIN_BEYOND):
    """(q, value) for the highest percentile of TAIL_LADDER with enough
    samples beyond it, or None when even p75 lacks them."""
    for q in TAIL_LADDER:
        if samples_beyond(len(xs), q) >= min_beyond:
            return q, percentile(xs, q, min_beyond)
    return None


def geomean(xs):
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def elements_per_second(elements, seconds):
    if seconds <= 0:
        raise ValueError("elements per second needs a positive time")
    return elements / seconds


def quartile_spread(values):
    """(Q3 - Q1) / median, with Python's default quartile method."""
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(events, eps=1e-3):
    """Nests Chrome "X" events by time per thread.

    Returns a list of (event, self_us, is_root) in input order, where
    self_us is the event's duration minus its direct children's, and a
    root is an event no other event on its thread contains. eps (in us)
    absorbs the rounding of printed timestamps.
    """
    out = {}
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []  # indices of open spans
        child = {}
        parent = {}
        for i in idx:
            e = events[i]
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack:
                top = events[stack[-1]]
                if top["ts"] + top["dur"] <= start + eps:
                    stack.pop()
                elif end <= top["ts"] + top["dur"] + eps:
                    break
                else:  # partial overlap: not nested, close the top.
                    stack.pop()
            if stack:
                parent[i] = stack[-1]
                child[stack[-1]] = child.get(stack[-1], 0.0) + e["dur"]
            stack.append(i)
        for i in idx:
            out[i] = (events[i]["dur"] - child.get(i, 0.0), i not in parent)
    return [(events[i], out[i][0], out[i][1]) for i in range(len(events))]


def layer_shares(events):
    """Self time per span category over the total time of root spans.

    Returns (shares by category, total root time in us). The "bench"
    category holds the benchmark's own spans, so its share is the part
    of the traced time that no layer span covers.
    """
    total = 0.0
    by_cat = {}
    for e, self_us, is_root in self_times(events):
        by_cat[e["cat"]] = by_cat.get(e["cat"], 0.0) + self_us
        if is_root:
            total += e["dur"]
    if total <= 0:
        return {}, 0.0
    return {cat: t / total for cat, t in by_cat.items()}, total
