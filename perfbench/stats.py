"""Statistics of the end-to-end benchmark.

Pure functions over plain lists and dicts: percentiles, span self times,
MNAE, quartiles and the parent-versus-change verdicts of compare mode.
"""

import math
import statistics

# Percentiles a tail is reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10
# Section 8 of the metrics method: a gain needs this share of pairs won.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def _rank(n, p):
    """1-based nearest rank of percentile p among n sorted samples."""
    # Rounded first so that float noise (99.9 / 100 * 10000 = 9990.000...02)
    # cannot push the rank up by one.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the percentile-p rank."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any of them."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def self_times(spans):
    """Self time of every span: its duration minus its children's durations.

    `spans` is a list of dicts with keys id, parent (-1 for a root), start
    and end. Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] = (children.get(s["parent"], 0) +
                                     s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - children.get(s["id"], 0)
            for s in spans}


def mnae(triples):
    """Mean normalized absolute error of (estimate, exact, normalizer)
    triples: mean of |estimate - exact| / normalizer (Section 6 of the
    paper). Triples with a non-positive normalizer are skipped."""
    errors = [abs(e - x) / n for e, x, n in triples if n > 0]
    if not errors:
        raise ValueError("MNAE of an empty sample")
    return sum(errors) / len(errors)


def _full_windows(end_s, values, width):
    """Values grouped by the window [k*width, (k+1)*width) their end time
    falls in. The last window is dropped when it is partial and others
    exist, so every window covers the same length of time."""
    groups = {}
    for t, v in zip(end_s, values):
        groups.setdefault(int(t // width), []).append(v)
    last = int(max(end_s) // width)
    if len(groups) > 1 and max(end_s) < (last + 1) * width:
        groups.pop(last, None)
    return [groups[k] for k in sorted(groups)]


def windowed_percentile(end_s, values, p, width=1.0):
    """Median over equal time windows of each window's percentile p. Windows
    with fewer than MIN_BEYOND samples beyond p are left out; when none is
    left, the percentile of the whole sample is returned."""
    if not values:
        raise ValueError("windowed percentile of an empty sample")
    tails = [percentile(w, p) for w in _full_windows(end_s, values, width)
             if samples_beyond(len(w), p) >= MIN_BEYOND]
    return statistics.median(tails) if tails else percentile(values, p)


def windowed_rate(end_s, units, width=1.0):
    """Median over equal time windows of the work done per second."""
    if not units:
        raise ValueError("windowed rate of an empty sample")
    return statistics.median(sum(w) / width
                             for w in _full_windows(end_s, units, width))


def histogram_quantile(buckets, q):
    """Upper bucket edge holding the q-quantile of a histogram given as
    [(upper_edge, count), ...]; 0 for an empty histogram."""
    total = sum(n for _, n in buckets)
    if total == 0:
        return 0
    target = max(1, math.ceil(q * total))
    seen = 0
    for upper, n in sorted(buckets):
        seen += n
        if seen >= target:
            return upper
    return sorted(buckets)[-1][0]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Compares paired runs of one metric on one workload.

    parent[i] and change[i] are the i-th pair (same seed). `better` is
    "lower" or "higher"; `bound` is the share of the parent's median by which
    the change may get worse, or None for a metric without one.

    Returns a dict with both sides' quartiles, the pairs won by the change,
    and one verdict:
      unchanged  - every pair tied, or (below) the change stays within the
                   bound;
      improved   - the change wins >= 90% of at least 10 pairs and its median
                   differs from the parent's by more than the parent's IQR;
      unresolved - the parent's own spread (IQR / median) is wider than the
                   bound, or no bound applies and neither side clearly wins;
      regressed  - the change's median is worse than the parent's by more
                   than the bound (without a bound: the parent wins >= 90%
                   of the pairs by more than its IQR).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs equally many parent and change runs")
    sign = -1.0 if better == "lower" else 1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    iqr = p3 - p1
    gain = sign * (cm - pm)  # > 0 when the change's median is better
    spread = iqr / abs(pm) if pm else math.inf
    worse_share = -gain / abs(pm) if pm else (math.inf if gain < 0 else 0.0)

    if wins == losses == 0:
        result = "unchanged"  # every pair tied
    elif pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > iqr:
        result = "improved"
    elif bound is None:
        clear_loss = (pairs >= MIN_PAIRS and losses >= WIN_SHARE * pairs
                      and -gain > iqr)
        result = "regressed" if clear_loss else "unresolved"
    elif spread > bound:
        result = "unresolved"
    elif worse_share > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "pairs": pairs,
        "wins": wins,
        "verdict": result,
    }
