#!/usr/bin/env python3
"""Lint a Prometheus text exposition (version 0.0.4) from GET /metrics.

Checks, in CI (tools/e2e_wire_test.sh scrapes a live vchain_spd twice):

  * structure: every sample belongs to a family that declared # HELP and
    # TYPE exactly once; no family block appears twice; samples parse.
  * naming: families are vchain_<tier>_<name> with a known tier; counters
    end in _total; histograms end in _seconds (latency) or _bytes.
  * histogram math: _bucket series are cumulative and non-decreasing in le,
    the +Inf bucket equals _count, and _sum is present.
  * across two scrapes: counters and histogram counts never decrease
    (monotonicity — a restart or a double-registration bug shows up here).

Usage: check_metrics.py SCRAPE1 [SCRAPE2]
Exit 0 = clean; 1 = violations (printed one per line).
"""

import re
import sys

KNOWN_TIERS = ("store", "core", "service", "sub", "http", "canary", "test")

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})?'
    r'\s+(?P<value>[^\s]+)(?:\s+\d+)?$')
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse(path):
    """-> (families: name -> {help, type}, samples: [(name, labels, value)],
    errors)."""
    families = {}
    samples = []
    errors = []
    closed = set()  # families whose block has ended (another family began)
    current = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue

            def err(msg):
                errors.append(f"{path}:{lineno}: {msg}")

            if line.startswith("#"):
                m = re.match(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)(?: (.*))?$",
                             line)
                if not m:
                    err(f"malformed comment line: {line!r}")
                    continue
                kind, name, rest = m.group(1), m.group(2), m.group(3) or ""
                if name in closed:
                    err(f"duplicate family block for {name}")
                if name != current and current is not None:
                    closed.add(current)
                current = name
                fam = families.setdefault(name, {"help": None, "type": None})
                if kind == "HELP":
                    if fam["help"] is not None:
                        err(f"duplicate HELP for {name}")
                    fam["help"] = rest
                else:
                    if fam["type"] is not None:
                        err(f"duplicate TYPE for {name}")
                    if rest not in ("counter", "gauge", "histogram", "summary",
                                    "untyped"):
                        err(f"unknown TYPE {rest!r} for {name}")
                    fam["type"] = rest
                continue

            m = SAMPLE_RE.match(line)
            if not m:
                err(f"unparseable sample line: {line!r}")
                continue
            name = m.group("name")
            labels = {}
            if m.group("labels"):
                labels = dict(LABEL_RE.findall(m.group("labels")))
            raw = m.group("value")
            if raw == "+Inf":
                value = float("inf")
            elif raw == "-Inf":
                value = float("-inf")
            else:
                try:
                    value = float(raw)
                except ValueError:
                    err(f"non-numeric sample value {raw!r} for {name}")
                    continue
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            fam_name = base if base in families else name
            if fam_name not in families:
                err(f"sample {name} has no # TYPE/# HELP declaration")
            elif fam_name != current:
                err(f"sample {name} outside its family block "
                    f"(family {fam_name}, current block {current})")
            samples.append((name, labels, value))
    return families, samples, errors


def check_naming(families):
    errors = []
    for name, fam in sorted(families.items()):
        if fam["help"] is None:
            errors.append(f"family {name} is missing # HELP")
        if fam["type"] is None:
            errors.append(f"family {name} is missing # TYPE")
            continue
        m = re.match(r"^vchain_([a-z0-9]+)_", name)
        if not m:
            errors.append(f"family {name} does not follow vchain_<tier>_<name>")
        elif m.group(1) not in KNOWN_TIERS:
            errors.append(f"family {name} has unknown tier {m.group(1)!r} "
                          f"(known: {', '.join(KNOWN_TIERS)})")
        if fam["type"] == "counter" and not name.endswith("_total"):
            errors.append(f"counter {name} must end in _total")
        if fam["type"] == "histogram" and not re.search(r"_(seconds|bytes)$",
                                                        name):
            errors.append(f"histogram {name} must end in _seconds or _bytes")
    return errors


def labels_key(labels, drop=("le",)):
    return tuple(sorted((k, v) for k, v in labels.items() if k not in drop))


def check_histograms(families, samples):
    errors = []
    buckets = {}  # (family, child) -> [(le, value)]
    counts = {}
    sums = set()
    for name, labels, value in samples:
        for suffix, store in (("_bucket", buckets), ("_count", counts),
                              ("_sum", None)):
            if not name.endswith(suffix):
                continue
            base = name[: -len(suffix)]
            if families.get(base, {}).get("type") != "histogram":
                continue
            key = (base, labels_key(labels))
            if suffix == "_bucket":
                if "le" not in labels:
                    errors.append(f"{name}: bucket sample without le label")
                    continue
                le = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
                buckets.setdefault(key, []).append((le, value))
            elif suffix == "_count":
                counts[key] = value
            else:
                sums.add(key)
    for key, series in sorted(buckets.items()):
        base, child = key
        label_str = f"{base}{dict(child) if child else ''}"
        series.sort()
        prev = -1.0
        for le, value in series:
            if value < prev:
                errors.append(
                    f"{label_str}: bucket counts not cumulative at le={le}")
            prev = value
        if series[-1][0] != float("inf"):
            errors.append(f"{label_str}: missing +Inf bucket")
        elif key in counts and series[-1][1] != counts[key]:
            errors.append(f"{label_str}: +Inf bucket {series[-1][1]} != "
                          f"_count {counts[key]}")
        if key not in counts:
            errors.append(f"{label_str}: missing _count")
        if key not in sums:
            errors.append(f"{label_str}: missing _sum")
    return errors


def check_span_stage_reconciliation(samples):
    """The per-stage histograms are folded from the query span tree by span
    name (core::FoldStages, one histogram per core::kQueryStages entry), not
    an independent mechanism — so for a scrape where every query fed the
    stages (each stage _count equals the query _count; the untraced fast
    path feeds only the total), the summed stage time must reconcile with
    total query time. A stage that silently
    stopped being fed, or a span double-counted into two stages, shows up
    here."""
    total_sum = None
    total_count = None
    stage_sums = {}
    stage_counts = {}
    for name, labels, value in samples:
        if name == "vchain_service_query_seconds_sum":
            total_sum = value
        elif name == "vchain_service_query_seconds_count":
            total_count = value
        elif name == "vchain_service_query_stage_seconds_sum":
            stage_sums[labels.get("stage", "?")] = value
        elif name == "vchain_service_query_stage_seconds_count":
            stage_counts[labels.get("stage", "?")] = value
    if total_sum is None or total_count is None or not stage_sums:
        return []
    if total_count == 0 or any(c != total_count
                               for c in stage_counts.values()):
        return []  # some queries bypassed tracing: stages are a subset
    if total_sum < 0.005:
        return []  # too little signal to reconcile against jitter
    stage_total = sum(stage_sums.values())
    errors = []
    # Stages partition the root span minus small unattributed gaps, so the
    # sum may fall short but never meaningfully exceed the total.
    if stage_total > total_sum * 1.10:
        errors.append(
            f"stage sums {stage_total:.6f}s exceed total query time "
            f"{total_sum:.6f}s (double-counted span?)")
    if stage_total < total_sum * 0.5:
        errors.append(
            f"stage sums {stage_total:.6f}s cover under half of total query "
            f"time {total_sum:.6f}s (stage not fed from the span tree?)")
    return errors


def monotonic_values(families, samples):
    """Counter samples and histogram bucket/count samples, keyed for
    cross-scrape comparison."""
    out = {}
    for name, labels, value in samples:
        base = re.sub(r"_(bucket|count)$", "", name)
        fam = families.get(name) or families.get(base)
        if fam is None:
            continue
        if fam["type"] == "counter" or (fam["type"] == "histogram"
                                        and name != base):
            out[(name, tuple(sorted(labels.items())))] = value
    return out


def check_monotonic(first, second):
    errors = []
    for key, v1 in sorted(first.items()):
        v2 = second.get(key)
        if v2 is None:
            errors.append(f"{key[0]}{dict(key[1])}: disappeared between scrapes")
        elif v2 < v1:
            errors.append(f"{key[0]}{dict(key[1])}: went backwards "
                          f"({v1} -> {v2})")
    return errors


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    parsed = []
    for path in argv[1:]:
        families, samples, errs = parse(path)
        errors += errs
        errors += check_naming(families)
        errors += check_histograms(families, samples)
        errors += check_span_stage_reconciliation(samples)
        parsed.append((families, samples))
    if len(parsed) == 2:
        errors += check_monotonic(monotonic_values(*parsed[0]),
                                  monotonic_values(*parsed[1]))
    for e in errors:
        print(f"check_metrics: {e}")
    if errors:
        print(f"check_metrics: {len(errors)} violation(s) in "
              f"{', '.join(argv[1:])}")
        return 1
    nfam = len(parsed[0][0])
    print(f"check_metrics: OK ({nfam} families)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
