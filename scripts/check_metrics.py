#!/usr/bin/env python3
"""Validate an rtgen metrics file against metrics.schema.json.

Standard library only (CI containers have no jsonschema package), so
this implements exactly the subset of JSON Schema draft-07 the committed
schema uses — const, type, required, additionalProperties, minimum,
$ref into definitions — plus the one property the schema cannot state:
the deterministic sections (counters, gauges, histograms) must precede
the timing-dependent ones (spans, elapsed_ns) in the emitted file, which
is what lets tests compare counter sections textually.

A second mode cross-checks a Prometheus text exposition against the
metrics document it was rendered from. lib/obs/prom.ml maps registry
names to sample names (counter a.b -> rtgen_a_b_total, gauge -> bare +
_max, histogram -> cumulative _bucket{le} ending at +Inf plus _sum and
_count, span -> _spans_total and _span_ns_total, elapsed_ns -> gauge,
daemon.stream.<id>.<metric> -> one labelled family per metric); this
script recomputes that mapping independently and requires the rendered
families to match it exactly — same names, same TYPE lines, same label
sets, same values, samples contiguous under their family's TYPE line.

Usage: scripts/check_metrics.py METRICS.json [SCHEMA.json]
       scripts/check_metrics.py --prometheus EXPOSITION.txt METRICS.json
Exit 0 when valid; prints each violation and exits 1 otherwise.
"""

import json
import re
import sys
from collections import OrderedDict
from pathlib import Path

errors = []


def fail(path, message):
    errors.append(f"{path}: {message}")


def resolve(schema, root):
    if "$ref" in schema:
        ref = schema["$ref"]
        assert ref.startswith("#/"), f"unsupported $ref {ref}"
        node = root
        for part in ref[2:].split("/"):
            node = node[part]
        return node
    return schema


def check(value, schema, root, path):
    schema = resolve(schema, root)
    if "const" in schema:
        if value != schema["const"]:
            fail(path, f"expected {schema['const']!r}, got {value!r}")
        return
    expected = schema.get("type")
    if expected == "object":
        if not isinstance(value, dict):
            fail(path, f"expected object, got {type(value).__name__}")
            return
        for key in schema.get("required", []):
            if key not in value:
                fail(path, f"missing required member {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, member in value.items():
            if key in props:
                check(member, props[key], root, f"{path}.{key}")
            elif extra is False:
                fail(path, f"unexpected member {key!r}")
            elif isinstance(extra, dict):
                check(member, extra, root, f"{path}.{key}")
    elif expected == "array":
        if not isinstance(value, list):
            fail(path, f"expected array, got {type(value).__name__}")
            return
        items = schema.get("items")
        if items:
            for i, item in enumerate(value):
                check(item, items, root, f"{path}[{i}]")
    elif expected == "integer":
        # bool is an int subclass in Python; JSON true is not an integer.
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"expected integer, got {type(value).__name__}")
            return
        if "minimum" in schema and value < schema["minimum"]:
            fail(path, f"{value} below minimum {schema['minimum']}")
    else:
        raise AssertionError(f"schema uses unsupported type {expected!r}")


def check_engine_section(doc, path):
    """Cross-instrument consistency for streaming-engine runs.

    A run that went through Rt_engine publishes engine.* counters,
    gauges, and a feed-latency histogram; their totals are different
    views of the same stream and must agree — with each other and with
    the learn.* counters the core publishes. A resumed run's totals
    include the periods its checkpoint held (the last sample of the
    checkpoint.resumed_periods gauge), which this process skipped
    rather than fed, so its feed-latency histogram holds the rest
    exactly.
    """
    counters = doc.get("counters", {})
    if "engine.periods" not in counters:
        return  # not an engine run
    periods = counters["engine.periods"]
    messages = counters.get("engine.messages")
    if messages is None:
        fail(path, "engine.periods present without engine.messages")
    if "learn.periods" in counters and counters["learn.periods"] != periods:
        fail(
            path,
            f"engine.periods {periods} != learn.periods "
            f"{counters['learn.periods']}",
        )
    gauges = doc.get("gauges", {})
    resumed = gauges.get("checkpoint.resumed_periods", {}).get("last", 0)
    if resumed > periods:
        fail(
            path,
            f"checkpoint.resumed_periods {resumed} > engine.periods {periods}",
        )
    hist = doc.get("histograms", {}).get("engine.feed_ns")
    if hist is None:
        fail(path, "engine run without an engine.feed_ns histogram")
    elif hist.get("count") != periods - resumed:
        fail(
            path,
            f"engine.feed_ns count {hist.get('count')} != "
            f"engine.periods {periods} - checkpoint.resumed_periods {resumed}",
        )
    for gauge_name, total in (
        ("engine.periods_in_flight", periods),
        ("engine.messages_in_flight", messages),
    ):
        gauge = doc.get("gauges", {}).get(gauge_name)
        if gauge is None:
            fail(path, f"engine run without a {gauge_name} gauge")
        elif gauge.get("last") != total:
            fail(
                path,
                f"{gauge_name} last {gauge.get('last')} != {total}",
            )


def check_shard_section(doc, path):
    """Cross-instrument consistency for sharded runs.

    A sharded session publishes shard.* counters from the calling
    domain (pool workers carry no registry): the shard count, the
    worker-pool width it ran on, the fed totals, and one worker_us
    sample per shard (each pair's summed feed time).
    """
    counters = doc.get("counters", {})
    if "shard.shards" in counters:
        shards = counters["shard.shards"]
        if shards < 1:
            fail(path, f"shard.shards {shards} < 1")
        jobs = counters.get("shard.jobs")
        if jobs is None:
            fail(path, "shard.shards present without shard.jobs")
        elif jobs < 1:
            fail(path, f"shard.jobs {jobs} < 1")
        for key in ("shard.periods", "shard.messages"):
            if key not in counters:
                fail(path, f"shard.shards present without {key}")
        hist = doc.get("histograms", {}).get("shard.worker_us")
        if hist is None:
            fail(path, "shard.shards present without shard.worker_us")
        elif hist.get("count") != shards:
            fail(
                path,
                f"shard.worker_us count {hist.get('count')} != "
                f"shard.shards {shards}",
            )


def check_daemon_section(doc, path):
    """Stream-accounting invariants for rtgend (rtgen serve) dumps.

    Every admitted stream must end the run in exactly one ledger:
    still active, finalized, terminally failed, or shed — so the
    counters have to balance against the streams_active gauge. A
    drained daemon also cannot have handled zero periods, and a run
    configured with checkpoints must actually have written some.
    """
    counters = doc.get("counters", {})
    if "daemon.streams_accepted" not in counters:
        return  # not a daemon run
    accepted = counters["daemon.streams_accepted"]
    for key in (
        "daemon.streams_finalized",
        "daemon.streams_failed",
        "daemon.streams_shed",
        "daemon.busy_rejections",
        "daemon.restarts",
        "daemon.periods",
        "daemon.checkpoints",
    ):
        if key not in counters:
            fail(path, f"daemon run without {key}")
            return
    active = doc.get("gauges", {}).get("daemon.streams_active")
    if active is None:
        fail(path, "daemon run without a daemon.streams_active gauge")
        return
    settled = (
        counters["daemon.streams_finalized"]
        + counters["daemon.streams_failed"]
        + counters["daemon.streams_shed"]
    )
    if accepted != active.get("last") + settled:
        fail(
            path,
            f"daemon.streams_accepted {accepted} != active "
            f"{active.get('last')} + finalized/failed/shed {settled}",
        )
    if accepted > 0 and counters["daemon.periods"] == 0:
        fail(path, "daemon accepted streams but handled zero periods")
    for stream_gauge, total in (("periods", counters["daemon.periods"]),):
        per_stream = sum(
            g.get("last", 0)
            for name, g in doc.get("gauges", {}).items()
            if name.startswith("daemon.stream.")
            and name.endswith("." + stream_gauge)
        )
        if per_stream > total:
            fail(
                path,
                f"per-stream {stream_gauge} sum {per_stream} exceeds "
                f"daemon.periods {total}",
            )


def check_checkpoint_span(doc, path):
    """The checkpoint.write span of a saving learn.

    `learn --checkpoint`, sharded or not, times each save (one image in
    one write) in one checkpoint.write span. Its aggregate must be
    consistent (min <= max, count * min <= total <= count * max), and
    a run saves only after a fed period, plus once at --stop-after, so
    it cannot make more saves than its periods plus one.
    """
    span = doc.get("spans", {}).get("checkpoint.write")
    if span is None:
        return
    count, total = span.get("count", 0), span.get("total_ns", 0)
    lo, hi = span.get("min_ns", 0), span.get("max_ns", 0)
    if lo > hi or not count * lo <= total <= count * hi:
        fail(path, f"checkpoint.write aggregate inconsistent: {dict(span)}")
    counters = doc.get("counters", {})
    periods = counters.get("shard.periods", counters.get("engine.periods"))
    if periods is None:
        fail(path, "checkpoint.write span outside a learn run")
    elif count > periods + 1:
        fail(
            path,
            f"checkpoint.write count {count} exceeds periods {periods} + 1",
        )


def check_section_order(doc, path):
    order = list(doc.keys())
    expected = [
        "schema", "version", "counters", "gauges", "histograms", "spans",
        "elapsed_ns",
    ]
    if order != expected:
        fail(path, f"section order {order} != {expected}")


# --- Prometheus exposition cross-check ------------------------------------
#
# An independent reimplementation of the prom.ml name mapping. Both
# sides read the same metrics document; the exposition must agree with
# what this derivation says it should contain, sample for sample.

PROM_PREFIX = "rtgen_"

PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (-?\d+)$"
)
PROM_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prom_sanitize(name):
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def prom_split_stream_name(name):
    """daemon.stream.<id>.<metric> -> (family base, stream id), else None."""
    p = "daemon.stream."
    if name.startswith(p) and len(name) > len(p):
        rest = name[len(p):]
        i = rest.rfind(".")
        if i > 0:
            return "daemon.stream." + rest[i + 1:], rest[:i]
    return None


def prom_group_families(members):
    """Group name-keyed members into label-carrying families, preserving
    first-seen order (matching the renderer's contiguity rule)."""
    fams = OrderedDict()
    for name, value in members.items():
        split = prom_split_stream_name(name)
        if split:
            base, stream = split
            fams.setdefault(base, []).append(((("stream", stream),), value))
        else:
            fams.setdefault(name, []).append(((), value))
    return fams


def prom_expected_families(doc):
    """Derive the full expected exposition from a metrics document:
    {prom family name: (type, set of (sample name, labels, value))}."""
    fams = OrderedDict()

    def family(fam, ftype, samples):
        name = PROM_PREFIX + prom_sanitize(fam)
        fams[name] = (
            ftype,
            {(name + suffix, labels, value) for suffix, labels, value in samples},
        )

    for fam, entries in prom_group_families(doc.get("counters", {})).items():
        family(fam + "_total", "counter", [("", l, v) for l, v in entries])
    for fam, entries in prom_group_families(doc.get("gauges", {})).items():
        family(fam, "gauge", [("", l, g["last"]) for l, g in entries])
        family(fam + "_max", "gauge", [("", l, g["max"]) for l, g in entries])
    for fam, entries in prom_group_families(doc.get("histograms", {})).items():
        samples = []
        for labels, h in entries:
            # The document stores per-bucket counts with the open top
            # bucket's bound printed as -1; the exposition carries
            # cumulative counts and folds the open bucket into +Inf.
            cum = 0
            for b in h.get("buckets", []):
                cum += b["count"]
                if b["le"] >= 0:
                    samples.append(
                        ("_bucket", labels + (("le", str(b["le"])),), cum)
                    )
            samples.append(("_bucket", labels + (("le", "+Inf"),), h["count"]))
            samples.append(("_sum", labels, h["sum"]))
            samples.append(("_count", labels, h["count"]))
        family(fam, "histogram", samples)
    for fam, entries in prom_group_families(doc.get("spans", {})).items():
        family(
            fam + "_spans_total", "counter",
            [("", l, s["count"]) for l, s in entries],
        )
        family(
            fam + "_span_ns_total", "counter",
            [("", l, s["total_ns"]) for l, s in entries],
        )
    if "elapsed_ns" in doc:
        family("elapsed_ns", "gauge", [("", (), doc["elapsed_ns"])])
    return fams


def prom_unescape(value):
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def prom_parse(text, path):
    """Parse a text exposition into {family: (type, samples)}, enforcing
    the format's contiguity rule: every sample sits under the TYPE line
    of the family it was compared into."""
    fams = OrderedDict()
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"{path}:{lineno}"
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(where, f"malformed TYPE line {line!r}")
                continue
            _, _, name, ftype = parts
            if name in fams:
                fail(where, f"duplicate family {name}: samples not contiguous")
            current = name
            fams[name] = (ftype, set())
            continue
        if line.startswith("#"):
            fail(where, f"unexpected comment {line!r}")
            continue
        m = PROM_SAMPLE_RE.match(line)
        if not m:
            fail(where, f"unparseable sample line {line!r}")
            continue
        name, labels_src, value = m.group(1), m.group(2), int(m.group(3))
        labels = tuple(
            (k, prom_unescape(v))
            for k, v in PROM_LABEL_RE.findall(labels_src or "")
        )
        if current is None:
            fail(where, f"sample {name} precedes any TYPE line")
            continue
        if not name.startswith(current):
            fail(where, f"sample {name} not contiguous under family {current}")
            continue
        fams[current][1].add((name, labels, value))
    return fams


def check_prometheus(exposition, doc, path):
    expected = prom_expected_families(doc)
    rendered = prom_parse(exposition, path)
    for name, (ftype, samples) in expected.items():
        if name not in rendered:
            fail(path, f"missing family {name} ({ftype})")
            continue
        got_type, got_samples = rendered[name]
        if got_type != ftype:
            fail(path, f"family {name}: TYPE {got_type}, expected {ftype}")
        for sample in sorted(samples - got_samples):
            fail(path, f"family {name}: missing sample {sample}")
        for sample in sorted(got_samples - samples):
            fail(path, f"family {name}: unexpected sample {sample}")
    for name in rendered:
        if name not in expected:
            fail(path, f"family {name} not derivable from the document")
    return expected


def main_prometheus(args):
    if len(args) != 2:
        sys.exit(__doc__)
    prom_path, metrics_path = Path(args[0]), Path(args[1])
    doc = json.loads(metrics_path.read_text(), object_pairs_hook=OrderedDict)
    expected = check_prometheus(
        prom_path.read_text(), doc, prom_path.name
    )
    if errors:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
    samples = sum(len(s) for _, s in expected.values())
    print(
        f"{prom_path.name}: matches {metrics_path.name} — "
        f"{len(expected)} families, {samples} samples"
    )


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--prometheus":
        main_prometheus(sys.argv[2:])
        return
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    metrics_path = Path(sys.argv[1])
    schema_path = (
        Path(sys.argv[2]) if len(sys.argv) == 3
        else Path(__file__).resolve().parent.parent / "metrics.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    doc = json.loads(metrics_path.read_text(), object_pairs_hook=OrderedDict)
    check(doc, schema, schema, metrics_path.name)
    if isinstance(doc, dict):
        check_section_order(doc, metrics_path.name)
        check_engine_section(doc, metrics_path.name)
        check_shard_section(doc, metrics_path.name)
        check_daemon_section(doc, metrics_path.name)
        check_checkpoint_span(doc, metrics_path.name)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
    counters = doc.get("counters", {})
    engine = (
        f", engine run over {counters['engine.periods']} periods"
        if "engine.periods" in counters
        else ""
    )
    print(
        f"{metrics_path.name}: valid rtgen-metrics v{doc.get('version')}; "
        f"{len(counters)} counters, {len(doc.get('spans', {}))} span names"
        f"{engine}"
    )


if __name__ == "__main__":
    main()
