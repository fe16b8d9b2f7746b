#!/usr/bin/env python3
"""Validate and normalise oregami_serve result streams.

Dependency-free (stdlib only). Validates that every line of a server
result stream is a well-formed result object (ok results carry the full
objective triple and a 16-hex digest; error results carry a contract
code 1-6, and code-5 rejections may carry a "retry_after_ms" backoff
hint), and optionally writes a normalised copy for byte comparison
across runs and --jobs values: lines sorted by id, the volatile
"wall_ms" field stripped, the per-line "cache" hit/miss label blanked
(which of several identical concurrent jobs computes vs joins is the
one schedule-dependent bit; the totals are deterministic), and the
depth-derived "retry_after_ms" hint stripped.

Also validates the shutdown stats line (--stats FILE): the
ServerStats::to_json() object with its ten non-negative integer fields,
whose ok and errors add up to lines.

Usage:
    check_server.py RESULTS.txt              # validate, exit 0/1
    check_server.py RESULTS.txt --norm OUT   # validate + normalised copy
    check_server.py RESULTS.txt --norm OUT --exclude-ids 3,7
                                 # drop ids 3 and 7 from the normalised
                                 # copy (chaos runs: ids a failpoint
                                 # schedule deliberately perturbed)
    check_server.py RESULTS.txt --stats STATS.json
                                 # also validate the shutdown stats line
"""

import argparse
import json
import re
import sys

ERROR_CODES = {1, 2, 3, 4, 5, 6}
OK_FIELDS = {
    "id", "status", "digest", "cache", "strategy", "completion",
    "external_ipc", "max_load", "procs", "wall_ms",
}
ERROR_FIELDS = {"id", "line", "status", "error", "code"}
# Optional on code-5 rejections only: the admission backoff hint.
ERROR_OPTIONAL_FIELDS = {"retry_after_ms"}
# The shutdown stats line: ServerStats::to_json()'s field set.
STATS_FIELDS = {
    "lines", "ok", "errors", "rejected", "abandoned",
    "cache_hits", "cache_misses", "cache_evictions", "deduped", "uptime_ms",
}


def check_line(obj, index, errors):
    def fail(message):
        errors.append(f"line {index + 1}: {message}")

    if not isinstance(obj, dict):
        fail("result is not an object")
        return
    status = obj.get("status")
    if status == "ok":
        missing = OK_FIELDS - obj.keys()
        extra = obj.keys() - OK_FIELDS
        if missing:
            fail(f"ok result missing fields {sorted(missing)}")
        if extra:
            fail(f"ok result has unexpected fields {sorted(extra)}")
        if missing or extra:
            return
        if not re.fullmatch(r"[0-9a-f]{16}", obj["digest"]):
            fail(f"digest must be 16 lowercase hex, got {obj['digest']!r}")
        if obj["cache"] not in ("hit", "miss"):
            fail(f"cache must be hit|miss, got {obj['cache']!r}")
        if not isinstance(obj["procs"], list) or not all(
            isinstance(p, int) and p >= 0 for p in obj["procs"]
        ):
            fail("procs must be a list of non-negative ints")
        for key in ("completion", "external_ipc", "max_load"):
            if not isinstance(obj[key], int) or obj[key] < 0:
                fail(f"{key} must be a non-negative int, got {obj[key]!r}")
    elif status == "error":
        missing = ERROR_FIELDS - obj.keys()
        extra = obj.keys() - ERROR_FIELDS - ERROR_OPTIONAL_FIELDS
        if missing:
            fail(f"error result missing fields {sorted(missing)}")
        if extra:
            fail(f"error result has unexpected fields {sorted(extra)}")
        if missing or extra:
            return
        if obj["code"] not in ERROR_CODES:
            fail(f"code must be in {sorted(ERROR_CODES)}, got {obj['code']!r}")
        if not isinstance(obj["error"], str) or not obj["error"]:
            fail("error must be a non-empty message")
        if "retry_after_ms" in obj:
            if obj["code"] != 5:
                fail(
                    "retry_after_ms is only valid on code-5 rejections, "
                    f"got code {obj['code']!r}"
                )
            if not isinstance(obj["retry_after_ms"], int) or (
                obj["retry_after_ms"] < 0
            ):
                fail(
                    "retry_after_ms must be a non-negative int, got "
                    f"{obj['retry_after_ms']!r}"
                )
    else:
        fail(f"status must be 'ok' or 'error', got {status!r}")


def check_stats(path, errors):
    """Validates the shutdown stats line.

    The file may carry other stderr noise (recovery banners, failpoint
    reports); the stats line is the first JSON object line with exactly
    the stats field set.
    """
    def fail(message):
        errors.append(f"{path}: {message}")

    with open(path, encoding="utf-8") as handle:
        candidates = [raw.strip() for raw in handle if raw.startswith("{")]
    for text in candidates:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict) or obj.keys() != STATS_FIELDS:
            continue
        bad = {
            key: value for key, value in obj.items()
            if not isinstance(value, int) or value < 0
        }
        if bad:
            fail(f"stats fields must be non-negative ints: {bad}")
            return
        if obj["ok"] + obj["errors"] != obj["lines"]:
            fail(
                f"stats identity broken: ok {obj['ok']} + errors "
                f"{obj['errors']} != lines {obj['lines']}"
            )
        for subset in ("rejected", "abandoned"):
            if obj[subset] > obj["errors"]:
                fail(f"stats: {subset} {obj[subset]} exceeds errors")
        return
    fail(f"no stats line with fields {sorted(STATS_FIELDS)}")


def normalised(results, exclude_ids=()):
    exclude = {str(i) for i in exclude_ids}
    out = []
    for obj in results:
        if str(obj.get("id")) in exclude:
            continue
        obj = dict(obj)
        obj.pop("wall_ms", None)
        # The backoff hint is a function of the instantaneous queue
        # depth, which is schedule-dependent; drop it like wall_ms.
        obj.pop("retry_after_ms", None)
        if "cache" in obj:
            obj["cache"] = "?"
        out.append(obj)
    # Result ids are echoed verbatim (parse failures get null), so
    # (id-is-null, id, line) is a total, schedule-independent order.
    out.sort(
        key=lambda o: (o["id"] is None, str(o["id"]), o.get("line", 0))
    )
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="server result stream (one JSON/line)")
    parser.add_argument(
        "--norm", metavar="OUT",
        help="write a normalised copy (sorted, volatile fields stripped)",
    )
    parser.add_argument(
        "--exclude-ids", metavar="IDS", default="",
        help="comma-separated ids to drop from the normalised copy "
             "(for chaos-run diffs against a clean run)",
    )
    parser.add_argument(
        "--stats", metavar="FILE",
        help="also validate the shutdown stats line in FILE",
    )
    args = parser.parse_args()

    errors = []
    results = []
    with open(args.results, encoding="utf-8") as handle:
        for index, raw in enumerate(handle):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                errors.append(f"line {index + 1}: not valid JSON: {exc}")
                continue
            check_line(obj, index, errors)
            results.append(obj)

    if args.stats:
        check_stats(args.stats, errors)

    if errors:
        for message in errors:
            print(message, file=sys.stderr)
        print(f"{args.results}: {len(errors)} problem(s)", file=sys.stderr)
        return 1

    if args.norm:
        exclude_ids = [i for i in args.exclude_ids.split(",") if i]
        with open(args.norm, "w", encoding="utf-8") as handle:
            for obj in normalised(results, exclude_ids):
                json.dump(obj, handle, sort_keys=True, separators=(",", ":"))
                handle.write("\n")

    ok = sum(1 for o in results if o["status"] == "ok")
    print(
        f"{args.results}: {len(results)} results ({ok} ok, "
        f"{len(results) - ok} error) valid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
