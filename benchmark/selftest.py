"""Show that no check of the benchmark passes vacuously.

    python3 benchmark/selftest.py

Runs one pass of each workload, confirms that every real document passes its
check, then alters each document one leaf at a time (a boolean flipped, an
integer moved by one, a string extended, a list shortened or lengthened, an
extra result key, an integer turned into a float) and confirms that the check
rejects every altered copy.  The fault probe is shown to count as failed when
it exits 0 and to pass when it exits 2.  Exits 1 if anything is accepted that
should not be.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import WORKLOADS, Context, Op, check_document


def leaf_paths(value, path=()):
    """Paths to every scalar and every list inside a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        yield path
        for i, item in enumerate(value):
            yield from leaf_paths(item, path + (i,))
    else:
        yield path


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def alterations(doc: dict):
    """(description, altered copy) pairs, each one change away from doc."""
    for path in leaf_paths(doc):
        value = _get(doc, path)
        changed = []
        if isinstance(value, bool):
            changed.append(("flip", not value))
        elif isinstance(value, int):
            changed.append(("+1", value + 1))
            changed.append(("float", float(value)))
        elif isinstance(value, str):
            changed.append(("extend", value + "x"))
        elif isinstance(value, list):
            changed.append(("shorten", value[:-1]) if value else ("lengthen", [0]))
        for what, new in changed:
            altered = copy.deepcopy(doc)
            _set(altered, path, new)
            yield f"{'.'.join(map(str, path))} {what}", altered
    altered = copy.deepcopy(doc)
    altered["results"]["unexpected"] = 0
    yield "results.unexpected added", altered


def rejects(op: Op, doc: dict, ctx: Context) -> bool:
    try:
        check_document(op, doc, ctx)
    except Exception:  # any fault in a document is a rejection, as in run.py
        return True
    return False


def probe_is_counted(cli, ops) -> bool:
    """An exit 0 from the fault probe is a failed operation; exit 2 is not."""
    probes = [op for op in ops if op.expect_exit != 0]
    counted = []
    for code, expected_failures in ((0, len(probes)), (2, 0)):
        failed, _ = run.check_passes(cli, probes, [[(code, "", "")] * len(probes)])
        counted.append(failed == expected_failures)
    return all(counted)


def selftest(cli, name: str) -> bool:
    ops = WORKLOADS[name](1)
    _, outputs = run.run_pass(cli, ops)
    failed, errors = run.check_passes(cli, ops, [outputs])
    ok = not errors and failed == sum(op.expect_exit != 0 for op in ops)
    for error in errors:
        print(f"  real document rejected: {error}")

    def reference(argv):
        run.clear_caches()
        return run.run_command(cli, argv)

    ctx = Context(reference)
    tried = rejected = 0
    for op, (code, out, _) in zip(ops, outputs):
        if op.check is None or code != 0:
            continue
        for what, altered in alterations(json.loads(out)):
            tried += 1
            if rejects(op, altered, ctx):
                rejected += 1
            else:
                ok = False
                print(f"  accepted an altered document: {' '.join(op.argv)}: {what}")
    summary = f"{name}: {len(ops)} operations, {rejected}/{tried} altered documents rejected"
    if any(op.expect_exit != 0 for op in ops):
        probe_ok = probe_is_counted(cli, ops)
        ok &= probe_ok
        summary += f", fault probe {'counted' if probe_ok else 'NOT counted'} as failed"
    print(f"{summary}: {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    cli = run.import_cli()
    results = [selftest(cli, name) for name in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
