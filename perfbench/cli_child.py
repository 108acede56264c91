"""Traced ``fastdcst`` CLI process for the traced run of ``cli-cold``.

Times the CLI import, installs the span hooks, runs ``cli.main`` on the
remaining arguments and writes its span aggregates and network-cache
counts to a JSON file for the parent to merge.

    python3 perfbench/cli_child.py <report.json> transform --kind ...
"""

import json
import sys
import time

import common
import spans


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pkg = common.import_package(with_cli=True)
    import_s = time.perf_counter() - t0
    hooks = spans.Hooks()
    tracer = spans.Tracer(pkg.FlopLedger)
    hooks.install(tracer)
    try:
        rc = pkg.cli.main(argv)
    finally:
        hooks.uninstall()
    report = {"stats": {k: v.as_list() for k, v in tracer.stats.items()},
              "import_s": import_s,
              "traced_s": time.perf_counter() - t0,
              "net_cache": hooks.net_cache_info()}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
