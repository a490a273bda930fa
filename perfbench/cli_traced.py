"""Run one rmencca CLI command with the timing wrappers installed.

Usage: python3 perfbench/cli_traced.py SPAN_SUMMARY.json COMMAND [FLAGS...]

Imports rmencca.cli, notes the time (the end of interpreter start-up),
installs the wrappers, calls rmencca.cli.main(argv), and writes the span
summary plus that time to SPAN_SUMMARY.json and every span to
perfbench/_work/spans-cli-files-COMMAND.jsonl.  Exits with main's exit code.
"""
import json
import os
import sys
import time

import rmencca.cli

ready = time.monotonic()

import common  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = rmencca.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, **tracer.summary()}, fh)
    tracer.dump(os.path.join(common.WORK, f"spans-cli-files-{argv[0]}.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
