"""Record the answer of every benchmark command into ``answers.json``.

Run once from the root of the checkout whose answers are the reference:

    python3 perfbench/pin.py

Later runs of the benchmark compare against the file this writes.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, command_key


def main() -> int:
    root = run.program_root()
    sys.path.insert(0, str(root / "src"))
    pins = {}
    for workload in WORKLOADS.values():
        cli, commands = run.import_cli(root, workload)
        for argv in commands:
            _, code, stdout, stderr = run.run_command(cli.main, argv)
            if code != 0:
                sys.exit(f"pin: {command_key(argv)} exited {code}: {stderr}")
            pins[command_key(argv)] = run.answer_of(argv, stdout)
            print(f"pinned {command_key(argv)}", file=sys.stderr)
    (run.HERE / "answers.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
