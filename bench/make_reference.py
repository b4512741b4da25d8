"""Write the references the benchmark's output checks compare against.

Usage (from the root of a checkout): python3 bench/make_reference.py SEED...

Runs ``verify`` over the suites of both CLI workloads at each seed and
adds their summaries to bench/reference/summaries.json, then runs the
line-cli commands once and stores their outputs in bench/reference/cli/.
Run it only on a commit whose results are trusted: the benchmark holds
later commits to these values, to 1e-9 relative.
"""

import json
import subprocess
import sys

from run import (LINE_COMMANDS, REFERENCE, VERIFY_FINITE, VERIFY_LINE,
                 child_env, cli_argv, parse_verify)


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    env = child_env()
    path = REFERENCE / "summaries.json"
    summaries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for seed in seeds:
        suites = [*VERIFY_FINITE, *VERIFY_LINE]
        out = subprocess.run(cli_argv(["verify", *suites, "--seed", str(seed),
                                       "--jobs", "2"]),
                             env=env, capture_output=True, text=True, check=True)
        found = parse_verify(out.stdout)
        summaries[str(seed)] = {sid: found[sid][1] for sid in suites}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    (REFERENCE / "cli").mkdir(exist_ok=True)
    for name, args in LINE_COMMANDS.items():
        subprocess.run(cli_argv([*args, "--out", str(REFERENCE / "cli" / name)]),
                       env=env, check=True, capture_output=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
