"""Run the dqmem CLI from a given source tree, as the `dqmem` console script does.

    python3 launch.py SRC MARK [dqmem arguments...]

Imports `dqmem.cli` from SRC, notes the monotonic clock just before `main`
runs, then runs it. On the way out it writes MARK, a JSON object with that
time (`ready`), the `dqmem.__file__` it imported and the process's peak
resident set in kB (`peak_kb`, VmHWM: it counts this program only, unlike
the rusage of a child spawned by vfork, which also counts its parent).
"""

import json
import sys
import time


def _peak_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    src, mark, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import dqmem
    from dqmem.cli import main as cli_main

    ready = time.monotonic()
    code = 1
    try:
        code = cli_main(argv)
    finally:
        with open(mark, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "dqmem_file": dqmem.__file__,
                       "peak_kb": _peak_kb()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
