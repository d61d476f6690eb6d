"""Set up one workload, print ``ready`` and exit.

run.py starts this script several times and takes the time from process
start to the ``ready`` line as one sample of ``setup_s``:
``python3 bench/setup_child.py <workload> <seed>``.
"""

import sys

from program import load_program


def main() -> None:
    load_program()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
