"""Write this process's peak resident memory (VmHWM, in kB) to a file at exit.

The benchmark puts this directory on the PYTHONPATH of every child it
starts and names the file in PERFBENCH_HWM_FILE.  wait4 cannot give the
figure: a child's ru_maxrss also counts the memory of the process that
started it.
"""

import atexit
import os


def _report(path=os.environ.get("PERFBENCH_HWM_FILE")):
    if not path:
        return
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(path, "w") as out:
                    out.write(line.split()[1])


atexit.register(_report)
