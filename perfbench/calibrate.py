"""Reference task: fixed numpy work over arrays of tens of megabytes.

The orchestrator times this script as a child process before and after every
CLI sample. On the VM the benchmark was built on, the speed of a process
swings by up to 1.6x for tens of seconds at a time. The CLI slows down with
this task, because both are fresh processes that import numpy and stream
through large arrays. Dividing a sample's wall time by the time of the tasks
on either side of it cancels part of the swing. It does not import
flipaudit, so a change to the program cannot move it.
"""

import numpy as np

N = 4_000_000

values = np.arange(N, dtype=np.int64)
total = 0
for _ in range(4):
    mixed = values * 3 + 1
    total += int((mixed & 7).sum())
    del mixed
text = ",".join(map(str, range(200_000)))
parsed = np.array(text.split(","), dtype=np.int64)
if parsed[-1] != 199_999 or total != 4 * int(((values * 3 + 1) & 7).sum()):
    raise SystemExit("reference task computed a wrong result")
