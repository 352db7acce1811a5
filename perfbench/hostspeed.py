"""Speed of the host, metered inside the measured process.

    python3 perfbench/hostspeed.py CHUNKS.json <renyi-extract arguments...>

runs the renyi-extract CLI like `python3 -m renyi_extract.cli`, with a meter:
every PERIOD_S a timer signal runs one fixed reference chunk and records how
long it took.  The chunk times go to CHUNKS.json when the CLI returns.

Why: the benchmark runs on a few cores of a shared host whose speed switches
between modes that differ by about 1.5x, for seconds to many minutes at a
time (one pass of a fixed loop took 12 ms for half a minute, then 19 ms).  The
program is pure Python and slows with it, so raw wall times of one commit
spread past any useful bound.  A chunk runs on the same core, in the same
process and in the same seconds as the program, so the mean chunk time is
the host's speed during the run; `scaled` divides it out.  Timing a
reference before and after the run instead does not work: the mode changes
within one run.

The chunk is the benchmark's own code and never calls the program, so a
change to the program moves the scaled time and not the chunk.  Its mix is
the program's: tuple building, modular integer arithmetic, lists and dict
counting, as in polynomial GF(2^4) arithmetic.  It imports nothing, so
loading it does not pre-import a module the program's set-up would load.
"""

import json
import signal
import sys
import time

# One chunk every PERIOD_S of wall time: about 3% of the run.
PERIOD_S = 0.04
# Chunk time, in seconds, of the host speed that scaled times refer to: a
# round figure between its times in the fast (0.55 ms) and slow (1.0 ms)
# modes of a 2-vCPU Xeon VM.  A constant scale only, so that scaled times
# read close to seconds on such a host.
NOMINAL_CHUNK_S = 0.0007

_MODULUS = (1, 1, 0, 0)  # x^4 + x + 1 over GF(2)
_ELEMS = [tuple((v >> i) & 1 for i in range(4)) for v in range(16)]


def _mul(a, b):
    prod = [0] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % 2
    for d in range(6, 3, -1):
        c = prod[d]
        if c:
            for i, m in enumerate(_MODULUS):
                prod[d - 4 + i] = (prod[d - 4 + i] - c * m) % 2
    return tuple(prod[:4])


def chunk() -> float:
    """Run the reference chunk once; returns its wall time in seconds."""
    start = time.perf_counter()
    counts = {}
    acc = _ELEMS[1]
    for a in _ELEMS[2:8]:
        for b in _ELEMS:
            acc = _mul(_mul(a, b), acc)
            counts[acc] = counts.get(acc, 0) + 1
    return time.perf_counter() - start


def speed_s(chunks: list) -> float:
    """Host speed over a list of chunk times: their mean, in seconds."""
    return sum(chunks) / len(chunks)


def scaled(seconds: float, chunks: list) -> float:
    """seconds at the nominal host speed, given chunk times from the same span."""
    return seconds * NOMINAL_CHUNK_S / speed_s(chunks)


def main(argv: list) -> int:
    out_path, cli_args = argv[0], argv[1:]
    # A chunk before and after the CLI too, so that a run shorter than one
    # period still has its speed.
    chunks = [chunk()]
    signal.signal(signal.SIGALRM, lambda *_: chunks.append(chunk()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        from renyi_extract.cli import main as cli_main

        code = cli_main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        chunks.append(chunk())
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(chunks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
