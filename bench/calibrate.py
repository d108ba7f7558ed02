"""A fixed pure-Python workload that prints its own run time in seconds.

bench/run.py runs it beside every timed child.  It uses nothing from
netmbt, so its time moves only with the speed of the host, never with a
change to the program.
"""

import time


class Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.links = []


def churn(rounds: int) -> int:
    """Object, list and dict traffic with a few exceptions, like the engine's."""
    pool = [Node(i, str(i)) for i in range(20000)]
    index = {}
    acc = 0
    for r in range(rounds):
        for i in range(0, 20000, 7):
            n = pool[(i * 31 + r) % 20000]
            n.links.append(acc & 0xFF)
            if len(n.links) > 8:
                n.links = n.links[4:]
            index[(n.key, r & 15)] = n
            acc = (acc * 33 + n.key + len(n.value)) & 0xFFFFFFFF
            try:
                if acc % 97 == 0:
                    raise ValueError(acc)
            except ValueError:
                acc += 1
        if len(index) > 50000:
            index.clear()
        pool[r % 20000] = Node(r, str(r))
    return acc


if __name__ == "__main__":
    started = time.perf_counter()
    churn(60)
    print(time.perf_counter() - started)
