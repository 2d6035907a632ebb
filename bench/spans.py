"""Where the time went inside one kind of span, from a traced run's JSONL.

    python3 bench/spans.py bench/out/spans-blob-compare-seed1-trace1.jsonl engine.latent_descent

Prints, for every span name found inside spans named ROOT (ROOT included),
its call count, its self time and its share of ROOT's total time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def shares(path, root):
    spans = {}
    child_ns = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            spans[s["id"]] = s
            if s["parent"] >= 0:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    inside = {}

    def under_root(sid):
        chain = []
        while sid >= 0 and sid not in inside:
            chain.append(sid)
            if spans[sid]["name"] == root:
                break
            sid = spans[sid]["parent"]
        found = (sid in inside and inside[sid]) or (sid >= 0 and spans[sid]["name"] == root)
        for c in chain:
            inside[c] = found
        return found

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    root_ns = 0
    for sid, s in spans.items():
        if not under_root(sid):
            continue
        dur = s["end_ns"] - s["start_ns"]
        calls[s["name"]] += 1
        self_ns[s["name"]] += dur - child_ns[sid]
        if s["name"] == root:
            root_ns += dur
    return calls, self_ns, root_ns


def main(argv):
    path, root = argv
    calls, self_ns, root_ns = shares(path, root)
    if not root_ns:
        print(f"no spans named {root}")
        return 1
    print(f"{root}: {calls[root]} calls, {root_ns / 1e9:.4f} s")
    for name in sorted(self_ns, key=self_ns.get, reverse=True):
        print(f"  {name:32s} {calls[name]:8d} calls {self_ns[name] / 1e3:12.1f} us self "
              f"{100 * self_ns[name] / root_ns:6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
