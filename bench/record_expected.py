#!/usr/bin/env python3
"""Record the outputs of the golden slices into expected.json.

The golden slices are the atlas verdicts of classify-sweep and the fixed
long-words items; their outputs are mathematically determined, so a change
that alters one of them is a bug, not a new baseline. Run from the root of
a checkout:

    python3 bench/record_expected.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    root = str(BENCH.parent)
    worker.import_arboreal(root)
    sweep = worker.ClassifySweep(root, {}, {})
    classify = {
        item["id"]: checks.digest(sweep.run(item, None))
        for item in workloads.atlas_items(workloads.FULL)
    }
    words = worker.LongWords(
        root, {"product": workloads.long_words_product(), "p4_raag": workloads.P4_RAAG}, {}
    )
    long_words = {}
    for item in workloads.golden_long_words():
        text = words.render(item, words.run(item, words.prepare(item)))
        tree_op = item["op"] in ("tree_distance", "element_action")
        long_words[item["id"]] = text if tree_op else checks.digest(text)
    expected = {"classify-sweep": classify, "long-words": long_words}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(classify)} verdicts and {len(long_words)} word outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
