"""Regenerate the committed references in perfbench/data.

Usage: python3 perfbench/make_reference.py

* negative_fail.json: the non-weakly-pseudo-right-unitary subsemigroup
  pairs of order <= 4 that FAIL, as decided by the oracle.  The program's
  verdict must agree on every pair, and every program separator must be
  certified by the oracle, or nothing is written.
* corpus_w2.stdout: the stdout of the corpus_w2 command.  Every RESULT line
  must be PASS, as the theorems require, or nothing is written.
"""

from __future__ import annotations

import json
import sys

import oracle
import workloads


def negative_reference(rl) -> dict:
    pairs = list(workloads.NegativeFail.pairs(rl))
    fails = [iid for _n, iid, (s, _tau, tset, _labels) in pairs
             if oracle.SubsemigroupOracle(s.table, tset).shortest_separator_length() is not None]
    ref = {"pool_size": len(pairs), "fail": fails}
    wl = workloads.NegativeFail(ref)
    pool = wl.pool(rl, seed=0)
    bad = wl.check(rl, pool, [wl.run(rl, item) for item in pool])
    if bad:
        raise SystemExit("program disagrees with the oracle:\n" + "\n".join(bad[:20]))
    return ref


def corpus_reference() -> bytes:
    _wall, stdout, _lat, code, _scale = workloads.CorpusW2(reference=b"").invoke(seed=0)
    lines = stdout.decode().splitlines()
    if code != 0 or lines[-1:] != ["PASS"] or not all(
            ln.startswith("RESULT ") and ln.endswith(" PASS") for ln in lines[:-1]):
        raise SystemExit("corpus run did not PASS throughout")
    return stdout


def main() -> int:
    rl = workloads.import_reesloop()
    ref = negative_reference(rl)
    (workloads.DATA / "negative_fail.json").write_text(json.dumps(ref, indent=0) + "\n")
    print(f"negative_fail: {ref['pool_size']} pairs, {len(ref['fail'])} FAIL")
    out = corpus_reference()
    (workloads.DATA / "corpus_w2.stdout").write_bytes(out)
    print(f"corpus_w2: {len(out.splitlines())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
