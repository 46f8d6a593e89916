"""Output checks. Each returns a list of problems; an empty list passes.

A failed check counts the item as failed. Nothing here imports arboreal:
the classify oracle works from the definitions on the input JSON, and the
word and tree checks are given the program's objects by the caller.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from itertools import combinations

INF = "inf"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- classify-sweep -------------------------------------------------------------


def _graph(data: dict):
    names = [str(v["name"]) for v in data["vertices"]]
    orders = {str(v["name"]): v["order"] for v in data["vertices"]}
    adj = {v: set() for v in names}
    for u, v in data.get("edges", []):
        adj[u].add(v)
        adj[v].add(u)
    return names, orders, adj


def _bfs(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _link_order(names, orders, adj, link):
    """|G_S| for S = link: finite iff S is a clique of finite-order vertices."""
    order = 1
    for v in link:
        if orders[v] == INF or not link - {v} <= adj[v]:
            return INF
        order *= orders[v]
    return order


def classify_facts(data: dict) -> dict:
    """The verdict from the definitions, computed independently of arboreal.

    A pair is separated when it is non-adjacent and its common link spans a
    finite full subgroup; the product is acylindrically arboreal iff its
    graph has diameter >= 2, it is not virtually cyclic, and some pair is
    separated. The certificate is the first separated pair in vertex order.
    """
    names, orders, adj = _graph(data)
    n = len(names)
    dists = {v: _bfs(adj, v) for v in names}
    connected = all(len(d) == n for d in dists.values())
    diameter = max(max(d.values()) for d in dists.values()) if connected else INF
    non_edges = [(u, v) for u, v in combinations(names, 2) if v not in adj[u]]
    infinite = [v for v in names if orders[v] == INF]
    if not non_edges:
        vc = "Yes" if len(infinite) <= 1 else "No"
    elif len(non_edges) == 1 and not infinite and all(orders[v] == 2 for v in non_edges[0]):
        vc = "Yes"
    else:
        vc = "No"
    first = None
    for a, b in non_edges:
        link = adj[a] & adj[b]
        order = _link_order(names, orders, adj, link)
        if order != INF:
            first = [a, b, [v for v in names if v in link], order]
            break
    if diameter != INF and diameter <= 1:
        kind, arboreal = "CompleteGraphCase", False
    elif first and vc == "No":
        kind, arboreal = "SeparatedPair", True
    elif vc == "Yes":
        kind, arboreal = "VirtuallyCyclicWitness", False
    else:
        kind, arboreal = "NoSeparatedPair", False
    return {
        "arboreality": "AcylArboreal" if arboreal else "NotAcylArboreal",
        "virtually_cyclic": vc,
        "diameter": diameter,
        "kind": kind,
        "first_pair": first,
        "non_adjacent": len(non_edges),
    }


def check_separated_pair(data: dict, cert: dict) -> list[str]:
    """Re-validate a SeparatedPair certificate against the input graph."""
    names, orders, adj = _graph(data)
    a, b = cert["a"], cert["b"]
    if a not in adj or b not in adj or a == b:
        return [f"pair ({a}, {b}) is not two distinct vertices"]
    problems = []
    if b in adj[a]:
        problems.append(f"pair ({a}, {b}) is adjacent")
    if _bfs(adj, a).get(b, INF) in (0, 1):
        problems.append(f"pair ({a}, {b}) has BFS distance < 2")
    link = adj[a] & adj[b]
    if cert["link_set"] != [v for v in names if v in link]:
        problems.append(f"link_set {cert['link_set']} is not the common link")
    if _link_order(names, orders, adj, link) != cert["link_order"]:
        problems.append(f"link_order {cert['link_order']} is not |G_link|")
    return problems


def check_classify(item: dict, text: str, expected: dict) -> list[str]:
    out = json.loads(text)
    data = json.loads(item["text"])
    facts = item["facts"]
    problems = [
        f"{key} {out[key]!r} != {facts[key]!r}"
        for key in ("arboreality", "virtually_cyclic", "diameter")
        if out[key] != facts[key]
    ]
    cert = out["certificate"]
    if cert["kind"] != facts["kind"]:
        problems.append(f"certificate {cert['kind']} != {facts['kind']}")
    elif cert["kind"] == "SeparatedPair":
        problems += check_separated_pair(data, cert)
        a, b, link_set, order = facts["first_pair"]
        if [cert["a"], cert["b"]] != [a, b]:
            problems.append(f"pair ({cert['a']}, {cert['b']}) is not the first, ({a}, {b})")
        split = out["splitting"] or {}
        if split.get("pair") != [a, b] or split.get("N") != link_set or split.get(
            "acyl_C"
        ) != order or split.get("acyl_k") != 3:
            problems.append(f"splitting {split} does not match the certificate")
    elif cert["kind"] == "NoSeparatedPair":
        if cert["checked_pair_count"] != facts["non_adjacent"]:
            problems.append(
                f"checked_pair_count {cert['checked_pair_count']} != {facts['non_adjacent']}"
            )
    want = expected.get(item["id"])
    if want is not None and digest(text) != want:
        problems.append("verdict differs from the recorded one")
    return problems


# --- long-words -----------------------------------------------------------------


def check_word_op(pres, item: dict, out, words, text: str, expected: dict) -> list[str]:
    """Algebraic checks on canonical / multiply / inverse outputs.

    ``words`` are the item's input words as program words; ``out`` is the
    operation's result.
    """
    problems = []
    if pres.canonical(out) != out:
        problems.append("output is not canonical")
    op = item["op"]
    if op == "canonical":
        shuffled = pres.make_word(item["shuffled"])
        if pres.canonical(shuffled) != out:
            problems.append("commuting shuffle of the input has another canonical form")
        if pres.multiply(out, pres.inverse(out)) != ():
            problems.append("g * g^-1 != 1")
    elif op == "multiply":
        if pres.multiply(out, pres.inverse(words[1])) != pres.canonical(words[0]):
            problems.append("(g h) h^-1 != g")
    elif op == "inverse":
        if pres.multiply(words[0], out) != ():
            problems.append("g * g^-1 != 1")
    want = expected.get(item["id"])
    if want is not None and digest(text) != want:
        problems.append("canonical form differs from the recorded one")
    return problems


def check_tree_op(tree, splitting, item: dict, out, g, text: str, expected: dict) -> list[str]:
    """Checks on d(x, g.x) and on the elliptic/loxodromic type of g."""
    pres = splitting.presentation
    x = tree.base_vertex(splitting)
    problems = []
    if item["op"] == "tree_distance":
        back = tree.tree_distance(splitting, tree.act(splitting, pres.inverse(g), x), x)
        if out != back:
            problems.append(f"d(x, g.x) = {out} != d(g^-1.x, x) = {back}")
        if out % 2:
            problems.append(f"odd distance {out} between two vertices of one side")
    else:
        if out.is_loxodromic and (out.translation_length <= 0 or out.translation_length % 2):
            problems.append(f"loxodromic translation length {out.translation_length}")
        inverse = tree.element_action(splitting, pres.inverse(g))
        if (inverse.kind, inverse.translation_length) != (out.kind, out.translation_length):
            problems.append("g and g^-1 act differently")
    want = expected.get(item["id"])
    if want is not None and text != want:
        problems.append(f"{text} differs from the recorded {want}")
    return problems


# --- tree-audit -----------------------------------------------------------------


def check_audit(item: dict, report: dict) -> list[str]:
    """Semantic checks only: the bounded stabilizer sizes may legitimately
    grow when the stabilizer computation becomes exact."""
    problems = []
    if report["splitting"]["pair"] != item["pair"]:
        problems.append(f"audited pair {report['splitting']['pair']} != {item['pair']}")
    if report["paths_checked"] <= 0:
        problems.append("no path checked")
    if report["violations"]:
        problems.append(f"{len(report['violations'])} violations")
    if report["max_stabilizer_size"] > report["bound"]:
        problems.append(f"max stabilizer {report['max_stabilizer_size']} > {report['bound']}")
    return problems


# --- cli ------------------------------------------------------------------------


def check_cli(item: dict, code: int, stdout: str, out_file_text: str | None) -> list[str]:
    problems = []
    if code != item["exit"]:
        problems.append(f"exit code {code} != documented {item['exit']}")
    if code == 0 and "--json" in item["argv"]:
        try:
            json.loads(stdout if out_file_text is None else out_file_text)
        except ValueError:
            problems.append("--json output does not parse")
    return problems
