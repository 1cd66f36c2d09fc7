"""Large independent sets in ER_q, one construction per flavour of q.

Every certificate is verified point-by-point against the polarity before
it is returned: no pair in the set is conjugate.
"""

import json

from erpg import constructions as cons

CASES = [
    (9, "odd square, sqrt(q) = 3 mod 4: conic + one internal orbit"),
    (25, "odd square, sqrt(q) = 1 mod 4: conic + one K-orbit"),
    (8, "even non-square: Denniston arc of degree sqrt(q/2)"),
    (16, "even square: subfield arc of degree sqrt(q)"),
]

for q, story in CASES:
    cert = cons.build_coclique(q)
    line = (f"q={q:>3} [{cert.construction_id}] size {cert.size} "
            f"(claimed {cert.claimed_size}) verified={cert.verified}")
    print(line)
    print(f"      {story}")
    if cert.extension:
        print(f"      extension: {cert.extension['candidate_count']} points "
              f"with polar line disjoint from the arc; greedy extension "
              f"reaches {cert.extension['greedy_size']}")

cert = cons.build_coclique(9)
doc = json.loads(cert.to_json())
print(f"\ncertificate JSON (schema {doc['version']}) for q=9, "
      f"first two points as coefficient vectors:")
print(json.dumps(doc["points"][:2]))
