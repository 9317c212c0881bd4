"""Tour of the structural gadgets and their validators.

Builds each gadget on a small, hand-checkable host and prints what the
validator has to say.  Every record printed here can also be serialized
through the command line (`balsub gadget ...`).

    python3 demos/gadget_demo.py
"""

from balsub.gadgets import (
    build_hub,
    build_simple_adjuster,
    build_unit,
    grow_expansion,
    validate_adjuster,
)
from balsub.generators import complete_bipartite, cycle_graph


if __name__ == "__main__":
    print("== hub: a center with private two-level fan-out ==")
    host = complete_bipartite(30, 30)
    hub = build_hub(host, (), 2, 2)
    print(f"  center {hub.center}, first layer {hub.first_layer},")
    print(f"  exterior (second layers): {sorted(hub.exterior())}")

    print("\n== expansion: a connected ball capped by its radius ==")
    ball = grow_expansion(cycle_graph(12), 0, 5)
    print(f"  anchor {ball.anchor}, radius {ball.radius}, "
          f"vertices {sorted(ball.vertices)}")

    print("\n== unit: a core joined to disjoint hubs by short spokes ==")
    unit = build_unit(host, (), 3, 2, 2, 4)
    print(f"  core {unit.core}, {unit.h0} hubs, "
          f"{len(unit.exterior())} exterior / {len(unit.interior())} interior")

    print("\n== simple adjuster: one even cycle, two path lengths ==")
    hexagon = cycle_graph(6)
    adj = build_simple_adjuster(hexagon, (), 1, 1)
    print(f"  cores ({adj.core1}, {adj.core2}), center {sorted(adj.center)}")
    print(f"  length menu between the cores: {list(adj.menu())}")
    print(f"  validator: passed={validate_adjuster(hexagon, adj).passed}")

