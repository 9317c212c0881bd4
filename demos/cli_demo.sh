#!/bin/sh
# Command-line walkthrough: generate hosts, find subdivisions, verify
# certificates, and poke the gadget/selection subcommands directly.
#
#     sh demos/cli_demo.sh
set -e
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
run() { echo "\$ balsub $*" >&2; python3 -m balsub "$@"; echo; }

echo "# 1. generate a host: two K_{9,9} blocks ------------------------"
run gen kdd 9 2 > "$tmp/host.txt"
head -3 "$tmp/host.txt"; echo "..."; echo

echo "# 2. find a balanced subdivision and keep the certificate -------"
run find "$tmp/host.txt" --mode desk --seed 0 > "$tmp/cert.json"
head -8 "$tmp/cert.json"; echo "..."; echo

echo "# 3. verify the certificate against the host --------------------"
run verify "$tmp/host.txt" "$tmp/cert.json"

echo "# 4. check the expansion property of a small host ---------------"
run gen cycle 8 > "$tmp/c8.txt"
run expander "$tmp/c8.txt" --k 2.0 || true

echo "# 5. sample the expansion property above the exhaustive cap ----"
run gen kdd 40 1 > "$tmp/k4040.txt"
run expander "$tmp/k4040.txt" --k 1 --mode sampled --seed 0

echo "# 6. build a length-menu gadget on a hexagon --------------------"
run gen cycle 6 > "$tmp/c6.txt"
run gadget build adjuster "$tmp/c6.txt" --size 1 --m 2

echo "# 7. rich-subset selection on a random bipartite host -----------"
python3 -c 'from balsub.generators import bipartite_gnp, to_edge_list
g, _ = bipartite_gnp(60, 60, 0.5, seed=11)
print(to_edge_list(g), end="")' > "$tmp/bip.txt"
run drc "$tmp/bip.txt" --t 3 --r 2 --c 5 --a 3 --seed 5 --n1 60
