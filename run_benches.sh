#!/bin/bash
# Full bench sweep with default flags; per-binary wall cap as a safety net.
# Runs the binaries under build/bench of the checkout this script lives in
# and writes bench_output.txt and the BENCH_*.json files next to it, from
# whatever directory it is started.
set -u
root=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
bin="$root/build/bench"
out="$root/bench_output.txt"
: > "$out"
for name in bench_table4 bench_table5 bench_table6 bench_table7 \
            bench_fig6 bench_fig7 bench_fig8 bench_ablation; do
  echo "############ $name ############" >> "$out"
  timeout 2400 "$bin/$name" >> "$out" 2>&1
  echo "(exit: $?)" >> "$out"
  echo >> "$out"
done
echo "############ bench_main ############" >> "$out"
timeout 2400 "$bin/bench_main" --faults \
  --json="$root/BENCH_main.json" >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_parallel ############" >> "$out"
timeout 2400 "$bin/bench_parallel" --threads=1,2,4,8 \
  --json="$root/BENCH_parallel.json" >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_serve ############" >> "$out"
timeout 2400 "$bin/bench_serve" --faults \
  --json="$root/BENCH_serve.json" >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo >> "$out"
echo "############ bench_micro ############" >> "$out"
timeout 900 "$bin/bench_micro" --benchmark_min_time=0.2 >> "$out" 2>&1
echo "(exit: $?)" >> "$out"
echo ALL-DONE >> "$out"
