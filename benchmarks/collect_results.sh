#!/bin/sh
# Append every paper-vs-measured results table to a target file (default
# bench_output.txt), so the deliverable contains the tables pytest captures.
target="${1:-/root/repo/bench_output.txt}"
{
  echo
  echo "########################################################################"
  echo "# Paper-vs-measured tables (from benchmarks/results/)"
  echo "########################################################################"
  for f in /root/repo/benchmarks/results/*.txt; do
    echo
    cat "$f"
  done
} >> "$target"
echo "appended $(ls /root/repo/benchmarks/results/*.txt | wc -l) tables to $target"
