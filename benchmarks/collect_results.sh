#!/bin/sh
# Append every paper-vs-measured results table to a target file (default
# bench_output.txt at the root of this checkout), so the deliverable
# contains the tables pytest captures.  Paths resolve from this script's
# own directory, so it works from any checkout and any working directory.
here="$(cd "$(dirname "$0")" && pwd)"
target="${1:-$(dirname "$here")/bench_output.txt}"
{
  echo
  echo "########################################################################"
  echo "# Paper-vs-measured tables (from benchmarks/results/)"
  echo "########################################################################"
  for f in "$here"/results/*.txt; do
    echo
    cat "$f"
  done
} >> "$target"
echo "appended $(ls "$here"/results/*.txt | wc -l) tables to $target"
