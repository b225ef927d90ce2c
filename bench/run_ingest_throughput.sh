#!/bin/sh
# Runs the ingestion-throughput comparison (DOM parse plus the reference
# fold vs the streaming SAX fold) and writes BENCH_ingest.json at the
# repository root (see EXPERIMENTS.md, "Streaming ingestion
# throughput"). Each
# corpus/mode pair runs in its own process so peak-RSS numbers are not
# contaminated across modes (ru_maxrss is a process high-water mark).
# Fails if the inferred-DTD fingerprints disagree across modes — the
# determinism contract every ingestion path must uphold.
#
# Usage: bench/run_ingest_throughput.sh [build-dir] [extra-binary-flags]
#
# Set CONDTD_SYNTHETIC_MB=N to add a third, N-MiB synthetic corpus to
# the sweep (kept off the default CI path, where the paper-sized corpora
# finish in seconds).
set -e
build="${1:-build}"
shift 2>/dev/null || true
root="$(cd "$(dirname "$0")/.." && pwd)"
binary="$root/$build/bench/ingest_throughput"
out="$root/BENCH_ingest.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

corpora="table1 table2"
if [ -n "${CONDTD_SYNTHETIC_MB:-}" ]; then
  corpora="$corpora synthetic"
  set -- --synthetic-mb="$CONDTD_SYNTHETIC_MB" "$@"
fi

for corpus in $corpora; do
  for mode in dom sax; do
    "$binary" --corpus="$corpus" --mode="$mode" --json "$@" \
      >> "$tmp/results.jsonl"
  done
  # Both modes must infer the same DTD.
  fps="$(grep "\"corpus\": \"$corpus\"" "$tmp/results.jsonl" |
         sed 's/.*"dtd_fnv1a": "\([0-9a-f]*\)".*/\1/' | sort -u)"
  if [ "$(printf '%s\n' "$fps" | wc -l)" != 1 ]; then
    echo "FAIL: DTD fingerprints differ across modes for $corpus:" >&2
    printf '%s\n' "$fps" >&2
    exit 1
  fi
done

{
  printf '{\n'
  printf '  "context": {\n'
  printf '    "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%S+00:00)"
  printf '    "host_name": "%s",\n' "$(hostname)"
  printf '    "executable": "%s",\n' "$binary"
  printf '    "num_cpus": %s\n' \
    "$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
  printf '  },\n'
  printf '  "results": [\n'
  sed 's/^/    /; $!s/$/,/' "$tmp/results.jsonl"
  printf '  ]\n'
  printf '}\n'
} > "$out"
echo "wrote $out"
