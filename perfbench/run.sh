#!/usr/bin/env bash
# Builds cinderelld and the benchmark from the checkout it is run in, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload scenarios --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go caches stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cinderelld" ]]; then
	echo "perfbench: run from the root of a cinderella checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/cinderelld" ./cmd/cinderelld
(cd perfbench && go build -o "$out/perfbench" .)

# Name the span file after the run so traced runs do not overwrite it.
args=("$@")
workload=unknown seed=0
for ((i = 0; i < ${#args[@]} - 1; i++)); do
	case "${args[i]}" in
	--workload | -workload) workload=${args[i + 1]} ;;
	--seed | -seed) seed=${args[i + 1]} ;;
	esac
done
exec "$out/perfbench" -cinderelld "$out/cinderelld" \
	-trace-out "$out/trace/$workload-$seed.json" "$@"
