#!/usr/bin/env bash
# Builds the benchmark and causectl from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/causectl" ]]; then
	echo "perfbench: $root is not a causeway checkout (no go.mod, internal/ or cmd/causectl)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$root" && go build -o "$out/bin/causectl" ./cmd/causectl)
(cd "$here" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --causectl "$out/bin/causectl" --work "$out/work" "$@"
