#!/usr/bin/env bash
# Live telemetry smoke: run a 256-device simulation with the HTTP
# surface on, then probe /metrics, /healthz drop counts, /slo, the
# /timeline range query and the /watch SSE stream while it runs.
#
#   make smoke-telemetry            # or: bash scripts/smoke-telemetry.sh
#
# ADDR overrides the listen address (default 127.0.0.1:9921).
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:9921}
base="http://$ADDR"

tmp=$(mktemp -d)
SIM=
cleanup() {
	if [ -n "$SIM" ]; then kill "$SIM" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT

"$GO" build -o "$tmp/mudisim" ./cmd/mudisim
"$tmp/mudisim" -devices 256 -tasks 2000 -gap 0.5 -shards -1 \
	-classes critical,standard,sheddable -burst 60:180:4 \
	-http "$ADDR" >/dev/null &
SIM=$!

probe() { for i in $(seq 1 30); do out=$(curl -sf "$1") && { echo "${out:0:400}"; return 0; }; sleep 0.2; done; echo "probe failed: $1"; return 1; }
probe_has() { for i in $(seq 1 30); do curl -sf "$1" | grep -m 1 "$2" && return 0; sleep 0.2; done; echo "probe failed: no $2 at $1"; return 1; }

probe_has "$base/metrics" '^cluster_retunes_total'
probe_has "$base/metrics" '^obs_spans_dropped_total'
probe_has "$base/metrics" '^cluster_load_sheds_total'
probe_has "$base/metrics" '^cluster_class_slo_violations_total'
for field in events_dropped spans_dropped violations_dropped; do
	probe_has "$base/healthz" "\"$field\":"
done
probe "$base/slo"
probe "$base/timeline"
probe_has "$base/timeline" '"kind":"service_gpu_share"'
probe "$base/timeline?series=fleet_sm_util&res=16"
curl -sf -m 5 -N "$base/watch" | grep -m 1 '^data: ' || { echo 'no SSE samples'; exit 1; }
